"""Summarize saved benchmark runs, and compare two sets of them.

    python3 perfbench/compare.py RUNS_DIR              # spread of one set
    python3 perfbench/compare.py BASE_DIR CHANGE_DIR   # change vs base

Each directory holds the standard output of `run.py --trace 0` runs of
one workload, one file per run. Results taken on different backends,
Python versions or core counts are refused (exit code 2): their timings
are not comparable. For each end-to-end metric this prints the median
and quartiles, the spread (quartile distance over median) and, with two
sets, the change of the median against the bound in BENCHMARK.json.
"""

import json
import statistics
import sys
from pathlib import Path

BOUNDS = {m["name"]: m for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["end_to_end"]}


def load(directory):
    """(environment, workload, [metrics]) of every run in directory."""
    envs, runs = set(), []
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text().splitlines()
        env = dict(kv.split("=", 1) for kv in lines[0].split()[1:])
        result = json.loads(lines[-1])
        if not result["correct"]:
            raise SystemExit("%s: run reported failures" % path)
        envs.add((env["backend"], env["python"], env["nproc"], env["workload"]))
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
    if len(envs) != 1:
        print("refusing to mix environments: %s" % sorted(envs))
        raise SystemExit(2)
    return envs.pop(), runs


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(dirs):
    sets = [load(d) for d in dirs]
    if len({env for env, _ in sets}) != 1:
        print("refusing to compare %s with %s" % (sets[0][0], sets[1][0]))
        return 2
    print("backend=%s python=%s nproc=%s workload=%s runs=%s" % (
        sets[0][0] + (",".join(str(len(r)) for _, r in sets),)))
    worse = False
    for name in sets[0][1][0]:
        row = [stats([r[name] for r in runs]) for _, runs in sets]
        text = "  ".join("%.6g [%.6g, %.6g] spread %.3f" % s for s in row)
        if len(row) == 2:
            change = row[1][0] / row[0][0] - 1
            if BOUNDS[name]["better"] == "higher":
                change = -change
            bad = change > BOUNDS[name]["bound"]
            worse |= bad
            text += "  worse by %+.3f (bound %.2f)%s" % (
                change, BOUNDS[name]["bound"], "  REGRESSION" if bad else "")
        print("%-12s %s" % (name, text))
    return 1 if worse else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1:]))
