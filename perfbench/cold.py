"""Run one `heckeb` command in this fresh interpreter, at reference speed.

    cold.py ARGV...    run `heckeb ARGV...`
    cold.py            only import heckeb

Behaves like the `heckeb` console script, with a SpeedClock (see
speed.py) running from before the package import to the end. The last
line on standard error is "<imported> <factor> <spent>": the
CLOCK_MONOTONIC time at which `import heckeb` finished, reference seconds
per wall second of work, and wall seconds spent calibrating.
"""

import sys
import time

from speed import SpeedClock


def main(argv):
    t0 = time.perf_counter()
    code = 0
    with SpeedClock() as clock:
        import heckeb

        imported = time.clock_gettime(time.CLOCK_MONOTONIC)
        if argv:
            import heckeb.cli

            code = heckeb.cli.main(argv)
            sys.stdout.flush()
        busy = clock.now()
        wall = time.perf_counter() - t0 - clock.spent
    print("%r %r %r" % (imported, busy / wall, clock.spent), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
