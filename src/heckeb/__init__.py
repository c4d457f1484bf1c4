"""Exact computation in the annular Hecke-type algebra: normal forms,
the positive-power trace, the induced link invariant for the solid torus,
and the band-move equation systems for its lens-space quotients."""

__version__ = "0.1.0"

from .scalars import HalfTwistScalar, RatFunc  # noqa: F401
from .words import (  # noqa: F401
    LoopMonomial,
    MixedBraidWord,
    WordError,
    bbm_image,
    compare_order,
    enumerate_abs_level,
    enumerate_level,
    f_map_word,
    loop_monomial_of_word,
    parse_word,
    word_to_json,
    word_to_text,
)
from .algebra import AlgebraElement, project_braid  # noqa: F401
from .trace import (  # noqa: F401
    Equation,
    TraceDomainError,
    TraceValue,
    XValue,
    bbm_equation,
    invariant_x,
    map_I,
    trace,
    trace_of_word,
)
from .lens import (  # noqa: F401
    ReducedSystem,
    Rule,
    SystemBundle,
    back_substitution_check,
    candidate_basis_experiment,
    check_generating_set,
    compare_mirror,
    generate_system,
    mirror_equation,
    mirror_system,
    reduce_system,
)
from .verify import SUITES, run_all, run_suite  # noqa: F401

# The polynomial implementation behind every result; benchmark runs
# record it so that results from different implementations are not mixed.
BACKEND = "python"
