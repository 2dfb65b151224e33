"""permlab: exhaustive verification of permutation maps over small finite fields."""

from .ffcore import (
    DEFAULT_SIZE_CAP,
    Element,
    FieldCtx,
    get_field,
    make_field,
)
from .permcheck import (
    FnSpec,
    GSpec,
    PermVerdict,
    build_inverse_table,
    compose_f,
    compose_h,
    evaluate_all,
    is_permutation,
    lemma1_check,
    make_fn_exponent_sum,
    make_gspec,
)
from .families import (
    CoeffCondition,
    FamilySpec,
    InapplicableError,
    applicable,
    canonical_exponent,
    instantiate,
    lookup,
    omega_set,
    registry,
    valid_coefficients,
)
from .transform import (
    CosetSet,
    invert_f,
    prop2_check,
    prop4_check,
    quadratic_form_solutions,
    trace_coset,
)

__version__ = "0.1.0"
