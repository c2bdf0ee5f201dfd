"""Exact cycle statistics of commutators [σ,τ] of random permutations:
closed-form generating functions, Bernoulli decompositions, a brute-force
enumeration oracle, and a Monte-Carlo random-matrix cross-check harness.
"""

from .genfun import (
    CHARACTER_MAX_M,
    DEFAULT_ENUMERATION_CAP,
    HARD_ENUMERATION_CAP,
    BernoulliDecomposition,
    BernoulliTerm,
    CyclePGF,
    EnumerationCapError,
    PgfValidation,
    RootFindError,
    alternating_pgf,
    bernoulli_decomposition,
    character_law,
    commutator_law,
    one_cycle_pgf,
    resolve_cap,
    transpositions_pgf,
    transpositions_rising_form,
    two_cycles_pgf,
    uniform_cycles_pgf,
    validate_pgf,
)
from .perm import (
    CycleType,
    Permutation,
    format_cycles,
    from_cycle_type,
    parse_cycles,
)
from .polys import (
    RationalPoly,
    connection_expand,
    discrete_difference,
    falling_factorial,
    rising_factorial,
    rising_product,
    rising_square_sum,
)

# Served on first access (PEP 562), by the module that defines them: only `dist`,
# `hultman`, `sample` and `verify --scope genfun_vs_oracle|all` need `oracle`
# compiled, and only `mc` and `verify --scope rmt|all` need `rmt`; both import numpy.
_SERVED = {
    "oracle": ("exact_commutator_distribution", "exact_uniform_cycle_laws", "hultman_row", "hultman_table_rows"),
    "rmt": ("MomentReport", "mc_gamma_shortcut_moment", "mc_real_trace_law", "mc_tr_g1g2_law",
            "mc_tr_g_squared_law", "mc_trace_power_moment", "mixed_trace_vanishing"),
}


def __getattr__(name):
    for module, names in _SERVED.items():
        if name in names:
            from importlib import import_module

            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# `oracle` stays exported as a submodule: `import *` imports it.
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += ["oracle", *(name for names in _SERVED.values() for name in names)]
__version__ = "0.1.0"
