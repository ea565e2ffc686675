"""Exact rational cornets: ordered semigroups with an integer star action.

Three concrete universes are provided over polyhedral wedges in Q^d — plain
elements, finitely generated upper sets under Minkowski sum, and step
membership functions under sup-min convolution — together with generic law
checking, Archimedean analysis and the cancellation theorem machinery.
"""

from .core import (
    ArchFamily,
    CancellationRecord,
    CornetInstance,
    Horizon,
    LawReport,
    UnsupportedOperation,
    Verdict,
    VerdictRecord,
    ablation_hunt,
    cancellation_check,
    case_rng,
    check_A_continuity,
    check_cornet_laws,
    check_lemma_identities,
    closure_props_suite,
    convexity_semigroup_check,
    dot_mul,
    hull_props_check,
    is_A_bounded,
    is_archimedean,
    is_n_convex,
    subcornet_closure_suite,
    verify_closure,
)
from .fuzzy import (
    NoArchimedeanElements,
    StepFuzzy,
    chi,
    chi_embed,
    fuzzy_arch_family,
    fuzzy_closure,
    is_n_quasiconcave,
    leq_fuzzy,
    level_cut,
    make_fuzzy_cornet,
    odot,
    oplus,
    support,
)
from .geometry import DimensionMismatch, Vec, lp_feasible, rat
from .sets import (
    Repr,
    UpperSet,
    WedgeMismatch,
    convex_hull,
    discrete,
    enumerate_z_subsets,
    intersect,
    interval_z_subsets,
    is_n_convex_set,
    make_set_cornet,
    msum,
    order_convex_z,
    phi_embed,
    polytopic,
    set_arch_family,
    set_closure,
    star_set,
    subset,
)
from .wedges import (
    NotPointedError,
    Point,
    Wedge,
    elem_arch_family,
    make_elem_cornet,
    threshold,
)

__version__ = "0.1.0"
