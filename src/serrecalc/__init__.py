"""Exact combinatorics of Serre-weight families.

Weight-profile enumeration, the attached monomial ideals and their exact
(bi)graded Hilbert series, Tor/Ext dimension oracles via simplicial homology
and Taylor complexes, rank checks in the truncated PBW algebra, and the
closed-form verifiers tying them together.
"""

from .errors import (
    ProfileMembershipError,
    SizeLimitError,
    TruncationError,
    UnsupportedCaseError,
)
from .series import (
    BigradedSeries,
    CharOffset,
    IntPoly,
    RationalSeries,
    expand,
)
from .weights import (
    Case,
    GaloisContext,
    Symbol,
    TGen,
    WeightProfile,
    character_window,
    count_by_A,
    enumerate_profiles,
    ext1_nonzero,
    j_set,
    jh_interval,
    mu_shift,
    nonsplit_context,
    profile_from_subset,
    profile_stats,
    split_context,
)
from .ideals import (
    Monomial,
    MonomialIdeal,
    a1,
    a_lambda,
    a_ss,
    bigraded_quotient,
    bigraded_standard,
    hilbert,
    patched_intersection_check,
)
from .homology import (
    SimplicialComplex,
    ext1_lower_bound,
    ext_dims,
    hochster_tor,
    reduced_homology_dims,
    taylor_tor,
)
from .pbw import gr_formula, pbw_basis, pbw_mul, tor1_gr
from .predictions import (
    SubquotientSpec,
    degenerates_check,
    gr_subquotient,
    hilbert_Ni,
    hilbert_pi,
    i1_invariants,
    k1_cycle,
    semisimple_match,
    socle_jsets,
    theta_lattice,
    x_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
