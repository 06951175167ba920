"""Absolute order on the classical reflection groups S_n, B_n, D_n.

Construction of the order, its intervals and ideals, exact poset
invariants, edge labelings, lattice tests, order-complex topology, and a
formal power series oracle, together with a verification suite that
checks the implementation against independently computed values.
"""

from .signed import (
    SignedPermutation,
    CycleNotationError,
    absolute_length,
    balanced_cycle,
    coxeter_elements,
    cycle_decomposition,
    exponents,
    format_cycles,
    from_cycles,
    group_elements,
    group_order,
    identity,
    is_member,
    paired_cycle,
    parse_cycles,
    reflection_set,
    signed_cycle_types,
)
from .order import (
    Poset,
    ResourceGuardError,
    abs_leq,
    build_ideal,
    build_interval,
    covers,
    covers_by_pattern,
    cover_lifting_ok,
    coxeter_ideal,
    fiber_ideal_identity_ok,
    full_poset,
    project_pi,
    sn_leq_noncrossing,
)
from .invariants import (
    InvariantReport,
    RationalPolynomial,
    annular_mixing_facts,
    build_coxeter_interval,
    build_cycle_flip_interval,
    build_flip_interval,
    census,
    closed_form_coxeter_interval,
    closed_form_cycle_flip_interval,
    closed_form_flip_interval,
    mobius,
    mobius_element,
    multichain_count,
    rank_generating_function,
    zeta_polynomial,
)
from .labeling import (
    ELReport,
    LabelingError,
    c_sequence,
    canonical_chain,
    collapsed_reflection_label,
    join_position_labeler,
    reflection_order,
    support_size_label,
    verify_el,
)
from .lattice import (
    LatticeVerdict,
    ScanReport,
    is_lattice,
    join,
    maximal_common_lower_bounds,
    meet,
    predict_lattice,
    prediction_scan,
)
from .topology import (
    CMReport,
    HomologyProfile,
    SimplicialComplex,
    appendix_ideal_checks,
    chain_euler_characteristic,
    cm_check,
    homology,
    order_complex,
    torsion_profile,
)
from .series import (
    FormalPowerSeries,
    catalan_series,
    flip_exponential_identity_ok,
    predicted_chi_hyper,
    predicted_chi_sym,
)
from .verify import (
    ClaimResult,
    VerificationSuiteReport,
    run_verify_suite,
)

__version__ = "1.0.0"
