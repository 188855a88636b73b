"""Exact-arithmetic computation and certification of the stable reduction of
three-point cyclic p-covers of the projective line."""

from .analyzer import (
    CoverSpec,
    analyze,
    branch_signature,
    build_stable_graph,
    certify_tail,
    conductor_bound,
    inseparable_tails,
    new_tail_locus,
    quotient_spec,
    stab_field_tower,
)
from .graph import (
    Component,
    DecoratedGraph,
    GraphEdge,
    check_local_vanishing,
    check_vanishing_cycles,
    effective_different_profile,
    export_graph,
    sigma_eff_outward,
    tail_invariant_checks,
    validate_structure,
)
from .metacyclic import (
    MetacyclicSpec,
    SignatureSolution,
    moduli_and_tails_note,
    signature_solver,
)
from .ramification import (
    ConductorValue,
    FieldTower,
    Filtration,
    TowerStep,
    compositum_conductor,
    cyclotomic_filtration,
    cyclotomic_tower,
    herbrand_convert,
    herbrand_phi,
    herbrand_psi,
    kummer_step_conductor,
)
from .series import (
    DiskExpansion,
    ReductionVerdict,
    classify_torsor_reduction,
    expand_disk,
)
from .tower import (
    Tower,
    TowerElement,
    square_class_K2_K3,
)

__all__ = [
    "Component",
    "ConductorValue",
    "CoverSpec",
    "DecoratedGraph",
    "DiskExpansion",
    "FieldTower",
    "Filtration",
    "GraphEdge",
    "MetacyclicSpec",
    "ReductionVerdict",
    "SignatureSolution",
    "Tower",
    "TowerElement",
    "TowerStep",
    "analyze",
    "branch_signature",
    "build_stable_graph",
    "certify_tail",
    "check_local_vanishing",
    "check_vanishing_cycles",
    "classify_torsor_reduction",
    "compositum_conductor",
    "conductor_bound",
    "cyclotomic_filtration",
    "cyclotomic_tower",
    "effective_different_profile",
    "expand_disk",
    "export_graph",
    "herbrand_convert",
    "herbrand_phi",
    "herbrand_psi",
    "inseparable_tails",
    "kummer_step_conductor",
    "moduli_and_tails_note",
    "new_tail_locus",
    "quotient_spec",
    "sigma_eff_outward",
    "signature_solver",
    "square_class_K2_K3",
    "stab_field_tower",
    "tail_invariant_checks",
    "validate_structure",
]

__version__ = "0.1.0"
