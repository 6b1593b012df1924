"""linkset: linking systems of difference sets in finite groups.

Construct, verify, enumerate, and certify group difference sets, reduced
and full linking systems, group difference matrices, and bent sets, with
exact integer group-ring arithmetic throughout.
"""

__version__ = "0.1.0"

from .bent import (
    BooleanFunction,
    bent_linking,
    is_bent,
    is_bent_set,
    kerdock_bent_set,
    subset_of,
    translate_to_zero,
    wht,
)
from .designs import (
    DifferenceSetRecord,
    DSParams,
    HyperplaneFamily,
    complement,
    difference_set_mask,
    difference_set_params,
    hyperplanes,
    is_difference_set,
    is_reversible,
    kraemer_exists,
    mcfarland_construct,
    spence_construct,
    two_group_params,
)
from .diffmat import (
    DifferenceMatrix,
    SearchInconclusive,
    build_general,
    build_improved,
    build_nonreversible,
    build_tyken,
    dm_auto,
    dm_field_elementary,
    dm_galois_ring,
    dm_product,
    linked_from_dm,
    normalize,
    verify_dm,
    witness_direct,
)
from .groups import (
    CosetTransversal,
    FiniteGroup,
    Subgroup,
    abelian_rank,
    center,
    coset_transversal,
    direct_product,
    exponent,
    find_central_elementary_abelian,
    group_from_spec,
    is_central,
    make_abelian,
    make_dihedral8,
    make_quaternion8,
    quotient,
    subgroup_generated,
)
from .group_ring import (
    GroupRingElement,
    autocorrelations,
    decompose_two_valued,
    from_subset,
    indicators,
    involution,
    is_subset,
    mul,
    pair_products,
)
from .linking import (
    LinkingSystem,
    MuNu,
    ReducedLinkingSystem,
    complement_system,
    expand,
    is_reversible_system,
    mu_nu_candidates,
    reduce_system,
    reversibility_profile,
    verify_full,
    verify_reduced,
)
from .search import (
    CensusResult,
    CensusSystems,
    LinkingGraph,
    SweepReport,
    bent_max_clique,
    build_linking_graph,
    census_systems,
    enumerate_difference_sets,
    enumerate_systems,
    max_system_size,
    mcfarland_pair_sweep,
    spence_pair_sweep,
)
