"""clonekit: finite-domain computational universal algebra.

Decision procedures for the constructions that compare constraint
satisfaction problems: homomorphism search and cores, polymorphism and
identity-constrained operation search, pp-definability and pp-powers,
reflections, free structures with colorings, and the derived
hardness/tractability classification with verifiable certificates.
"""

__version__ = "0.1.0"

from .clones import (
    CloneGenSet,
    H1IdentitySystem,
    OperationTable,
    all_polymorphisms,
    compose,
    find_operation_satisfying,
    generate_to_arity,
    has_cyclic,
    has_siggers,
    is_polymorphism,
    parse_identity_system,
    polymorphisms,
    preserves,
    projection,
    satisfies_system,
)
from .constructions import (
    PPFormula,
    PPPowerSpec,
    PPSearchBounds,
    ReflectionMaps,
    bounded_pp_search,
    check_pp_constructible,
    evaluate_pp,
    identity_power_spec,
    is_pp_definable,
    parse_pp_formula,
    pp_power,
    reflect_operation,
    reflect_operations,
    verify_pp_interpretation,
)
from .freestruct import (
    Coloring,
    FreeStructure,
    find_coloring,
    free_structure,
    free_structure_over_polymorphisms,
    h1_homomorphism_exists,
    h1_to_projections,
    projection_test_structure,
    verify_coloring,
)
from .homs import (
    HomMap,
    add_singletons,
    all_homomorphisms,
    core_of,
    find_homomorphism,
    find_isomorphism,
    hom_equivalent,
    is_hom,
)
from .maltsev import (
    HMChain,
    boolean_order,
    day_structure,
    find_hagemann_mitschke,
    is_congruence_modular,
    is_n_permutable_somewhere,
    verify_hm_chain,
)
from .search import BudgetExceededError, CrossCheckError, Outcome, SearchBudget
from .structures import (
    CapacityError,
    ParseError,
    RelStructure,
    Signature,
    TupleCoding,
    parse_structure,
    power_structure,
    serialize_structure,
)
