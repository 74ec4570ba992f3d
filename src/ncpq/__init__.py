"""Non-crossing partitions, exceptional sequences, and braid orbits for
acyclic quivers, with exhaustive verification of the poset isomorphism
between them at desk scale."""

from .bijection import (
    BijectionReport,
    cox,
    verify_bijection,
)
from .errors import (
    CapExceededError,
    NcpqError,
    NonFiniteTypeError,
    QuiverParseError,
    ValidationError,
)
from .exc import (
    ExcSequence,
    Subcategory,
    enumerate_complete_sequences,
    enumerate_exceptional_antichains,
    is_exceptional_sequence,
    is_projective_sequence,
    left_perp,
    right_perp,
    sequence_product,
    thick_closure,
)
from .quiver import (
    CartanMatrix,
    Classification,
    Quiver,
    cartan_matrix,
    classify_type,
    euler_form,
    parse_quiver,
    positive_root_count,
    symmetric_form,
    topological_order,
)
from .rep import (
    IndecRegistry,
    Representation,
    build_registry,
    ext_dim,
    hom_dim,
    indecomposable_for_root,
    is_exceptional,
    top_simples,
)
from .weyl import (
    Reflection,
    RootSystem,
    WeylElement,
    absolute_length,
    chain_counts,
    compose,
    conjugation_depth,
    coxeter_element,
    exchange_index,
    generate_roots,
    identity,
    make_reflection,
    multiply,
    noncrossing_partitions,
    reflect_right,
    simple_root,
)

__version__ = "0.1.0"
