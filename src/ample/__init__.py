"""Finite ample groupoids, their exact convolution algebras, unitary
modules, groupoid sheaves, and the certified equivalence between the two
categories, including Morita transport along spans of essential
equivalences."""

from .algebra import (
    AlgebraElement,
    CornerAlgebra,
    algebra_element,
    char_fn,
    char_of_objects,
    convolve,
    corner_algebra,
    identity_element,
    local_unit,
    multiplication_table,
    zero_element,
)
from .builders import (
    GraphSpec,
    acyclic_graph_groupoid,
    action_groupoid,
    cyclic_group,
    group_groupoid,
    pair_groupoid,
    random_module,
    random_sheaf,
    symmetric_group,
    trivial_groupoid,
)
from .equivalence import (
    NaturalIsoCertificate,
    Sheafification,
    check_naturality,
    epsilon,
    eta,
    gamma_c,
    gamma_c_mor,
    sh_mor,
    sheafify,
)
from .gmodule import (
    GModule,
    GModuleHom,
    direct_sum,
    hom_space_basis,
    regular_module,
    validate_hom,
    validate_module,
)
from .groupoid import (
    Bisection,
    FiniteGroupoid,
    bisection_inverse,
    bisection_product,
    enumerate_bisections,
    is_bisection,
    restrict_groupoid,
    unit_bisection,
    validate_groupoid,
)
from .gsheaf import (
    GSheaf,
    GSheafMor,
    constant_sheaf,
    direct_sum_sheaf,
    validate_sheaf,
    validate_sheaf_morphism,
)
from .morita import (
    GroupoidFunctor,
    MoritaSpan,
    is_essential_equivalence,
    module_transport,
    pullback_quasi_inverse,
    pullback_sheaf,
    round_trip,
    verify_morita,
)
from .rings import (
    INTEGERS,
    RATIONALS,
    Matrix,
    Ring,
    UnsupportedRingError,
    image_basis,
    kernel_basis,
    matrix_inverse,
    modular,
    rank,
    ring_from_name,
)

__version__ = "0.1.0"
