"""Exact tools for del Pezzo surfaces of degree 5 and 6 over finite fields.

The package classifies the possible Galois actions on the (-1)-curves of a
del Pezzo surface of degree 5 or 6 (its *type*), constructs explicit point
configurations over finite fields realizing each achievable type, decides
minimality questions in the Picard lattice, and verifies all of it with
exact integer and finite-field arithmetic — no floating point anywhere.
"""

import types as _types

from .classify import (
    AutDescription,
    FieldCapability,
    aut_group_of,
    aut_table,
    custom,
    finite,
    g_minimal_exists,
    number_field,
    realizable,
)
from .construct import (
    PlanePoint,
    PointConfig,
    SurfaceModel,
    conic_config,
    conic_point,
    dp5_from_four_points,
    frobenius_permutation,
    general_position,
    model_from_json,
    plane_point,
    points_with_action,
    realize_dp5,
    realize_dp6,
    small_field_realize,
    verify_json,
)
from .curvegraphs import (
    CurveGraph,
    VertexPerm,
    blowdown_action,
    curve_graph,
    graph_action,
    has_invariant_independent_set,
    invariant_vertices,
    to_dot,
    vertex_stabilizer,
)
from .fields import (
    FFElem,
    FieldSpec,
    element_degree,
    element_of_degree,
    elements_of_degree,
    field_elements,
    frobenius,
    frobenius_orbit,
    gen,
    in_base_field,
    make_field,
    minimal_polynomial,
    one,
    parse_field_literal,
    subfield_elements,
    zero,
)
from .perms import (
    ClassLabel,
    Perm,
    Subgroup,
    all_subgroups,
    centralizer,
    class_label,
    class_names,
    class_representative,
    complexity,
    contains_order5,
    cyclic_generator,
    generate,
    hex_decompose,
    hex_element,
    hex_embed_s5,
    hexagon_group_elements,
    hexagon_restriction,
    orbits,
    parse_generators,
    parse_perm,
    subgroup_classes,
    symmetric_group_elements,
)
from .picard import (
    LatticeAction,
    PicClass,
    canonical_class,
    conic_classes,
    e_class,
    h_class,
    induced_lattice_action,
    intersect,
    invariant_rank,
    is_g_minimal,
    minus_one_classes,
)

# The names imported above; each `from .x import` also binds the submodule x.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
