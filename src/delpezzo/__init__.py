"""Exact tools for del Pezzo surfaces of degree 5 and 6 over finite fields.

The package classifies the possible Galois actions on the (-1)-curves of a
del Pezzo surface of degree 5 or 6 (its *type*), constructs explicit point
configurations over finite fields realizing each achievable type, decides
minimality questions in the Picard lattice, and verifies all of it with
exact integer and finite-field arithmetic — no floating point anywhere.

Names load on first use: ``import delpezzo`` imports no submodule, and the
first access to a public name (or to a submodule such as ``delpezzo.perms``)
imports the submodule that defines it, so a cold call pays only for what it
uses.
"""

import importlib as _importlib

# The public names, by the submodule that defines them.
_EXPORTS = {
    "classify": ("AutDescription", "FieldCapability", "aut_group_of", "aut_table",
                 "custom", "finite", "g_minimal_exists", "number_field", "realizable"),
    "construct": ("PlanePoint", "PointConfig", "SurfaceModel", "conic_config",
                  "conic_point", "dp5_from_four_points", "frobenius_permutation",
                  "general_position", "model_from_json", "plane_point",
                  "points_with_action", "realize_dp5", "realize_dp6",
                  "small_field_realize", "verify_json"),
    "curvegraphs": ("CurveGraph", "VertexPerm", "blowdown_action", "curve_graph",
                    "graph_action", "has_invariant_independent_set",
                    "invariant_vertices", "to_dot", "vertex_stabilizer"),
    "fields": ("FFElem", "FieldSpec", "element_degree", "element_of_degree",
               "elements_of_degree", "field_elements", "frobenius", "frobenius_orbit",
               "gen", "in_base_field", "make_field", "minimal_polynomial", "one",
               "parse_field_literal", "subfield_elements", "zero"),
    "perms": ("ClassLabel", "Perm", "Subgroup", "all_subgroups", "centralizer",
              "class_label", "class_names", "class_representative", "complexity",
              "contains_order5", "cyclic_generator", "generate", "hex_decompose",
              "hex_element", "hex_embed_s5", "hexagon_group_elements",
              "hexagon_restriction", "orbits", "parse_generators", "parse_perm",
              "subgroup_classes", "symmetric_group_elements"),
    "picard": ("LatticeAction", "PicClass", "canonical_class", "conic_classes",
               "e_class", "h_class", "induced_lattice_action", "intersect",
               "invariant_rank", "is_g_minimal", "minus_one_classes"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    """Import a submodule, or the submodule owning a public name, on first access."""
    if name in _EXPORTS:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
