"""Value semantics of the frozen records: repr, equality, hash, signature, checks.

The twelve record classes are plain ``__slots__`` classes.  These tests pin
what they print, how they compare and hash, how they are called, and the
text of every check their constructors run, so the records keep behaving
as the frozen dataclasses they replaced.
"""

import inspect
import re

import pytest

from delpezzo.classify import AutDescription, FieldCapability
from delpezzo.construct import PlanePoint, PointConfig, SurfaceModel, plane_point
from delpezzo.curvegraphs import CurveGraph, VertexPerm, curve_graph
from delpezzo.fields import FFElem, FieldSpec, frobenius, gen, make_field
from delpezzo.perms import ClassLabel, Perm, generate
from delpezzo.picard import LatticeAction, PicClass
from delpezzo.selfcheck import CheckResult

F7 = make_field(7, 1, 1)
F49 = make_field(7, 1, 2)
F7_REPR = "FieldSpec(7^1:base=1)"
ON_CONIC = plane_point(F7, 1, 2, 4)
OFF_CONIC = plane_point(F7, 1, 2, 3)
ON_CONIC_REPR = (f"PlanePoint(spec={F7_REPR}, coords=(FFElem(7^1:base=1, [1]), "
                 "FFElem(7^1:base=1, [2]), FFElem(7^1:base=1, [4])))")
CONFIG = PointConfig(F7, (ON_CONIC,))
CONFIG_REPR = f"PointConfig(spec={F7_REPR}, points=({ON_CONIC_REPR},), on_conic=False)"
GRAPH = CurveGraph(5, (frozenset({1, 2}), frozenset({3, 4})), ((False, True), (True, False)))
GRAPH_REPR = ("CurveGraph(degree_context=5, vertices=(frozenset({1, 2}), frozenset({3, 4})), "
              "adjacency=((False, True), (True, False)))")
LABEL = ClassLabel(5, "[e]")
LABEL_REPR = "ClassLabel(degree_context=5, name='[e]')"
IDENTITY = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
SWAP_E1_E2 = (IDENTITY[0], IDENTITY[2], IDENTITY[1], IDENTITY[3], IDENTITY[4])
MINUS_IDENTITY = tuple(tuple(-x for x in row) for row in IDENTITY)
TRIVIAL5 = generate([], 5)


# class -> (sample arguments, its repr at the dataclass version, (field, changed
# value), defaults, [(bad arguments, ValueError text)] with one entry per check)
CASES = {
    ClassLabel: ((5, "[e]"), LABEL_REPR, ("name", "[S5]"), {}, []),
    FieldSpec: ((7, 1, (3, 1), 1), F7_REPR, ("modulus", (4, 1)), {}, [
        ((4, 1, (1, 1), 1), "p is not prime"),
        ((7, 2, (3, 0, 1), 3), "base degree must divide the absolute degree"),
        ((7, 2, (3, 1), 1), "modulus must be monic of the right degree"),
        ((7, 1, (9, 1), 1), "modulus coefficients out of range"),
        ((7, 2, (6, 0, 1), 1), "modulus is reducible"),
    ]),
    CurveGraph: ((GRAPH.degree_context, GRAPH.vertices, GRAPH.adjacency), GRAPH_REPR,
                 ("degree_context", 6), {}, []),
    VertexPerm: ((GRAPH, Perm([0, 1])), f"VertexPerm(graph={GRAPH_REPR}, perm=Perm[()])",
                 ("perm", Perm([1, 0])), {}, [
        ((GRAPH, Perm([0])), "degree mismatch"),
        ((curve_graph(5), Perm([1, 0] + list(range(2, 10)))),
         "vertex permutation does not preserve adjacency"),
    ]),
    PlanePoint: ((F7, ON_CONIC.coords), ON_CONIC_REPR, ("coords", OFF_CONIC.coords), {}, [
        ((F7, ON_CONIC.coords[:2]), "a plane point needs three coordinates in one field"),
        ((F7, ON_CONIC.coords[:2] + (FFElem(F49, (1,)),)),
         "a plane point needs three coordinates in one field"),
    ]),
    PointConfig: ((F7, (ON_CONIC,), False), CONFIG_REPR, ("on_conic", True),
                  {"on_conic": False}, [
        ((F49, (ON_CONIC,)), "mismatched point fields"),
        ((F7, (ON_CONIC, ON_CONIC)), "points must be pairwise distinct"),
        ((F7, (OFF_CONIC,), True), "point off the marked conic"),
    ]),
    SurfaceModel: (
        (5, F7, CONFIG, Perm([0]), LABEL, "fourpoints", None),
        f"SurfaceModel(degree=5, spec={F7_REPR}, config={CONFIG_REPR}, frobenius_perm=Perm[()], "
        f"type_label={LABEL_REPR}, construction='fourpoints', blowdown_vertex=None)",
        ("construction", "conic5"), {"blowdown_vertex": None}, [
            ((4, F7, CONFIG, Perm([0]), LABEL, "fourpoints"), "unsupported degree"),
            ((5, F7, CONFIG, Perm([0]), LABEL, "conic6"), "unknown construction tag 'conic6'"),
            ((5, F7, CONFIG, Perm([0]), LABEL, "fourpoints", frozenset({1, 2})),
             "blow-down vertex is for degree-6 models only"),
            ((5, F7, CONFIG, Perm([0]), LABEL, "conic5_blowdown"),
             "construction tag 'conic5_blowdown' does not match degree 5"),
        ]),
    FieldCapability: (("finite", 7, frozenset()),
                      "FieldCapability(kind='finite', q=7, labels=frozenset())",
                      ("q", 8), {"q": None, "labels": frozenset()}, [
        (("field",), "unknown capability kind 'field'"),
        (("finite", 2 ** 41), "finite capability needs q at most 2^40"),
        (("finite", 6), "finite capability needs a prime-power q"),
    ]),
    AutDescription: ((LABEL, "e", TRIVIAL5),
                     f"AutDescription(label={LABEL_REPR}, group_name='e', "
                     "aut_group=Subgroup<()> of order 1)",
                     ("label", ClassLabel(5, "[A5]")), {}, [
        ((LABEL, "Q8", TRIVIAL5), "unknown group name 'Q8'"),
        ((LABEL, "S5", TRIVIAL5), "structural name does not match the group order"),
    ]),
    PicClass: ((5, (1, 0, 0, 0, 0)), "PicClass(degree_context=5, coords=(1, 0, 0, 0, 0))",
               ("coords", (0, 1, 0, 0, 0)), {}, [
        ((4, (1,)), "unsupported degree"),
        ((5, (1, 0)), "wrong number of coordinates"),
    ]),
    LatticeAction: ((5, IDENTITY), f"LatticeAction(degree_context=5, matrix={IDENTITY!r})",
                    ("matrix", SWAP_E1_E2), {}, [
        ((5, IDENTITY[:4]), "wrong matrix shape"),
        ((5, ((2,) + IDENTITY[0][1:],) + IDENTITY[1:]),
         "matrix does not preserve the intersection form"),
        ((5, MINUS_IDENTITY), "matrix does not fix the canonical class"),
    ]),
    CheckResult: (("census", True, 0.5, "ok"),
                  "CheckResult(name='census', ok=True, seconds=0.5, detail='ok')",
                  ("ok", False), {}, []),
}
FIELDS = {
    ClassLabel: ("degree_context", "name"),
    FieldSpec: ("p", "m", "modulus", "base_degree"),
    CurveGraph: ("degree_context", "vertices", "adjacency"),
    VertexPerm: ("graph", "perm"),
    PlanePoint: ("spec", "coords"),
    PointConfig: ("spec", "points", "on_conic"),
    SurfaceModel: ("degree", "spec", "config", "frobenius_perm", "type_label", "construction",
                   "blowdown_vertex"),
    FieldCapability: ("kind", "q", "labels"),
    AutDescription: ("label", "group_name", "aut_group"),
    PicClass: ("degree_context", "coords"),
    LatticeAction: ("degree_context", "matrix"),
    CheckResult: ("name", "ok", "seconds", "detail"),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    args, expected_repr, (changed_field, changed_value), defaults, bad = CASES[cls]
    fields = FIELDS[cls]
    record = cls(*args)
    assert repr(record) == expected_repr
    assert tuple(getattr(record, name) for name in fields) == args

    by_keyword = cls(**dict(zip(fields, args)))
    assert by_keyword == record and not by_keyword != record
    assert hash(by_keyword) == hash(record) == hash(args)
    assert record != args and record.__eq__(args) is NotImplemented

    changed = cls(**{**dict(zip(fields, args)), changed_field: changed_value})
    assert changed != record and not changed == record

    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert {name: p.default for name, p in params.items()
            if p.default is not inspect.Parameter.empty} == defaults

    for bad_args, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(*bad_args)


def test_field_spec_compares_its_four_fields_not_its_tables():
    built = FieldSpec(*(getattr(F49, name) for name in FIELDS[FieldSpec]))
    frobenius(gen(F49))  # fills the Frobenius table of F49 only
    assert F49._frob and not built._frob
    assert built == F49 and hash(built) == hash(F49) and built is not F49


def _immutables():
    spec = make_field(3, 1, 2)
    yield Perm([1, 0, 2]), ("images", "degree")
    yield generate([Perm([1, 0, 2])]), ("_members", "elements", "generators", "degree")
    yield gen(spec), ("spec", "_v")
    yield F49, FIELDS[FieldSpec] + ("_r", "_f", "_g", "_frob", "_kernels")
    for cls, (args, *_) in CASES.items():
        if cls is PlanePoint:
            yield cls(*args), FIELDS[cls] + ("_v",)
        elif cls is not FieldSpec:
            yield cls(*args), FIELDS[cls]


_IMMUTABLES = list(_immutables())


@pytest.mark.parametrize("obj,names", _IMMUTABLES,
                         ids=[type(obj).__name__ for obj, _ in _IMMUTABLES])
def test_fields_refuse_assignment_and_deletion(obj, names):
    for name in names:
        value = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        if isinstance(obj, PlanePoint) and name == "coords":  # a view, built on each read
            assert getattr(obj, name) == value
        else:
            assert getattr(obj, name) is value
    with pytest.raises(AttributeError):
        obj.extra = 1
