"""Galois-stable point configurations realizing each cyclic surface type.

Two constructions are implemented exactly.

* Conic construction: five Frobenius-stable points on the fixed conic
  y^2 = x*z (the image of t -> (1:t:t^2)), built from five affine parameters
  carrying a prescribed cyclic Frobenius action.  Works whenever the base
  field has more than c(H) elements, where c is the orbit-multiplicity
  complexity from ``perms``.
* Four-point construction: blowing up four points of the projective plane
  in general position; Frobenius permutes the ten (-1)-classes (four
  exceptional classes and six lines) as it permutes the points, fixing 5.
  This covers the small fields the conic construction cannot reach.

The blow-down of a Galois-invariant vertex converts a degree-5 model into a
degree-6 model; all types with cyclic representatives are reachable this way
over every finite field.
"""

from __future__ import annotations

from functools import lru_cache
from math import isinf

from .curvegraphs import blowdown_action, invariant_vertices
from .fields import (
    FieldSpec,
    FFElem,
    _elem,
    _frob,
    _pack_coeffs,
    elements_of_degree,
    frobenius,
    make_field,
    one,
    parse_field_literal,
    zero,
)
from .perms import (
    ClassLabel,
    Perm,
    Subgroup,
    _Record,
    class_label,
    class_representative,
    complexity,
    cyclic_generator,
    generate,
    hex_decompose,
    hex_embed_s5,
    orbits,
    parse_perm,
)

CONSTRUCTION_TAGS = ("conic5", "fourpoints", "conic5_blowdown", "fourpoints_blowdown")


# --- projective points and lines --------------------------------------------

def _normalized(spec: FieldSpec, vs: tuple[int, int, int]) -> tuple[int, int, int]:
    """Packed coordinates scaled so the first nonzero one is 1."""
    lead = next((v for v in vs if v), None)
    if lead is None:
        raise ValueError("point has no nonzero coordinate")
    if lead == 1:  # already scaled: the inverse of 1 is 1
        return tuple(vs)
    inv = spec._r.inverse(lead, spec._f)
    return tuple(spec._r.mul(v, inv, spec._g) for v in vs)


class PlanePoint(_Record):
    """A projective plane point, scaled so its first nonzero coordinate is 1, held
    as packed ints ``_v``; ``coords`` builds its field elements on each read."""

    __slots__ = ("spec", "_v")

    def __init__(self, spec: FieldSpec, coords: tuple[FFElem, FFElem, FFElem]):
        if len(coords) != 3 or any(c.spec is not spec and c.spec != spec for c in coords):
            raise ValueError("a plane point needs three coordinates in one field")
        x, y, z = coords
        self._set(spec, _normalized(spec, (x._v, y._v, z._v)))

    @classmethod
    def _from_packed(cls, spec: FieldSpec, vs: tuple[int, int, int]) -> "PlanePoint":
        """The point with packed coordinates vs, already normalized."""
        point = object.__new__(cls)
        point._set(spec, vs)
        return point

    @property
    def coords(self) -> tuple[FFElem, FFElem, FFElem]:
        return tuple(_elem(self.spec, v) for v in self._v)

    def apply_frobenius(self) -> "PlanePoint":
        return PlanePoint(self.spec, tuple(frobenius(c) for c in self.coords))

    def on_conic(self) -> bool:
        """y^2 = x*z."""
        x, y, z = self._v
        return not self.spec._r.minor(y, y, x, z, self.spec._g)

    def to_json(self) -> list[list[int]]:
        return [self.spec._r.unpack(v) for v in self._v]

    def __str__(self) -> str:
        return "(" + ":".join(str(c.index) for c in self.coords) + ")"

    def __repr__(self) -> str:
        return f"PlanePoint(spec={self.spec!r}, coords={self.coords!r})"


def plane_point(spec: FieldSpec, *coords) -> PlanePoint:
    """Point from coordinates given as FFElem or small integers."""
    lifted = tuple(
        c if isinstance(c, FFElem) else FFElem(spec, (c,)) for c in coords
    )
    return PlanePoint(spec, lifted)


def general_position(points) -> bool:
    """No three of the points are collinear (needs at least three points).

    On packed ints: the cross product of each pair is formed once, from three
    minors, and dotted with every later point, one reduction per determinant,
    so all C(n, 3) determinants are tested.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("general position needs at least three points")
    spec = pts[0].spec
    if any(p.spec is not spec and p.spec != spec for p in pts):
        raise ValueError("elements of different fields")
    r, g = spec._r, spec._g
    vs = [p._v for p in pts]
    for i, (a0, a1, a2) in enumerate(vs):
        for j in range(i + 1, len(vs) - 1):
            b0, b1, b2 = vs[j]
            c0 = r.minor(a1, b2, a2, b1, g)
            c1 = r.minor(a2, b0, a0, b2, g)
            c2 = r.minor(a0, b1, a1, b0, g)
            for k0, k1, k2 in vs[j + 1:]:
                if not r.dot(c0, k0, c1, k1, c2, k2, g):
                    return False
    return True


class PointConfig(_Record):
    """A sequence of distinct plane points, optionally marked as conic points."""

    __slots__ = ("spec", "points", "on_conic")

    def __init__(self, spec: FieldSpec, points: tuple[PlanePoint, ...], on_conic: bool = False):
        self._set(spec, points, on_conic)
        if any(p.spec is not spec and p.spec != spec for p in points):
            raise ValueError("mismatched point fields")
        if len({p._v for p in points}) != len(points):
            raise ValueError("points must be pairwise distinct")
        if on_conic and not all(p.on_conic() for p in points):
            raise ValueError("point off the marked conic")

    def __len__(self) -> int:
        return len(self.points)


def conic_point(spec: FieldSpec, t: FFElem) -> PlanePoint:
    if t.spec is not spec and t.spec != spec:
        raise ValueError("a plane point needs three coordinates in one field")
    return PlanePoint._from_packed(spec, (1, t._v, spec._r.mul(t._v, t._v, spec._g)))


def conic_config(betas) -> PointConfig:
    """Five (or n) conic points (1 : b : b^2) from distinct parameters."""
    betas = tuple(betas)
    if len(set(betas)) != len(betas):
        raise ValueError("conic parameters must be distinct")
    if not betas:  # general_position's own rule, before betas[0] is read
        raise ValueError("general position needs at least three points")
    spec = betas[0].spec
    config = PointConfig(spec, tuple(conic_point(spec, b) for b in betas), on_conic=True)
    # a line meets a smooth conic in at most two points; checked, not assumed
    if not general_position(config.points):
        raise AssertionError("internal error: conic points not in general position")
    return config


def frobenius_permutation(config: PointConfig) -> Perm:
    """The permutation i -> j with frobenius(P_i) = P_j (1-indexed).

    Points are looked up by their packed coordinates, which ``PointConfig``
    keeps in one field.  Frobenius fixes 0 and 1, so the image of a scaled
    point is already scaled: no normalization is needed before the lookup.
    """
    spec = config.spec
    where = {p._v: i for i, p in enumerate(config.points)}  # distinct keys, in point order
    images = tuple(where.get(tuple(_frob(spec, c, 1) for c in v)) for v in where)
    if None in images:
        raise ValueError("configuration not defined over the base field")
    return Perm(images)


# --- per-type tables -------------------------------------------------------------
#
# These depend on the Frobenius permutation tau of the points or on a subgroup
# of S5 or of the hexagon group, never on the field, so each is computed once
# per process and key and kept: realize and verify pass tau of degree 4 or 5
# (at most 24 + 120 keys), S5 has 156 subgroups, and the requested types are
# the 19 + 10 pinned representatives.  Nothing is filled at import.

@lru_cache(maxsize=None)
def _galois_type(tau: Perm) -> tuple[Subgroup, ClassLabel]:
    """The Galois image in S5 of a model whose points Frobenius permutes by tau,
    and its degree-5 type.

    On five conic points tau already acts on {1..5}.  For a 4-point blow-up,
    in the Kneser labels the exceptional class over point i is {i,5} and the
    line through points i and j is {1,2,3,4} minus {i,j}.  Frobenius sends
    E_i to E_tau(i) and that line to the line through points tau(i) and
    tau(j), so it acts on the ten labels as tau extended by 5 -> 5.
    """
    image = generate([Perm(tau.images + tuple(range(tau.degree, 5)))], degree=5)
    return image, class_label(image, 5)


@lru_cache(maxsize=None)
def _blowdown_types(image: Subgroup) -> tuple[tuple[frozenset[int], ClassLabel], ...]:
    """Each vertex the image fixes, in ``invariant_vertices`` order, with the
    degree-6 type its blow-down induces."""
    return tuple((v, blowdown_action(image, v)[1]) for v in invariant_vertices(image))


@lru_cache(maxsize=None)
def _type_labels(rep: Subgroup, degree: int) -> tuple[ClassLabel, ClassLabel]:
    """The label of a representative in its degree, and the degree-5 label of
    its image in S5: the group itself in degree 5, and in degree 6 its image
    under the standard embedding of the hexagon group."""
    label = class_label(rep, degree)
    if degree == 5:
        return label, label
    gens5 = [hex_embed_s5(*hex_decompose(h)) for h in rep.generators]
    return label, class_label(generate(gens5, degree=5), 5)


@lru_cache(maxsize=None)
def _orbit_plan(group: Subgroup) -> tuple[Perm, int, tuple[tuple[int, ...], ...]]:
    """The chosen generator, c(H), and the orbits by (length, smallest point)
    of a cyclic subgroup of S5."""
    gen_perm = cyclic_generator(group)
    if group.degree != 5:
        raise ValueError("degree mismatch")
    orbit_list = tuple(sorted(orbits(group), key=lambda o: (len(o), min(o))))
    return gen_perm, complexity(group), orbit_list


# --- the inductive equivariant point-set algorithm ---------------------------

def _points_with_action_stats(base: FieldSpec, group: Subgroup):
    gen_perm, c, orbit_list = _orbit_plan(group)
    if base.q <= c:
        raise ValueError("field too small, use small_field_realize")
    # the orbits are the cycles of the generator, so the lcm of their lengths is |H|
    work = make_field(base.p, base.base_degree, group.order)
    r, g = work._r, work._g
    betas: dict[int, int] = {}  # packed, as the seed search runs
    placed: set[int] = set()
    scalar_positions = []
    for orbit in orbit_list:
        l = len(orbit)
        # each seed in turn, times the nonzero base scalars, lazily and in index order
        candidates = ((r.mul(a._v, seed._v, g), position) for seed in elements_of_degree(work, l)
                      for position, a in enumerate(elements_of_degree(work, 1), start=1))
        value, position = next((c for c in candidates if c[0] not in placed), (None, None))
        if value is None:
            raise AssertionError("internal error: no equivariant seed found")
        if position > c + 1:
            raise AssertionError("internal error: scalar found beyond the counting bound")
        scalar_positions.append(position)
        i = min(orbit)
        for _ in range(l):
            if value in placed:
                raise AssertionError("internal error: orbit collision")
            betas[i] = value
            placed.add(value)
            i = gen_perm(i)
            value = _frob(work, value, 1)
    return tuple(_elem(work, betas[i]) for i in range(1, 6)), work, gen_perm, tuple(scalar_positions)


def points_with_action(base: FieldSpec, group: Subgroup) -> tuple[FFElem, ...]:
    """Five distinct field elements with frobenius(b_i) = b_{g(i)}.

    ``group`` must be cyclic with chosen generator g; the elements live in
    F_{q^N}, N the order of the group.  Orbits are seeded smallest
    first with a canonical element of exact matching degree, scaled by the
    first base scalar avoiding the part already placed; if every scalar of
    one seed collides (possible only when whole orbits are closed under
    base scaling), the next canonical seed is tried.
    """
    return _points_with_action_stats(base, group)[0]


# --- surface models -----------------------------------------------------------

class SurfaceModel(_Record):
    """A realized surface: configuration, Frobenius action, and type."""

    __slots__ = ("degree", "spec", "config", "frobenius_perm", "type_label", "construction",
                 "blowdown_vertex")

    def __init__(self, degree: int, spec: FieldSpec, config: PointConfig, frobenius_perm: Perm,
                 type_label: ClassLabel, construction: str,
                 blowdown_vertex: frozenset[int] | None = None):
        self._set(degree, spec, config, frobenius_perm, type_label, construction, blowdown_vertex)
        if degree not in (5, 6):
            raise ValueError("unsupported degree")
        if construction not in CONSTRUCTION_TAGS:
            raise ValueError(f"unknown construction tag {construction!r}")
        if (blowdown_vertex is not None) != (degree == 6):
            raise ValueError("blow-down vertex is for degree-6 models only")
        if construction.endswith("_blowdown") != (degree == 6):
            raise ValueError(f"construction tag {construction!r} does not match degree {degree}")

    def galois_image(self) -> Subgroup:
        """The image of Frobenius in S5, read from the stored point permutation."""
        return _galois_type(self.frobenius_perm)[0]

    def to_json(self) -> dict:
        data = {
            "degree": self.degree,
            "field": self.spec.literal(),
            "construction": self.construction,
            "points": [p.to_json() for p in self.config.points],
            "on_conic": self.config.on_conic,
            "frobenius": self.frobenius_perm.cycle_string(),
            "type": self.type_label.name,
        }
        if self.blowdown_vertex is not None:
            data["blowdown_vertex"] = sorted(self.blowdown_vertex)
        return data


def _dp5_model(config: PointConfig, construction: str) -> SurfaceModel:
    """The degree-5 model of a configuration, typed by how Frobenius permutes its points."""
    tau = frobenius_permutation(config)
    return SurfaceModel(5, config.spec, config, tau, _galois_type(tau)[1], construction)


def dp5_from_four_points(config: PointConfig) -> SurfaceModel:
    """Degree-5 model from four plane points in general position."""
    if len(config) != 4:
        raise ValueError("the four-point construction needs exactly 4 points")
    if not general_position(config.points):
        raise ValueError("points not in general position: no three of them may be collinear")
    return _dp5_model(config, "fourpoints")


# --- small-field four-point realizations -------------------------------------

# The relative degree of the working field of each small-field type.
_SMALL_FIELD_DEGREES = {"[e]": 1, "[<(1,2)>]": 2, "[<(1,2)(3,4)>]": 2, "[Z/3Z]": 3}


def small_field_realize(base: FieldSpec, label: ClassLabel | str) -> SurfaceModel:
    """Four-point realizations of the types reachable over every field.

    Covers the four cyclic types whose complexity can reach the base field
    size: the trivial type (a frame of rational points), a transposition and
    a double transposition (conjugate quadratic point pairs), and the
    3-cycle type (a cubic conic triple plus one rational point).
    """
    rep = class_representative(label, 5)
    name = _type_labels(rep, 5)[0].name
    if name not in _SMALL_FIELD_DEGREES:
        raise ValueError(f"no small-field construction for type {name}")
    degree = _SMALL_FIELD_DEGREES[name]
    work = make_field(base.p, base.base_degree, degree)
    w = next(elements_of_degree(work, degree))
    o, z, f = one(work), zero(work), frobenius(w)
    rows = {
        "[e]": [(o, z, z), (z, o, z), (z, z, o), (o, o, o)],
        "[<(1,2)>]": [(o, z, z), (z, z, o), (o, w, o), (o, f, o)],
        "[<(1,2)(3,4)>]": [(o, w, z), (o, f, z), (o, z, w), (o, z, f)],
        # A rational point R on the line through P and Frob(P) lies on its
        # Frobenius image, the line through Frob(P) and Frob^2(P), too; the two
        # lines differ (no three conic points are collinear) and meet only in
        # Frob(P), which is not rational.  So every rational point completes
        # the triple, and (0:0:1) is the first in canonical order.
        "[Z/3Z]": [(o, b, b * b) for b in (w, f, frobenius(f))] + [(z, z, o)],
    }[name]
    return dp5_from_four_points(PointConfig(work, tuple(PlanePoint(work, r) for r in rows)))


# --- realization dispatchers ---------------------------------------------------

def realize_dp5(base: FieldSpec, label: ClassLabel | str) -> SurfaceModel:
    """A degree-5 model of the requested type over the given finite field."""
    return _model5(base.p, base.base_degree, class_representative(label, 5))


@lru_cache(maxsize=None)
def _model5(p: int, base_degree: int, rep: Subgroup) -> SurfaceModel:
    """The degree-5 model of a representative, built and checked once per process.

    The construction reads only p and the base degree of the field, so every
    spec of one base field shares the entry; models are immutable, and a
    request that raises leaves no entry.  At most 7 keys (the cyclic types)
    per base field.
    """
    if not rep.is_cyclic:
        raise ValueError("not realizable: H must be cyclic over a finite field")
    base = make_field(p, base_degree, 1)
    requested = _type_labels(rep, 5)[0]
    if base.q > _orbit_plan(rep)[1]:
        betas, _, gen_perm, _ = _points_with_action_stats(base, rep)
        model = _dp5_model(conic_config(betas), "conic5")
        if model.frobenius_perm != gen_perm:
            raise AssertionError("internal error: conic action differs from generator")
    else:
        model = small_field_realize(base, requested)
    if model.type_label != requested:
        raise AssertionError("internal error: constructed type differs from request")
    return model


def realize_dp6(base: FieldSpec, label6: ClassLabel | str) -> SurfaceModel:
    """A degree-6 model: realize in degree 5, then blow down an invariant vertex.

    The degree-6 label is carried through the standard embedding of the
    hexagon symmetry group into S5 (rotations act on {1,2,3}, the central
    flip is the transposition of {4,5}).  The embedding is injective, so a
    non-cyclic type maps to a non-cyclic subgroup of S5, which degree 5 refuses.
    """
    rep6 = class_representative(label6, 6)
    requested, label5 = _type_labels(rep6, 6)
    model5 = realize_dp5(base, label5)
    for vertex, induced in _blowdown_types(model5.galois_image()):
        if induced == requested:
            return SurfaceModel(6, model5.spec, model5.config, model5.frobenius_perm, requested,
                                model5.construction + "_blowdown", vertex)
    raise AssertionError("internal error: no invariant vertex realizes the blow-down type")


# --- JSON round trip and verification -----------------------------------------

_MODEL_KEYS = ("degree", "field", "construction", "points", "on_conic", "frobenius", "type")


def _json_point(spec: FieldSpec, coords) -> PlanePoint:
    """A point exactly as ``PlanePoint.to_json`` writes it: first nonzero coordinate 1."""
    if not isinstance(coords, list) or len(coords) != 3:
        raise ValueError("each point must be a list of three coordinates")
    vs = tuple(_pack_coeffs(spec, c) for c in coords)
    if _normalized(spec, vs) != vs:
        raise ValueError(f"point {coords!r} is not normalized: its first nonzero coordinate must be 1")
    return PlanePoint._from_packed(spec, vs)


def model_from_json(data: dict) -> SurfaceModel:
    """Read back exactly what ``SurfaceModel.to_json`` writes; anything else raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError("a model must be a JSON object")
    for key in data:
        if key not in _MODEL_KEYS and key != "blowdown_vertex":
            raise ValueError(f"unknown key {key!r}")
    for key in _MODEL_KEYS:
        if key not in data:
            raise ValueError(f"missing key {key!r}")
    degree, field, frob = data["degree"], data["field"], data["frobenius"]
    if type(degree) is not int:
        shown = "infinity" if isinstance(degree, float) and isinf(degree) else repr(degree)
        raise ValueError(f"degree must be a JSON integer, not {shown}")
    for key in ("field", "frobenius", "type", "construction"):
        if not isinstance(data[key], str):
            raise ValueError(f"{key} must be a JSON string")
    if not isinstance(data["on_conic"], bool):
        raise ValueError(f"on_conic must be a JSON boolean, not {data['on_conic']!r}")
    spec = parse_field_literal(field)
    if field != spec.literal():
        raise ValueError(f"field must be written {spec.literal()!r}, not {field!r}")
    if not isinstance(data["points"], list):
        raise ValueError("points must be a list")
    if len(data["points"]) > 5:
        raise ValueError(f"a model has at most 5 points, not {len(data['points'])}")
    points = tuple(_json_point(spec, coords) for coords in data["points"])
    perm = parse_perm(frob, degree=len(points))
    if frob != perm.cycle_string():
        raise ValueError(f"frobenius must be written {perm.cycle_string()!r}, not {frob!r}")
    vertex = data.get("blowdown_vertex")
    if "blowdown_vertex" in data:
        if not (isinstance(vertex, list) and all(type(v) is int for v in vertex)
                and vertex == sorted(set(vertex))):
            raise ValueError(f"blowdown_vertex must be a list of increasing integers, not {vertex!r}")
        vertex = frozenset(vertex)
    return SurfaceModel(
        degree=degree,
        spec=spec,
        config=PointConfig(spec, points, on_conic=data["on_conic"]),
        frobenius_perm=perm,
        type_label=ClassLabel(6 if degree == 6 else 5, data["type"]),
        construction=data["construction"],
        blowdown_vertex=vertex,
    )


def verify_json(data: dict) -> list[tuple[str, bool, str]]:
    """Independent re-checks of a serialized model; one (name, ok, detail) per check."""
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str = "") -> bool:
        checks.append((name, ok, "" if ok else detail))
        return ok

    try:
        model = model_from_json(data)
    except (ValueError, KeyError, TypeError, OverflowError) as err:
        check("model parses", False, str(err))
        return checks
    check("model parses", True)

    config, n = model.config, len(model.config)
    check("point count", n in (4, 5), f"{n} points")
    wants_conic = model.construction.startswith("conic5")
    check("construction tag consistent",
          n == (5 if wants_conic else 4) and config.on_conic == wants_conic,
          f"{model.construction!r} with {n} points, on_conic={config.on_conic}")

    try:
        tau = frobenius_permutation(config)
    except ValueError as err:
        stable = check("frobenius stability", False, str(err))
    else:
        stable = check("frobenius stability", True)
        ok = tau == model.frobenius_perm
        # the cycle string is built only for a FAIL
        check("frobenius permutation matches", ok, "" if ok else f"recomputed {tau.cycle_string()}")

    try:
        gp = check("general position", general_position(config.points), "three points collinear")
    except ValueError as err:
        gp = check("general position", False, str(err))

    if config.on_conic:  # model_from_json's PointConfig tested every point
        check("conic membership", True)

    if stable and gp and n in (4, 5):
        image, induced = _galois_type(tau)
        if model.degree == 6:
            induced = dict(_blowdown_types(image)).get(model.blowdown_vertex)
        if model.degree == 5 or check("blow-down vertex invariant", induced is not None,
                                      "vertex moved by the Galois image"):
            check("type matches", induced == model.type_label, f"recomputed {induced.name}")
    return checks
