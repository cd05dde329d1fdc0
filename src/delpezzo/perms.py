"""Permutation arithmetic and subgroup classification.

Two ambient symmetry groups drive everything in this library:

* degree 5: the symmetric group S5, permuting the indices 1..5 that label
  the defining data of a degree-5 surface (four blown-up points plus the
  contracted conic, or equivalently the Kneser labels of the ten
  (-1)-curves);
* degree 6: the symmetry group of the hexagon of (-1)-curves on a degree-6
  surface, abstractly S3 x Z/2Z of order 12, realized here as permutations
  of the six hexagon vertices.

A *type* is a conjugacy class of subgroups of the ambient group; each class
carries a fixed ASCII label such as "[<(1,2)>]" or "[Z/6]".  Degree 5 has
19 classes, degree 6 has 10.

Conventions:

* points are 1-indexed in all input/output and cycle notation; internal
  storage is a 0-indexed image tuple;
* ``a * b`` means "apply ``b`` first, then ``a``" (function composition);
* cycle notation looks like ``"(1 2)(3 4)"``; the identity prints as
  ``"()"``; ``"(1,2)"`` with commas is accepted on input;
* canonical order on permutations of equal degree is lexicographic on the
  image tuple, and every enumeration in this module follows it.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from functools import lru_cache
from math import lcm
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence


class _Record:
    """A frozen value whose fields are the ``__slots__`` of its class.

    ``__init__`` sets every field once, with one ``_set`` call, as
    ``_unchecked`` does for fields already checked; equality and
    hash run over the value tuple, as those of a frozen dataclass do, and repr
    over every field.  The value is every field, or the fields a class lists
    in ``_value`` (a ``Subgroup`` is its degree and elements, not the
    generators that name it).  It has at least two fields, so ``_fields``
    gives a tuple.  ``Perm``'s own ``__eq__`` and ``__hash__`` take half as long
    (check-paper calls each over 10 000 times); ``fields.FFElem`` hashes its int.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*getattr(cls, "_value", cls.__slots__))  # the value tuple
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, past the guard below."""
        for setter, value in zip(self._setters, values):
            setter(self, value)

    @classmethod
    def _unchecked(cls, *values):
        """The value with these fields, in ``__slots__`` order, built past ``__init__``:
        the caller vouches that they are what ``__init__`` would have set."""
        value = object.__new__(cls)
        value._set(*values)
        return value

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == other._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class Perm(_Record):
    """A permutation of {1, .., degree}, stored as a 0-indexed image tuple."""

    __slots__ = ("degree", "images")

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images is not a bijection")
        self._set(len(images), images)

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

    def __call__(self, point: int) -> int:
        """Image of a 1-indexed point."""
        if not 1 <= point <= self.degree:
            raise ValueError(f"point {point} out of range 1..{self.degree}")
        return self.images[point - 1] + 1

    def apply_set(self, points: Iterable[int]) -> frozenset[int]:
        return frozenset(self(p) for p in points)

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        images = self.images
        return Perm._unchecked(self.degree, tuple([images[j] for j in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv)

    def order(self) -> int:
        """The lcm of the cycle lengths."""
        return _order(self.images)

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, 1-indexed, each starting at its smallest point."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            p = self(start)
            while p != start:
                cyc.append(p)
                seen.add(p)
                p = self(p)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in cyc) + ")" for cyc in cycs)

    # not _Record's, which take about twice as long; check-paper calls each over 10 000 times
    def __eq__(self, other) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        if not isinstance(other, Perm):
            return NotImplemented
        return (self.degree, self.images) < (other.degree, other.images)

    def __repr__(self) -> str:
        return f"Perm[{self.cycle_string()}]"


@lru_cache(maxsize=4096)
def _order(images: tuple[int, ...]) -> int:
    """The lcm of the cycle lengths of an image tuple, walked once per tuple."""
    return lcm(*map(len, Perm._unchecked(len(images), images).cycles()))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_POINT_RE = re.compile(r"[0-9]+")
_SEPARATOR_RE = re.compile(r"[,\s]+", re.ASCII)
_BLANK_RE = re.compile(r"\s*", re.ASCII)
# Below 640, the lowest limit sys.set_int_max_str_digits accepts for int().
_MAX_DIGITS = 600


def parse_perm(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(1 2)(3 4)" or "(1,2)" (ASCII only); "()" is the identity."""
    stripped = _CYCLE_RE.sub("", text)
    if not _BLANK_RE.fullmatch(stripped):
        raise ValueError(f"cannot parse permutation {text!r}")
    images = list(range(degree))
    for body in reversed(_CYCLE_RE.findall(text)):
        toks = [tok for tok in _SEPARATOR_RE.split(body) if tok]
        if not all(_POINT_RE.fullmatch(tok) for tok in toks):
            raise ValueError(f"cannot parse permutation {text!r}")
        if any(len(tok) > _MAX_DIGITS for tok in toks):
            raise ValueError(f"a point in a permutation has more than {_MAX_DIGITS} digits")
        pts = [int(tok) for tok in toks]
        if not pts:
            continue
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {body!r}")
        if any(not 1 <= p <= degree for p in pts):
            raise ValueError(f"point out of range 1..{degree} in {text!r}")
        post = list(images)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            post[a - 1] = images[b - 1]
        images = post
    return Perm(images)


def parse_generators(text: str, degree: int) -> tuple[Perm, ...]:
    """Parse a ';'-separated list of permutations in cycle notation."""
    parts = [part for part in text.split(";") if not _BLANK_RE.fullmatch(part)]
    return tuple(parse_perm(part, degree) for part in parts)


class ClassLabel(_Record):
    """Canonical name of a conjugacy class of subgroups, e.g. "[<(1,2)>]"."""

    __slots__ = ("degree_context", "name")

    def __init__(self, degree_context: int, name: str):
        self._set(degree_context, name)

    def __str__(self) -> str:
        return self.name


class Subgroup(_Record):
    """An explicit subgroup: generators plus the full, canonically sorted closure."""

    __slots__ = ("degree", "generators", "elements", "_members")
    _value = ("degree", "elements")

    def __init__(self, degree: int, generators: Sequence[Perm], elements: Sequence[Perm]):
        elements = tuple(sorted(elements, key=attrgetter("images")))
        self._set(degree, tuple(generators), elements, frozenset(elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in self._members

    def __le__(self, other: "Subgroup") -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self._members <= other._members

    @property
    def is_cyclic(self) -> bool:
        return any(g.order() == self.order for g in self.elements)

    def __repr__(self) -> str:
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"Subgroup<{gens}> of order {self.order}"


def generate(gens: Iterable[Perm], degree: int | None = None) -> Subgroup:
    """Closure of a set of permutations under composition."""
    gens = tuple(gens)
    if degree is None:
        if not gens:
            raise ValueError("degree is required for an empty generating set")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("degree mismatch")
    closure = _closure([g.images for g in gens], degree)
    return Subgroup(degree, gens, [Perm._unchecked(degree, images) for images in closure])


def _closure(gens: Sequence[tuple[int, ...]], degree: int) -> list[tuple[int, ...]]:
    """Image tuples of the group generated by the given image tuples."""
    found = [tuple(range(degree))]
    seen = set(found)
    for a in found:  # grows while it is walked
        for g in gens:
            c = tuple([a[j] for j in g])
            if c not in seen:
                seen.add(c)
                found.append(c)
    return found


def orbits(group: Subgroup) -> tuple[tuple[int, ...], ...]:
    """Orbits on {1, .., degree}, each sorted, ordered by smallest member."""
    return _orbits(group.generators, group.degree)


def _orbits(gens: Sequence[Callable[[int], int]], degree: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of 1-indexed maps on {1, .., degree}, as in orbits()."""
    remaining = set(range(1, degree + 1))
    out = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        frontier = [start]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = g(p)
                if q not in orbit:
                    orbit.add(q)
                    frontier.append(q)
        remaining -= orbit
        out.append(tuple(sorted(orbit)))
    return tuple(out)


def complexity(group: Subgroup) -> int:
    """Largest number of orbits sharing one length (5 iff trivial in degree 5)."""
    lengths = [len(o) for o in orbits(group)]
    return max(lengths.count(n) for n in set(lengths))


def contains_order5(group: Subgroup) -> bool:
    return any(g.order() == 5 for g in group.elements)


def cyclic_generator(group: Subgroup) -> Perm:
    """First element (canonical order) generating the whole subgroup."""
    for g in group.elements:
        if g.order() == group.order:
            return g
    raise ValueError("subgroup is not cyclic")


@lru_cache(maxsize=None)
def symmetric_group_elements(degree: int) -> tuple[Perm, ...]:
    return tuple(Perm(images) for images in itertools.permutations(range(degree)))


def centralizer(group: Subgroup) -> Subgroup:
    """Centralizer in S5 (the automorphism group of a surface of that type)."""
    if group.degree != 5:
        raise ValueError("centralizer is taken inside S5; expected degree 5")
    elems = symmetric_group_elements(5)
    for g in (h.images for h in group.generators):  # keep the s with s * g == g * s
        elems = [s for s in elems if [s.images[j] for j in g] == [g[j] for j in s.images]]
    return Subgroup(5, _reduced_generators(elems, 5), elems)


def _reduced_generators(elements: Sequence[Perm], degree: int) -> tuple[Perm, ...]:
    """Small deterministic generating set drawn from a full element list.

    The greedy takes, in the list's order (which must be canonical), each
    element not yet generated by the ones taken before.  It names the
    generators of every Subgroup built from a full element list: centralizers,
    vertex stabilizers, the lattice.
    """
    gens: list[Perm] = []
    have = {tuple(range(degree))}
    for g in elements:
        if g.images not in have:
            gens.append(g)
            have = set(_closure([h.images for h in gens], degree))
            if len(have) == len(elements):
                break
    return tuple(gens)


# --- the hexagon symmetry group (degree-6 ambient) -------------------------
#
# Hexagon vertices carry the labels {i,4}, {i,5} (i = 1,2,3) inherited from
# the degree-5 Kneser labeling, listed in cycle order.  The symmetry group is
# the stabilizer of the vertex {4,5} in S5, restricted to these six vertices:
# its S3 factor permutes {1,2,3}; its Z/2Z factor swaps 4 <-> 5, which acts
# on the hexagon as the central (antipodal) symmetry.

HEX_VERTEX_LABELS: tuple[frozenset[int], ...] = (
    frozenset({1, 4}),
    frozenset({2, 5}),
    frozenset({3, 4}),
    frozenset({1, 5}),
    frozenset({2, 4}),
    frozenset({3, 5}),
)


def hexagon_restriction(sigma: Perm) -> Perm:
    """Restrict a {4,5}-stabilizing S5 element to the hexagon vertices."""
    if sigma.apply_set({4, 5}) != frozenset({4, 5}):
        raise ValueError("not in stabilizer")
    return Perm(HEX_VERTEX_LABELS.index(sigma.apply_set(v)) for v in HEX_VERTEX_LABELS)


def hex_embed_s5(s: Perm, eps: int) -> Perm:
    """The pair (s, eps) as an element of S5: s on {1,2,3} times (4 5)^eps."""
    if s.degree != 3:
        raise ValueError("the S3 factor must be a permutation of degree 3")
    if eps not in (0, 1):
        raise ValueError("eps must be 0 or 1")
    images = list(s.images) + ([4, 3] if eps else [3, 4])
    return Perm(images)


def hex_element(s: Perm, eps: int) -> Perm:
    """The hexagon vertex permutation of the pair (s, eps), s in S3, eps in {0,1}."""
    return hexagon_restriction(hex_embed_s5(s, eps))


@lru_cache(maxsize=None)
def _hexagon_pairs() -> dict[Perm, tuple[Perm, int]]:
    """Each of the 12 symmetries of the hexagon with its pair (s, eps)."""
    return {hex_element(s, eps): (s, eps) for s in symmetric_group_elements(3) for eps in (0, 1)}


def hex_decompose(g: Perm) -> tuple[Perm, int]:
    """Inverse of hex_element; raises for non-symmetries of the hexagon."""
    if g.degree != 6:
        raise ValueError("expected a vertex permutation of degree 6")
    pair = _hexagon_pairs().get(g)
    if pair is None:
        raise ValueError("not a symmetry of the hexagon")
    return pair


@lru_cache(maxsize=None)
def hexagon_group_elements() -> tuple[Perm, ...]:
    """All 12 symmetries of the hexagon, canonically sorted."""
    return tuple(sorted(_hexagon_pairs(), key=attrgetter("images")))


# --- conjugacy classes of subgroups -----------------------------------------
#
# A class is named by its census: the multiset of ambient conjugacy classes
# of its elements.  An element's class is its cycle type in S5, and the pair
# (cycle type of s, eps) for (s, eps) in the hexagon group S3 x Z/2Z.  The
# census separates the 19 classes of S5 and the 10 of the hexagon group, so
# naming a class reads two cached tables (element -> class, census -> pinned
# name) and never enumerates subgroups; tests/reference_perms.py checks every
# label against a brute-force smallest-conjugate oracle.


_REP_GENS_5: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("[e]", ()),
    ("[<(1,2)>]", ("(1 2)",)),
    ("[<(1,2)(3,4)>]", ("(1 2)(3 4)",)),
    ("[<(1,2),(3,4)>]", ("(1 2)", "(3 4)")),
    ("[<(1,2)(3,4),(1,3)(2,4)>]", ("(1 2)(3 4)", "(1 3)(2 4)")),
    ("[Z/3Z]", ("(1 2 3)",)),
    ("[Z/4Z]", ("(1 2 3 4)",)),
    ("[Z/5Z]", ("(1 2 3 4 5)",)),
    ("[Z/6Z]", ("(1 2 3)(4 5)",)),
    ("[D4]", ("(1 2 3 4)", "(1 3)")),
    ("[D5]", ("(1 2 3 4 5)", "(2 5)(3 4)")),
    ("[<(1,2,3),(1,2)>]", ("(1 2 3)", "(1 2)")),
    ("[<(1,2,3),(1,2)(4,5)>]", ("(1 2 3)", "(1 2)(4 5)")),
    ("[S3xZ/2Z]", ("(1 2 3)", "(1 2)", "(4 5)")),
    ("[A4]", ("(1 2 3)", "(1 2)(3 4)")),
    ("[A5]", ("(1 2 3)", "(3 4 5)")),
    ("[S4]", ("(1 2 3 4)", "(1 2)")),
    ("[S5]", ("(1 2 3 4 5)", "(1 2)")),
    ("[GA(1,5)]", ("(1 2 3 4 5)", "(2 3 5 4)")),
)

_REP_GENS_6: tuple[tuple[str, tuple[tuple[str, int], ...]], ...] = (
    ("[e]", ()),
    ("[<((1,2),0)>]", (("(1 2)", 0),)),
    ("[<((1,2),1)>]", (("(1 2)", 1),)),
    ("[<(id,1)>]", (("()", 1),)),
    ("[Z/2xZ/2]", (("(1 2)", 0), ("()", 1))),
    ("[Z/3]", (("(1 2 3)", 0),)),
    ("[Z/6]", (("(1 2 3)", 0), ("()", 1))),
    ("[<((1,2,3),0),((1,2),0)>]", (("(1 2 3)", 0), ("(1 2)", 0))),
    ("[<((1,2,3),0),((1,2),1)>]", (("(1 2 3)", 0), ("(1 2)", 1))),
    ("[S3xZ/2]", (("(1 2 3)", 0), ("(1 2)", 0), ("()", 1))),
)


def _cycle_type(g: Perm) -> tuple[int, ...]:
    return tuple(sorted(len(cyc) for cyc in g.cycles()))


def _census(elements: Iterable[Perm], classes: dict[Perm, tuple]) -> frozenset:
    """The multiset of element classes; an element outside the group counts as None."""
    return frozenset(Counter(map(classes.get, elements)).items())


@lru_cache(maxsize=None)
def _pinned_classes(
    degree_context: int,
) -> tuple[dict[str, Subgroup], dict[frozenset, str], dict[Perm, tuple]]:
    """The pinned representatives by name, in listing order, names by census, and
    each element of the ambient group with its conjugacy class."""
    if degree_context == 5:
        gens = {name: [parse_perm(t, 5) for t in ts] for name, ts in _REP_GENS_5}
        classes = {g: _cycle_type(g) for g in symmetric_group_elements(5)}
    elif degree_context == 6:
        gens = {name: [hex_element(parse_perm(t, 3), e) for t, e in ts] for name, ts in _REP_GENS_6}
        classes = {g: (_cycle_type(s), eps) for g, (s, eps) in _hexagon_pairs().items()}
    else:
        raise ValueError("unsupported degree")
    reps = {name: generate(g, degree_context) for name, g in gens.items()}
    names = {_census(rep.elements, classes): name for name, rep in reps.items()}
    if len(names) != len(reps):
        raise RuntimeError("two pinned representatives are conjugate")
    return reps, names, classes


def class_names(degree_context: int) -> tuple[str, ...]:
    return tuple(_pinned_classes(degree_context)[0])


def subgroup_classes(degree_context: int) -> tuple[tuple[ClassLabel, Subgroup], ...]:
    """All conjugacy classes of subgroups with their canonical representatives.

    Degree 5 yields the 19 classes of subgroups of S5; degree 6 the 10
    classes of subgroups of the hexagon symmetry group, both in their
    canonical listing order.
    """
    return tuple(
        (ClassLabel(degree_context, name), rep)
        for name, rep in _pinned_classes(degree_context)[0].items()
    )


def class_label(group: Subgroup, degree_context: int) -> ClassLabel:
    """The canonical label of the conjugacy class of a subgroup."""
    _, names, classes = _pinned_classes(degree_context)
    name = names.get(_census(group.elements, classes))
    if name is None:
        raise ValueError("not a subgroup of the ambient group")
    return ClassLabel(degree_context, name)


def class_representative(label: ClassLabel | str, degree_context: int | None = None) -> Subgroup:
    """Representative subgroup of a class given by label (or label name)."""
    if isinstance(label, ClassLabel):
        degree_context = label.degree_context
        name = label.name
    else:
        name = label
        if degree_context is None:
            raise ValueError("degree_context is required with a string label")
    rep = _pinned_classes(degree_context)[0].get(name)
    if rep is None:
        raise ValueError(f"unknown class label {name!r} for degree {degree_context}")
    return rep


# --- subgroup lattice of the ambient group ----------------------------------
#
# Only all_subgroups enumerates, and caches the lattice per ambient group.  A
# subgroup is closed as its set of image tuples under conjugation by each
# ambient generator, sorted by order and then by its sorted image tuples, and
# named by _reduced_generators; Perms are made only for the Subgroups built.
#
# The lattice is the closure of the pinned representatives under conjugation,
# and it holds every subgroup:
# 1. _pinned_classes rejects two conjugate representatives;
# 2. their conjugates number 156 in degree 5 and 16 in degree 6, which
#    selfcheck.check_class_census pins, and distinct classes that add up to
#    the whole count cover every class;
# 3. tests/reference_perms.py::subgroups_by_pairs recomputes them by brute force.

def _Lattice(degree_context: int) -> tuple[Subgroup, ...]:
    """The subgroup lattice, built uncached; ``all_subgroups`` looks it up at call time."""
    reps = _pinned_classes(degree_context)[0].values()  # ValueError for other degrees
    ambient = symmetric_group_elements(5) if degree_context == 5 else hexagon_group_elements()
    pairs = [(g.images, g.inverse().images) for g in _reduced_generators(ambient, degree_context)]
    found = [frozenset(h.images for h in rep.elements) for rep in reps]
    seen = set(found)
    for elements in found:  # grows while it is walked
        for g, g_inv in pairs:
            c = frozenset(tuple([g[h[j]] for j in g_inv]) for h in elements)  # g * h * g^-1
            if c not in seen:
                seen.add(c)
                found.append(c)
    members = ([Perm._unchecked(degree_context, h) for h in s]
               for s in sorted(sorted(map(sorted, found)), key=len))
    return tuple(Subgroup(degree_context, _reduced_generators(e, degree_context), e) for e in members)


@lru_cache(maxsize=None)
def all_subgroups(degree_context: int) -> tuple[Subgroup, ...]:
    """Every subgroup of the ambient group (156 for degree 5, 16 for degree 6)."""
    return _Lattice(degree_context)
