"""Exact Picard-lattice arithmetic for degree-5 and degree-6 surfaces.

The lattice of a degree-5 surface has basis (H, E1, E2, E3, E4) — the line
class and the four exceptional classes — with intersection form
diag(1,-1,-1,-1,-1) and canonical class K = -3H + E1 + E2 + E3 + E4, so
K.K = 5.  Degree 6 uses (H, E1, E2, E3) and K.K = 6.  The ten (-1)-classes
of degree 5 are the E_i and the line classes H - E_i - E_j; they carry the
Kneser labels E_i -> {i,5}, H - E_i - E_j -> {1,2,3,4} minus {i,j}, which
identifies their intersection graph with the Petersen graph.  The five
conic classes H - E_i and 2H - E1 - E2 - E3 - E4 are a basis of
Pic(X) tensor Q that S5 permutes naturally, so invariant ranks are orbit
counts; the induced lattice action is the independent side of that check.

Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .perms import Perm, Subgroup, _Record, contains_order5, generate, orbits


_RANK = {5: 5, 6: 4}


class PicClass(_Record):
    """An integral divisor class in coordinates over (H, E1, .., E_{9-degree})."""

    __slots__ = ("degree_context", "coords")

    def __init__(self, degree_context: int, coords: tuple[int, ...]):
        self._set(degree_context, coords)
        if degree_context not in _RANK:
            raise ValueError("unsupported degree")
        if len(coords) != _RANK[degree_context]:
            raise ValueError("wrong number of coordinates")

    def __add__(self, other: "PicClass") -> "PicClass":
        if not isinstance(other, PicClass):
            return NotImplemented
        if self.degree_context != other.degree_context:
            raise ValueError("mismatched degree contexts")
        return PicClass(
            self.degree_context,
            tuple(a + b for a, b in zip(self.coords, other.coords)),
        )

    def __sub__(self, other: "PicClass") -> "PicClass":
        if not isinstance(other, PicClass):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "PicClass":
        return PicClass(self.degree_context, tuple(-a for a in self.coords))

    def __rmul__(self, n: int) -> "PicClass":
        if not isinstance(n, int):
            return NotImplemented
        return PicClass(self.degree_context, tuple(n * a for a in self.coords))

    def basis_string(self) -> str:
        names = ["H"] + [f"E{i}" for i in range(1, _RANK[self.degree_context])]
        return ",".join(names)

    def to_json_dict(self) -> dict:
        return {"basis": self.basis_string(), "coords": list(self.coords)}

    def __str__(self) -> str:
        names = ["H"] + [f"E{i}" for i in range(1, _RANK[self.degree_context])]
        terms = []
        for c, name in zip(self.coords, names):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            terms.append(f"{sign}{'' if mag == 1 else mag}{name}")
        return "".join(terms) or "0"


def h_class(degree_context: int) -> PicClass:
    return PicClass(degree_context, (1,) + (0,) * (_RANK[degree_context] - 1))


def e_class(degree_context: int, i: int) -> PicClass:
    n = _RANK[degree_context]
    if not 1 <= i <= n - 1:
        raise ValueError(f"no exceptional class E{i} in degree {degree_context}")
    coords = [0] * n
    coords[i] = 1
    return PicClass(degree_context, tuple(coords))


def canonical_class(degree_context: int) -> PicClass:
    n = _RANK[degree_context]
    return PicClass(degree_context, (-3,) + (1,) * (n - 1))


def intersect(a: PicClass, b: PicClass) -> int:
    """Intersection number under the form diag(1, -1, .., -1)."""
    if a.degree_context != b.degree_context:
        raise ValueError("mismatched degree contexts")
    return a.coords[0] * b.coords[0] - sum(
        x * y for x, y in zip(a.coords[1:], b.coords[1:])
    )


@lru_cache(maxsize=None)
def minus_one_classes(
    degree_context: int,
) -> tuple[tuple[PicClass, frozenset[int]], ...]:
    """The (-1)-classes with their Kneser labels, in graph vertex order."""
    from .curvegraphs import curve_graph

    n_exc = _RANK[degree_context] - 1
    by_label: dict[frozenset[int], PicClass] = {}
    for i in range(1, n_exc + 1):
        by_label[frozenset({i, 5})] = e_class(degree_context, i)
    for i, j in itertools.combinations(range(1, n_exc + 1), 2):
        cls = h_class(degree_context) - e_class(degree_context, i) - e_class(
            degree_context, j
        )
        if degree_context == 5:
            label = frozenset({1, 2, 3, 4}) - {i, j}
        else:
            (k,) = set({1, 2, 3}) - {i, j}
            label = frozenset({k, 4})
        by_label[label] = cls
    return tuple(
        (by_label[v], v) for v in curve_graph(degree_context).vertices
    )


def conic_classes() -> tuple[PicClass, ...]:
    """The five degree-5 conic classes: H - E_i and 2H - E1 - E2 - E3 - E4."""
    h = h_class(5)
    out = [h - e_class(5, i) for i in range(1, 5)]
    out.append(2 * h - e_class(5, 1) - e_class(5, 2) - e_class(5, 3) - e_class(5, 4))
    return tuple(out)


class LatticeAction(_Record):
    """An isometry of the degree-5 lattice fixing K, as an integer matrix.

    ``matrix`` is a tuple of rows; it acts on coordinate columns.
    """

    __slots__ = ("degree_context", "matrix")

    def __init__(self, degree_context: int, matrix: tuple[tuple[int, ...], ...]):
        self._set(degree_context, matrix)
        n = _RANK[degree_context]
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError("wrong matrix shape")
        sig = [1] + [-1] * (n - 1)
        m = matrix
        for i in range(n):  # M^T diag M == diag
            for j in range(n):
                val = sum(sig[k] * m[k][i] * m[k][j] for k in range(n))
                if val != (sig[i] if i == j else 0):
                    raise ValueError("matrix does not preserve the intersection form")
        k = canonical_class(self.degree_context)
        if self.apply(k) != k:
            raise ValueError("matrix does not fix the canonical class")

    def apply(self, cls: PicClass) -> PicClass:
        if cls.degree_context != self.degree_context:
            raise ValueError("mismatched degree contexts")
        return PicClass(
            self.degree_context,
            tuple(
                sum(row[j] * cls.coords[j] for j in range(len(row)))
                for row in self.matrix
            ),
        )


@lru_cache(maxsize=None)
def induced_lattice_action(sigma: Perm) -> LatticeAction:
    """The lattice isometry induced by an S5 relabeling of the (-1)-curves.

    Columns are the images of H, E1..E4; the image of E_i is the class
    labeled sigma({i,5}), and H = (H-E1-E2) + E1 + E2 maps to the sum of the
    classes labeled sigma({3,4}), sigma({1,5}), sigma({2,5}).
    """
    if sigma.degree != 5:
        raise ValueError("expected an element of S5")
    by_label = {label: cls for cls, label in minus_one_classes(5)}  # all ten 2-subsets
    cols = []
    h_img = (
        by_label[sigma.apply_set({3, 4})]
        + by_label[sigma.apply_set({1, 5})]
        + by_label[sigma.apply_set({2, 5})]
    )
    cols.append(h_img.coords)
    for i in range(1, 5):
        cols.append(by_label[sigma.apply_set({i, 5})].coords)
    matrix = tuple(tuple(cols[j][i] for j in range(5)) for i in range(5))
    return LatticeAction(5, matrix)


def invariant_rank(group: Subgroup) -> int:
    """Rank of the part of Pic(X) fixed by a subgroup of S5: its orbit count.

    The conic classes are a basis of Pic(X) tensor Q that S5 permutes as it
    permutes 1..5, and a permutation module has one fixed dimension per orbit.
    """
    if group.degree != 5:
        raise ValueError("expected a subgroup of S5")
    return len(orbits(group))


def is_g_minimal(group: Subgroup, galois_image: Subgroup) -> bool:
    """Is a surface with the given Galois image minimal under the given G?

    G must commute with the Galois image elementwise (it acts by
    automorphisms of the surface); the surface is G-minimal iff the joint
    group moves every conic class off itself, i.e. the joint fixed part of
    the lattice has rank 1 — which happens exactly when the joint group
    contains an element of order 5.
    """
    for g in group.generators:
        for s in galois_image.generators:
            if g * s != s * g:
                raise ValueError("G must centralize the Galois image")
    delta = generate(
        tuple(group.generators) + tuple(galois_image.generators), degree=5
    )
    return contains_order5(delta)
