"""Exact finite-field arithmetic with deterministic towers.

A field F_{p^m} is represented as F_p[x]/(f) where f is the canonical
modulus: the lexicographically smallest monic irreducible of degree m over
F_p, "smallest" meaning the smallest integer index sum(c_i * p^i) over the
non-leading coefficients.  (For example F_4 gets x^2+x+1, F_9 gets x^2+1,
F_8 gets x^3+x+1.)  Elements are little-endian coefficient tuples.

Every field carries a marked base degree e | m: a ``FieldSpec`` describes
the extension F_{q^n} / F_q with q = p^e and n = m/e, and ``frobenius`` is the
*relative* Frobenius x -> x^q generating Gal(F_{q^n}/F_q).  All orbit
arithmetic happens inside this one common field; base-field membership is
"fixed by frobenius".

No randomness and no floating point: irreducibility is tested with
gcd(f, x^(p^k) - x) for k <= m/2, and Frobenius maps are applied through
cached F_p-linear matrices, so repeated orbit scans stay cheap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator


# --- polynomials over F_p as normalized little-endian int tuples -----------

def _pnorm(a: tuple[int, ...]) -> tuple[int, ...]:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _padd(a, b, p):
    n = max(len(a), len(b))
    return _pnorm(tuple(((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)))


def _psub(a, b, p):
    n = max(len(a), len(b))
    return _pnorm(tuple(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)))


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _pnorm(tuple(c % p for c in out))


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = pow(b[-1], -1, p)
    rem = list(a)
    deg_b = len(b) - 1
    quo = [0] * max(len(a) - deg_b, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = rem[i + deg_b] % p
        if c:
            c = (c * inv_lead) % p
            quo[i] = c
            for j, bj in enumerate(b):
                rem[i + j] = (rem[i + j] - c * bj) % p
    return _pnorm(tuple(quo)), _pnorm(tuple(rem))


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple((c * inv) % p for c in a)
    return a


def _ppowmod(a, e, mod, p):
    result = (1,)
    base = _pmod(a, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        base = _pmod(_pmul(base, base, p), mod, p)
        e >>= 1
    return result


def _pinv(a, mod, p):
    """Inverse of a modulo mod via extended Euclid."""
    if not a:
        raise ZeroDivisionError("inverse of zero")
    r0, r1 = mod, a
    s0, s1 = (), (1,)
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    inv_lead = pow(r0[-1], -1, p)
    return _pnorm(tuple((c * inv_lead) % p for c in s0))


@lru_cache(maxsize=256)
def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """No root in any F_{p^k} for k <= deg(f)/2, via gcd with x^(p^k) - x.

    Cached, so the FieldSpec that make_field builds from the modulus its
    search has just accepted does not repeat the proof.
    """
    m = len(f) - 1
    if m < 1:
        return False
    if m == 1:
        return True
    x = (0, 1)
    t = x
    for _ in range(m // 2):
        t = _ppowmod(t, p, f, p)
        g = _pgcd(f, _psub(t, x, p), p)
        if len(g) > 1:
            return False
    return True


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# --- field descriptors and elements ------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """F_{p^m} = F_p[x]/(modulus), marked as an extension of F_{p^base_degree}."""

    p: int
    m: int
    modulus: tuple[int, ...]
    base_degree: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError("p is not prime")
        if self.m < 1 or self.base_degree < 1 or self.m % self.base_degree:
            raise ValueError("base degree must divide the absolute degree")
        if len(self.modulus) != self.m + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of the right degree")
        if any(not 0 <= c < self.p for c in self.modulus):
            raise ValueError("modulus coefficients out of range")
        if not _is_irreducible(self.modulus, self.p):
            raise ValueError("modulus is reducible")

    @property
    def q(self) -> int:
        """Size of the marked base field."""
        return self.p ** self.base_degree

    @property
    def n(self) -> int:
        """Relative degree over the base field."""
        return self.m // self.base_degree

    @property
    def size(self) -> int:
        return self.p ** self.m

    def literal(self) -> str:
        return f"{self.p}^{self.m}:base={self.base_degree}"

    def __repr__(self) -> str:
        return f"FieldSpec({self.literal()})"


@lru_cache(maxsize=None)
def make_field(p: int, base_degree: int, relative_degree: int) -> FieldSpec:
    """The canonical F_{q^n} over F_q, q = p^base_degree, n = relative_degree."""
    if not _is_prime(p):
        raise ValueError("p is not prime")
    if base_degree < 1 or relative_degree < 1:
        raise ValueError("degrees must be positive")
    m = base_degree * relative_degree
    for t in range(p ** m):
        digits = []
        rest = t
        for _ in range(m):
            digits.append(rest % p)
            rest //= p
        f = tuple(digits) + (1,)
        if _is_irreducible(f, p):
            return FieldSpec(p, m, f, base_degree)
    raise RuntimeError("unreachable: an irreducible of every degree exists")


# Literal ceilings, checked before any field is built.  No working field needs
# a relative degree above 6, the largest lcm of Frobenius orbit lengths.
MAX_CHARACTERISTIC = 2 ** 16
MAX_BASE_FIELD = 2 ** 40
MAX_RELATIVE_DEGREE = 6


def parse_field_literal(text: str) -> FieldSpec:
    """Parse "p^m:base=e" (or "p^e" / "p" for a base field) below the ceilings."""
    base = 1
    if ":" in text:
        head, _, tail = text.partition(":")
        if not tail.startswith("base="):
            raise ValueError(f"cannot parse field literal {text!r}")
        base = int(tail[5:])
    else:
        head = text
    if "^" in head:
        p_text, _, m_text = head.partition("^")
        p, m = int(p_text), int(m_text)
    else:
        p, m = int(head), 1
    if ":" not in text and "^" in head:
        # "p^e" alone denotes the base field F_{p^e}
        base = m
    if m < 1 or base < 1:
        raise ValueError(f"exponent and base degree must be at least 1 in {text!r}")
    if m % base:
        raise ValueError("base degree must divide the absolute degree")
    if p >= MAX_CHARACTERISTIC:
        raise ValueError(f"characteristic must be below 2^16 in {text!r}")
    if base > 40 or p ** base > MAX_BASE_FIELD:
        raise ValueError(f"base field must have at most 2^40 elements in {text!r}")
    if m // base > MAX_RELATIVE_DEGREE:
        raise ValueError(f"relative degree must be at most 6 in {text!r}")
    return make_field(p, base, m // base)


@dataclass(frozen=True)
class FFElem:
    """An element of a FieldSpec field: a little-endian coefficient tuple."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        norm = _pnorm(tuple(c % self.spec.p for c in self.coeffs))
        if len(norm) > self.spec.m:
            norm = _pmod(norm, self.spec.modulus, self.spec.p)
        object.__setattr__(self, "coeffs", norm)

    def _check(self, other: "FFElem"):
        if self.spec != other.spec:
            raise ValueError("elements of different fields")

    def __add__(self, other: "FFElem") -> "FFElem":
        self._check(other)
        return FFElem(self.spec, _padd(self.coeffs, other.coeffs, self.spec.p))

    def __sub__(self, other: "FFElem") -> "FFElem":
        self._check(other)
        return FFElem(self.spec, _psub(self.coeffs, other.coeffs, self.spec.p))

    def __neg__(self) -> "FFElem":
        return FFElem(self.spec, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "FFElem") -> "FFElem":
        self._check(other)
        return FFElem(
            self.spec,
            _pmod(_pmul(self.coeffs, other.coeffs, self.spec.p),
                  self.spec.modulus, self.spec.p),
        )

    def __truediv__(self, other: "FFElem") -> "FFElem":
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "FFElem":
        return FFElem(
            self.spec, _pinv(self.coeffs, self.spec.modulus, self.spec.p)
        )

    def __pow__(self, e: int) -> "FFElem":
        if e < 0:
            return self.inverse() ** (-e)
        return FFElem(
            self.spec, _ppowmod(self.coeffs, e, self.spec.modulus, self.spec.p)
        )

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def index(self) -> int:
        """Position in the canonical enumeration: sum(c_i * p^i)."""
        return sum(c * self.spec.p ** i for i, c in enumerate(self.coeffs))

    def padded(self) -> tuple[int, ...]:
        return self.coeffs + (0,) * (self.spec.m - len(self.coeffs))

    def __repr__(self) -> str:
        return f"FFElem({self.spec.literal()}, {list(self.coeffs)})"


def zero(spec: FieldSpec) -> FFElem:
    return FFElem(spec, ())


def one(spec: FieldSpec) -> FFElem:
    return FFElem(spec, (1,))


def gen(spec: FieldSpec) -> FFElem:
    """The residue class of x."""
    return FFElem(spec, (0, 1))


def from_int(spec: FieldSpec, value: int) -> FFElem:
    """The prime-field element value mod p."""
    return FFElem(spec, (value % spec.p,))


def from_index(spec: FieldSpec, t: int) -> FFElem:
    digits = []
    while t:
        digits.append(t % spec.p)
        t //= spec.p
    return FFElem(spec, tuple(digits))


def field_elements(spec: FieldSpec) -> Iterator[FFElem]:
    """All p^m elements in canonical (index) order."""
    for t in range(spec.size):
        yield from_index(spec, t)


# --- Frobenius as a cached F_p-linear map -----------------------------------

@lru_cache(maxsize=None)
def _frob_matrix(spec: FieldSpec, power: int = 1) -> tuple[tuple[int, ...], ...]:
    """Matrix of x -> x^(q^power) over F_p in the basis 1, x, .., x^(m-1)."""
    p, m, f = spec.p, spec.m, spec.modulus
    if power == 0:
        return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
    if power > 1:
        a = _frob_matrix(spec, power - 1)
        b = _frob_matrix(spec, 1)
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(m)) % p for j in range(m))
            for i in range(m)
        )
    xq = _ppowmod((0, 1), spec.q, f, p)
    cols = [(1,)]
    for _ in range(m - 1):
        cols.append(_pmod(_pmul(cols[-1], xq, p), f, p))
    return tuple(
        tuple(cols[j][i] if i < len(cols[j]) else 0 for j in range(m))
        for i in range(m)
    )


def _matvec(matrix, vec, p):
    return tuple(sum(row[j] * vec[j] for j in range(len(vec))) % p for row in matrix)


def frobenius(x: FFElem, power: int = 1) -> FFElem:
    """The relative Frobenius x -> x^q (optionally iterated)."""
    power %= x.spec.n
    m = _frob_matrix(x.spec, power)
    return FFElem(x.spec, _matvec(m, x.padded(), x.spec.p))


def in_base_field(x: FFElem) -> bool:
    return frobenius(x) == x


def frobenius_orbit(x: FFElem) -> tuple[FFElem, ...]:
    """x, x^q, x^(q^2), ... up to (but not including) the first repeat."""
    out = [x]
    y = frobenius(x)
    while y != x:
        out.append(y)
        y = frobenius(y)
    return tuple(out)


def element_degree(x: FFElem) -> int:
    """Degree of x over the base field = its Frobenius orbit size."""
    n = x.spec.n
    vec = x.padded()
    for k in sorted(d for d in range(1, n + 1) if n % d == 0):
        if _matvec(_frob_matrix(x.spec, k), vec, x.spec.p) == vec:
            return k
    raise AssertionError("orbit size must divide the relative degree")


def _nullspace_mod(matrix, p):
    """Basis of the kernel of an m x m matrix over F_p (Gauss-Jordan)."""
    m = len(matrix)
    rows = [list(r) for r in matrix]
    pivots = {}
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, m) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c] % p, -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] % p:
                factor = rows[i][c] % p
                rows[i] = [(a - factor * b) % p for a, b in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    free_cols = [c for c in range(m) if c not in pivots]
    for fc in free_cols:
        vec = [0] * m
        vec[fc] = 1
        for c, pr in pivots.items():
            vec[c] = (-rows[pr][fc]) % p
        basis.append(tuple(vec))
    return basis


@lru_cache(maxsize=None)
def _subfield_basis(spec: FieldSpec, l: int) -> tuple[tuple[int, ...], ...]:
    """Kernel basis of frobenius^l - 1, last free column first."""
    p, m = spec.p, spec.m
    frob_l = _frob_matrix(spec, l % spec.n)
    delta = tuple(
        tuple((frob_l[i][j] - (1 if i == j else 0)) % p for j in range(m))
        for i in range(m)
    )
    return tuple(_nullspace_mod(delta, p)[::-1])  # product() varies its last digit fastest


def _subfield_vectors(spec: FieldSpec, l: int) -> Iterator[tuple[int, ...]]:
    """The elements of F_{q^l} inside the field, as vectors in ascending index.

    Counts over F_p in the kernel basis of frobenius^l - 1, first basis
    vector as the least significant digit.  That is index order: Gauss-Jordan
    runs over ascending columns, so the vector of free column c has its highest
    nonzero coordinate at c and every other basis vector is 0 at c.  At l = n
    the map is 0, the basis is the standard one and this is the index scan.
    """
    p, m = spec.p, spec.m
    basis = _subfield_basis(spec, l)
    for digits in itertools.product(range(p), repeat=len(basis)):
        yield tuple(
            sum(d * b[i] for d, b in zip(digits, basis)) % p for i in range(m)
        )


def subfield_elements(spec: FieldSpec) -> tuple[FFElem, ...]:
    """The q base-field elements, in canonical index order (0 first)."""
    return tuple(FFElem(spec, v) for v in _subfield_vectors(spec, 1))


def elements_of_degree(spec: FieldSpec, l: int) -> Iterator[FFElem]:
    """Elements of exact degree l over the base, ascending canonical index."""
    if l < 1 or spec.n % l:
        raise ValueError("l does not divide the relative degree")
    mats = [_frob_matrix(spec, k) for k in range(1, l) if l % k == 0]
    for vec in _subfield_vectors(spec, l):
        if any(vec) and all(_matvec(mat, vec, spec.p) != vec for mat in mats):
            yield FFElem(spec, vec)


def element_of_degree(spec: FieldSpec, l: int) -> FFElem:
    """First element of exact degree l in canonical order (1 when l = 1)."""
    try:
        return next(elements_of_degree(spec, l))
    except StopIteration:
        raise ValueError(f"no element of degree {l}") from None


def minimal_polynomial(x: FFElem) -> tuple[FFElem, ...]:
    """Monic minimal polynomial over the base field, little-endian.

    Computed as the product of (T - y) over the Frobenius orbit of x; the
    coefficients land in the base field (checked).
    """
    spec = x.spec
    poly = [one(spec)]
    for y in frobenius_orbit(x):
        shifted = [zero(spec)] + poly          # T * poly
        scaled = [c * y for c in poly] + [zero(spec)]
        poly = [a - b for a, b in zip(shifted, scaled)]
    for c in poly:
        if not in_base_field(c):
            raise AssertionError("minimal polynomial has a non-base coefficient")
    return tuple(poly)
