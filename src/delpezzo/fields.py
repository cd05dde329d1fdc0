"""Exact finite-field arithmetic with deterministic towers.

A field F_{p^m} is represented as F_p[x]/(f) where f is the canonical
modulus: the lexicographically smallest monic irreducible of degree m over
F_p, "smallest" meaning the smallest integer index sum(c_i * p^i) over the
non-leading coefficients.  (For example F_4 gets x^2+x+1, F_9 gets x^2+1,
F_8 gets x^3+x+1.)  Elements, and polynomials over F_p, are packed ints: for
p = 2 the coefficient bitmask, which is also the element's index; for odd p
the coefficient of x^i sits in slot i of w bits (Kronecker substitution), so
a product is one big-int multiply, and reducing every slot mod p is one more,
by a fixed reciprocal of p.  Packed ints order like indices.

Every field carries a marked base degree e | m: a ``FieldSpec`` describes
the extension F_{q^n} / F_q with q = p^e and n = m/e, and ``frobenius`` is the
*relative* Frobenius x -> x^q generating Gal(F_{q^n}/F_q).  All orbit
arithmetic happens inside this one common field; base-field membership is
"fixed by frobenius".

No randomness and no floating point: irreducibility is tested with
gcd(f, x^(p^k) - x) for k <= m/2 (Ben-Or), after a sieve that drops the
candidates x^m + h + c with a root in F_p a line (all c in F_p) at a time
(and the line of binomials where none is irreducible), and
Frobenius maps are applied as sums of cached packed columns (x^(q^k))^j mod f,
so repeated orbit scans stay cheap.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterator

from .perms import _MAX_DIGITS, _Record


# --- polynomials over F_p as packed ints ------------------------------------

class _Fp:
    """F_p[x], p odd, on packed ints of w = 2k + 1 bit slots, k = 2*bits(p-1) + bits(m) + 2.

    Sums stay exact until one slot-wise reduction, which needs every slot below
    2^k > 4*m*p^2 (2^bits(m) > m, 2^bits(p-1) >= p).  ``reduce`` takes at most
    three products of m or fewer slots below p by slots at most p (pp - d for
    -d): slots below 3*m*p^2; a fold of x^m = g adds norm(high) * g, below m*p^2,
    and every second fold normalizes the low part first: below 4*m*p^2.

    ``norm`` takes each slot t to t - p * (t * magic >> s), magic = ceil(2^s / p),
    s = k + bits(p) (Granlund & Montgomery, PLDI 1994): t * magic / 2^s exceeds
    t/p by under 2^(k-s) < 1/p, less than the 1/p that t/p lies below the next
    integer, and t * magic < 2^k * 2^(k+1) = 2^w, so no slot carries.
    """

    __slots__ = ("p", "m", "w", "s", "slot", "magic", "qmask", "pp")

    def __init__(self, p: int, m: int):
        self.p, self.m = p, m
        k = 2 * (p - 1).bit_length() + m.bit_length() + 2
        self.w, self.s = w, s = 2 * k + 1, k + p.bit_length()
        self.slot = (1 << w) - 1
        ones = ((1 << w * (2 * m + 1)) - 1) // self.slot  # 1 in each of 2m + 1 slots
        self.magic, self.qmask = -(-(1 << s) // p), ones * ((1 << (w - s)) - 1)
        self.pp = (ones >> w * m) * p  # p in each of m + 1 slots: sub adds pp - b

    def norm(self, t: int) -> int:
        """Every slot reduced mod p; at most 2m + 1 slots, each below 2^k."""
        return t - ((t * self.magic >> self.s) & self.qmask) * self.p

    def add(self, a: int, b: int) -> int:
        return self.norm(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.pp - b)

    def pack(self, coeffs) -> int:
        return sum(c << (i * self.w) for i, c in enumerate(coeffs))

    def unpack(self, a: int) -> list[int]:
        return [a >> shift & self.slot for shift in range(0, a.bit_length(), self.w)]

    def pmul(self, a: int, b: int) -> int:
        return a * b  # slots not yet reduced

    def mul(self, a: int, b: int, g: int) -> int:
        return self.reduce(a * b, g)

    def minor(self, a: int, b: int, c: int, d: int, g: int) -> int:
        return self.reduce(a * b + c * (self.pp - d), g)  # a*b - c*d

    def dot(self, a: int, b: int, c: int, d: int, e: int, f: int, g: int) -> int:
        return self.reduce(a * b + c * d + e * f, g)

    def reduce(self, t: int, g: int) -> int:
        """t mod x^m - g, slots mod p: fold the part of degree >= m back as a multiple of g."""
        mw, folds = self.m * self.w, 0
        while t >> mw:
            folds += 1
            low = t & ((1 << mw) - 1)
            t = (low if folds % 2 else self.norm(low)) + self.norm(t >> mw) * g
        return self.norm(t)

    def combine(self, cols, a: int) -> int:
        """sum_j a_j * cols[j]: the linear map with these packed columns, applied to a."""
        return self.norm(sum(c * col for c, col in zip(self.unpack(a), cols) if c))

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        shift_b = (b.bit_length() - 1) // self.w * self.w
        inv = pow(b >> shift_b, -1, self.p)
        rest = self.sub(0, b & ((1 << shift_b) - 1))
        quo = 0
        for shift in range((a.bit_length() - 1) // self.w * self.w, shift_b - 1, -self.w):
            c = (a >> shift) * inv % self.p  # the top slot: the ones above are cleared
            a &= (1 << shift) - 1
            if c:
                quo |= c << (shift - shift_b)
                a += c * rest << (shift - shift_b)
        return quo, self.norm(a)

    def kernel(self, cols) -> list[int]:
        """The kernel of the map with these packed columns, in echelon form (any p).

        Each column is reduced against the earlier independent ones; one that
        depends on them gives the kernel vector that is 1 there and 0 at every
        other dependent column, as Gauss-Jordan over ascending columns does.
        """
        p, w, slot = self.p, self.w, self.slot
        pivots, basis = [], []
        for j, col in enumerate(cols):
            v, combo = col, 1 << (j * w)
            for shift, b, b_combo in pivots:
                c = (v >> shift & slot) % p
                if c and p == 2:
                    v, combo = v ^ b, combo ^ b_combo
                elif c:
                    v, combo = v + (p - c) * b, combo + (p - c) * b_combo
            v, combo = self.norm(v), self.norm(combo)
            if not v:
                basis.append(combo)
                continue
            shift = ((v & -v).bit_length() - 1) // w * w
            inv = pow(v >> shift & slot, -1, p)
            pivots.append((shift, self.norm(v * inv), self.norm(combo * inv)))
        return basis

    def gcd(self, a: int, b: int) -> int:
        """A gcd of a and b, by Euclid's remainders (not made monic)."""
        while b:
            a, b = b, self.divmod(a, b)[1]
        return a

    def rooted(self, f: int) -> set[int]:
        """The c = -f(a), a in F_p, for which f + c has a root: Horner at all a at
        once.  f is monic, so ``unpack`` keeps its zero slots; slot 0 is clear."""
        p, vals = self.p, [1] * self.p
        for s in self.unpack(f)[-2:0:-1]:
            vals = [(v * a + s) % p for a, v in enumerate(vals)]
        return {-v * a % p for a, v in enumerate(vals)}

    def powmod(self, a: int, e: int, g: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a, g)
            e >>= 1
            if e:
                a = self.mul(a, a, g)
        return out

    def inverse(self, a: int, f: int) -> int:
        """Inverse of a modulo the irreducible f, via extended Euclid."""
        if not a:
            raise ZeroDivisionError("inverse of zero")
        r0, r1, s0, s1 = f, a, 0, 1
        while r1:
            quo, rest = self.divmod(r0, r1)
            r0, r1, s0, s1 = r1, rest, s1, self.sub(s0, self.norm(self.pmul(quo, s1)))
        return self.norm(self.pmul(s0, pow(r0, -1, self.p)))


class _F2(_Fp):
    """F_2[x] on coefficient bitmasks: addition is xor, products shift and xor."""

    __slots__ = ()

    def __init__(self, p: int, m: int):
        self.p, self.m, self.w, self.slot = 2, m, 1, 1

    def norm(self, t: int) -> int:
        return t

    def add(self, a: int, b: int) -> int:
        return a ^ b

    sub = add

    def pmul(self, a: int, b: int) -> int:
        out = 0
        while b:
            low = b & -b
            out ^= a << (low.bit_length() - 1)
            b ^= low
        return out

    def mul(self, a: int, b: int, g: int) -> int:
        return self.reduce(self.pmul(a, b), g)

    def minor(self, a: int, b: int, c: int, d: int, g: int) -> int:
        return self.reduce(self.pmul(a, b) ^ self.pmul(c, d), g)

    def dot(self, a: int, b: int, c: int, d: int, e: int, f: int, g: int) -> int:
        return self.reduce(self.pmul(a, b) ^ self.pmul(c, d) ^ self.pmul(e, f), g)

    def reduce(self, t: int, g: int) -> int:
        while t >> self.m:
            t = (t & ((1 << self.m) - 1)) ^ self.pmul(t >> self.m, g)
        return t

    def combine(self, cols, a: int) -> int:
        out = 0
        for bit, col in zip(self.unpack(a), cols):
            if bit:
                out ^= col
        return out

    def rooted(self, f: int) -> set[int]:
        """f + c vanishes at 0 when c = 0 and at 1 when c is the parity of f's terms."""
        return {0, f.bit_count() & 1}

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        quo, deg_b = 0, b.bit_length() - 1
        while (shift := a.bit_length() - 1 - deg_b) >= 0:
            quo |= 1 << shift
            a ^= b << shift
        return quo, a


@lru_cache(maxsize=None)
def _ring(p: int, m: int) -> _Fp:
    return _F2(p, m) if p == 2 else _Fp(p, m)


@lru_cache(maxsize=256)
def _is_irreducible(p: int, m: int, f: int) -> bool:
    """No factor of degree k <= m/2 (Ben-Or), batched: the x^(p^k) - x are
    multiplied into one product mod f, and a gcd is taken only at k = 1, 2,
    4, ... and m/2.  An irreducible factor of f divides the product mod f
    exactly when it divides one of its terms, so each gcd tests every k up
    to there.  Cached, so the FieldSpec that make_field builds from the
    modulus it found does not repeat the proof."""
    ring = _ring(p, m)
    g = ring.sub(0, f - (1 << m * ring.w))
    x = t = 1 << ring.w
    product = 1
    for k in range(1, m // 2 + 1):
        t = ring.powmod(t, p, g)
        product = ring.mul(product, ring.sub(t, x), g)
        if (k & (k - 1) == 0 or k == m // 2) and ring.gcd(f, product) >> ring.w:
            return False  # a common factor of positive degree
    return True


# make_field's root sieve costs p * m steps of about 0.1 us a line.  Below this
# that is at most 0.6 ms, lost where the first few candidates give the modulus
# (1009^6 takes 0.5 ms unsieved), while a search through whole lines gains far
# more (1009^5: 24 -> 1.1 ms).  Above it the loss reaches 45 ms (65521^6).
_SIEVE_CUT = 6000


def _span(ring: _Fp, rows) -> Iterator[int]:
    """sum_i d_i * rows[i] for every d in F_p^len(rows), first digit fastest.

    Each step adds one packed row, and one more for every digit that wraps
    around.  With no rows the span is 0 alone.
    """
    acc, digits = 0, [0] * len(rows)
    while True:
        yield acc
        for i, row in enumerate(rows):
            acc = ring.add(acc, row)
            digits[i] += 1
            if digits[i] < ring.p:
                break
            digits[i] = 0
        else:
            return


def _prime_power(q) -> tuple[int, int] | None:
    """(p, e) with q = p^e for a prime p, by trial division; None for any other q."""
    if not isinstance(q, int) or q < 2:
        return None
    p = 2
    while p * p <= q and q % p:
        p += 1
    if p * p > q:
        p = q  # no divisor up to the square root: q is prime
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


# --- field descriptors and elements ------------------------------------------

class FieldSpec(_Record):
    """F_{p^m} = F_p[x]/(modulus), marked as an extension of F_{p^base_degree}.

    Immutable; equal and hashed by its four fields.  Its tables are slots too,
    so looking them up never hashes the spec: the packing ``_r``, the packed
    modulus ``_f`` with x^m = ``_g``, and the Frobenius columns and the
    subfield bases (``_kernels``, see ``_subfield_basis``) as they are built.
    """

    __slots__ = ("p", "m", "modulus", "base_degree", "_r", "_f", "_g", "_frob", "_kernels")
    _value = ("p", "m", "modulus", "base_degree")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], base_degree: int):
        if _prime_power(p) != (p, 1):
            raise ValueError("p is not prime")
        if m < 1 or base_degree < 1 or m % base_degree:
            raise ValueError("base degree must divide the absolute degree")
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of the right degree")
        if any(not 0 <= c < p for c in modulus):
            raise ValueError("modulus coefficients out of range")
        ring = _ring(p, m)
        f = ring.pack(modulus)
        if not _is_irreducible(p, m, f):
            raise ValueError("modulus is reducible")
        g = ring.sub(0, f - (1 << m * ring.w))
        self._set(p, m, modulus, base_degree, ring, f, g, {}, {})

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
    if _prime_power(p) != (p, 1):
        raise ValueError("p is not prime")
    if base_degree < 1 or relative_degree < 1:
        raise ValueError("degrees must be positive")
    m = base_degree * relative_degree
    return FieldSpec(p, m, _modulus(p, m), base_degree)


@lru_cache(maxsize=None)
def _modulus(p: int, m: int) -> tuple[int, ...]:
    """The canonical modulus of degree m over F_p, searched once per (p, m); make_field
    stays cached per triple, as each FieldSpec owns its Frobenius tables."""
    ring = _ring(p, m)
    lead = 1 << (m * ring.w)
    sieve = 1 < m and p * m < _SIEVE_CUT  # at m = 1 every x + c has a root, yet x is irreducible
    # whether p - 1 has each prime factor r of m, and 4 if 4 | m (r = 8 would lose x^8 + 2 over F_5)
    binomials = all((p - 1) % r == 0 for r in range(2, m + 1)
                    if m % r == 0 and (r == 4 or _prime_power(r) == (r, 1)))
    for h in _span(ring, [1 << (i * ring.w) for i in range(1, m)]):  # index order, c fastest
        if not (h or binomials):
            continue  # else no x^m + c is irreducible (Lidl & Niederreiter, Theorem 3.75)
        rooted = ring.rooted(lead + h) if sieve else ()
        for c in range(p):
            if c not in rooted and _is_irreducible(p, m, lead + h + c):
                return tuple(ring.unpack(lead + h + c))
    raise RuntimeError("unreachable: an irreducible of every degree exists")


# Literal ceilings, checked before any field is built.  No working field needs
# a relative degree above 6, the largest lcm of Frobenius orbit lengths.
MAX_CHARACTERISTIC = 2 ** 16
MAX_BASE_FIELD = 2 ** 40
MAX_RELATIVE_DEGREE = 6
_LITERAL_RE = re.compile(r"([0-9]+)(?:\^([0-9]+)(?::base=([0-9]+))?)?")


def parse_field_literal(text: str) -> FieldSpec:
    """Parse "p^m:base=e" (or "p^e" / "p" for a base field) below the ceilings.

    Numbers are ASCII digits only; "p^e" alone denotes the base field F_{p^e}.
    """
    match = _LITERAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"cannot parse field literal {text!r}")
    p_text, m_text, base_text = match.groups()
    if any(len(t) > _MAX_DIGITS for t in match.groups() if t):
        raise ValueError(f"a number in a field literal has more than {_MAX_DIGITS} digits")
    p, m = int(p_text), int(m_text or 1)
    base = m if base_text is None else int(base_text)
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


class FFElem(_Record):
    """An element of a FieldSpec field, held as one packed int ``_v``.

    ``FFElem(spec, coeffs)`` reduces little-endian coefficients mod p and mod
    the modulus; arithmetic builds its reduced results with ``_elem``.
    Elements are immutable and hash as their int.
    """

    __slots__ = ("spec", "_v")

    def __init__(self, spec: FieldSpec, coeffs):  # any number of coefficients: Euclid's remainder
        self._set(spec, spec._r.divmod(spec._r.pack([c % spec.p for c in coeffs]), spec._f)[1])

    def _other(self, other: "FFElem") -> int:
        if not isinstance(other, FFElem):
            raise TypeError(f"not a field element: {other!r}")
        if other.spec is not self.spec and other.spec != self.spec:
            raise ValueError("elements of different fields")
        return other._v

    def __add__(self, other: "FFElem") -> "FFElem":
        return _elem(self.spec, self.spec._r.add(self._v, self._other(other)))

    def __sub__(self, other: "FFElem") -> "FFElem":
        return _elem(self.spec, self.spec._r.sub(self._v, self._other(other)))

    def __neg__(self) -> "FFElem":
        return _elem(self.spec, self.spec._r.sub(0, self._v))

    def __mul__(self, other: "FFElem") -> "FFElem":
        return _elem(self.spec, self.spec._r.mul(self._v, self._other(other), self.spec._g))

    def __truediv__(self, other: "FFElem") -> "FFElem":
        self._other(other)
        return self * other.inverse()

    def inverse(self) -> "FFElem":
        return _elem(self.spec, self.spec._r.inverse(self._v, self.spec._f))

    def __pow__(self, e: int) -> "FFElem":
        if e < 0:
            return self.inverse() ** (-e)
        return _elem(self.spec, self.spec._r.powmod(self._v, e, self.spec._g))

    def __hash__(self) -> int:  # the int alone: _Record's would hash the modulus each call
        return hash(self._v)

    def __bool__(self) -> bool:
        return self._v != 0

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Little-endian coefficients over F_p, without trailing zeros."""
        return tuple(self.spec._r.unpack(self._v))

    @property
    def index(self) -> int:
        """Position in the canonical enumeration: sum(c_i * p^i)."""
        return sum(c * self.spec.p ** i for i, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"FFElem({self.spec.literal()}, {list(self.coeffs)})"


_elem = FFElem._unchecked  # (spec, v): the element with packed int v, already reduced


def zero(spec: FieldSpec) -> FFElem:
    return _elem(spec, 0)


def one(spec: FieldSpec) -> FFElem:
    return _elem(spec, 1)


def gen(spec: FieldSpec) -> FFElem:
    """The residue class of x."""
    return FFElem(spec, (0, 1))


def from_int(spec: FieldSpec, value: int) -> FFElem:
    """The prime-field element value mod p."""
    return FFElem(spec, (value % spec.p,))


def from_index(spec: FieldSpec, t: int) -> FFElem:
    """The element of index t, for 0 <= t < p^m."""
    if not 0 <= t < spec.size:
        raise ValueError(f"index {t} outside [0, {spec.p}^{spec.m})")
    digits = []
    while t:
        digits.append(t % spec.p)
        t //= spec.p
    return _elem(spec, spec._r.pack(digits))


def from_coeffs(spec: FieldSpec, coeffs) -> FFElem:
    """The element whose ``coeffs`` are exactly these: at most m ints (not
    bools) in [0, p), the last one not 0.  It never reduces: ValueError instead."""
    return _elem(spec, _pack_coeffs(spec, coeffs))


def _pack_coeffs(spec: FieldSpec, coeffs) -> int:
    """The packed int of ``from_coeffs``, with its checks, building no element."""
    if not isinstance(coeffs, (list, tuple)):
        raise ValueError(f"coefficients must be a list, not {type(coeffs).__name__}")
    if len(coeffs) > spec.m:
        raise ValueError(f"{len(coeffs)} coefficients, more than the degree {spec.m}")
    v, shift, w, p = 0, 0, spec._r.w, spec.p
    for c in coeffs:  # checked and packed in one pass
        if type(c) is not int or not 0 <= c < p:
            raise ValueError(f"coefficient {c!r} is not an integer in [0, {p})")
        v |= c << shift
        shift += w
    if coeffs and not coeffs[-1]:
        raise ValueError("trailing zero coefficient")
    return v


def field_elements(spec: FieldSpec) -> Iterator[FFElem]:
    """All p^m elements in canonical (index) order."""
    for t in range(spec.size):
        yield from_index(spec, t)


# --- Frobenius as packed columns ---------------------------------------------

def _frob_cols(spec: FieldSpec, power: int) -> list[int]:
    """The packed columns (x^(q^power))^j mod f, j < m, for 1 <= power < n."""
    cols = spec._frob.get(power)
    if cols is None:
        ring, g = spec._r, spec._g
        image = (ring.powmod(1 << ring.w, spec.q, g) if power == 1 else
                 ring.combine(_frob_cols(spec, 1), _frob_cols(spec, power - 1)[1]))
        cols = spec._frob[power] = [1]
        for _ in range(spec.m - 1):
            cols.append(ring.mul(cols[-1], image, g))
    return cols


def _frob(spec: FieldSpec, v: int, power: int) -> int:
    power %= spec.n  # below p, v is a constant of F_p, which Frobenius fixes
    return spec._r.combine(_frob_cols(spec, power), v) if power and v >= spec.p else v


def frobenius(x: FFElem, power: int = 1) -> FFElem:
    """The relative Frobenius x -> x^q (optionally iterated)."""
    return _elem(x.spec, _frob(x.spec, x._v, power))


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
    return next(k for k in range(1, n + 1) if n % k == 0 and _frob(x.spec, x._v, k) == x._v)


def _subfield_basis(spec: FieldSpec, l: int) -> list[int]:
    """The basis that ``elements_of_degree`` counts F_{q^l} in, kept per l.

    It is the packed echelon kernel of frobenius^l - 1, lowest free column
    first.  Counting in it, first vector as the least significant digit,
    lists F_{q^l} in ascending index: the vector of free column c has its
    highest nonzero coordinate at c and every other one is 0 at c.  At l = n
    it is the standard basis and the count is the index scan.  Frobenius
    fixes 1, so column 0 of frobenius^l - 1 is zero: ``kernel`` makes it the
    first free column, and b_0 = 1.
    """
    basis = spec._kernels.get(l)
    if basis is None:
        ring = spec._r
        basis = [1 << (j * ring.w) for j in range(spec.m)]
        if l % spec.n:
            cols = _frob_cols(spec, l % spec.n)
            basis = ring.kernel([ring.sub(c, u) for c, u in zip(cols, basis)])
        spec._kernels[l] = basis
    return basis


def subfield_elements(spec: FieldSpec) -> tuple[FFElem, ...]:
    """The q base-field elements, in canonical index order (0 first)."""
    return (zero(spec), *elements_of_degree(spec, 1))


def _of_degree(spec: FieldSpec, l: int) -> Iterator[int]:
    """The packed ints of ``elements_of_degree``, in the same order.

    The lowest digit runs over a whole line u + d*b_0, d in F_p, at once.
    Since b_0 = 1 (see ``_subfield_basis``) and Frobenius fixes F_p,
    frobenius^k(u + d) - (u + d) = frobenius^k(u) - u, so every point of the
    line has the degree of u; every other basis vector is 0 at x^0, so the
    point is the packed int u + d.  One test of u, frobenius^k(u) != u for
    every proper divisor k of l, keeps or skips all p points.  Only 0 (u = 0,
    d = 0) needs its own exclusion: for l > 1 Frobenius fixes its line's u
    and the line is skipped whole, for l = 1 the line starts at d = 1.
    """
    if l < 1 or spec.n % l:
        raise ValueError("l does not divide the relative degree")
    divisors = [k for k in range(1, l) if l % k == 0]
    for u in _span(spec._r, _subfield_basis(spec, l)[1:]):
        if all(_frob(spec, u, k) != u for k in divisors):
            for d in range(0 if u else 1, spec.p):
                yield u + d


def elements_of_degree(spec: FieldSpec, l: int) -> Iterator[FFElem]:
    """Elements of exact degree l over the base, ascending canonical index."""
    for v in _of_degree(spec, l):
        yield _elem(spec, v)


def element_of_degree(spec: FieldSpec, l: int) -> FFElem:
    """First element of exact degree l in canonical order (1 when l = 1)."""
    return next(elements_of_degree(spec, l))  # l | n has some (Lidl & Niederreiter, 3.25)


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
