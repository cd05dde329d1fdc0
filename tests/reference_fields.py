"""Reference arithmetic over F_p on little-endian coefficient tuples.

An oracle for ``delpezzo.fields``, which packs every polynomial into one
int: this module shares no code with it, only the definitions.  Polynomials
are normalized tuples (no trailing zeros, () is 0); everything is schoolbook
and slow on purpose.
"""

from functools import lru_cache


def _pnorm(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return tuple(a[:n])


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


@lru_cache(maxsize=None)
def _is_irreducible(f, p):
    """No root in any F_{p^k} for k <= deg(f)/2, via gcd with x^(p^k) - x."""
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


@lru_cache(maxsize=None)
def canonical_modulus(p, m):
    """The monic irreducible of degree m whose lower coefficients have the least index."""
    for t in range(p ** m):
        digits = []
        for _ in range(m):
            t, c = divmod(t, p)
            digits.append(c)
        f = tuple(digits) + (1,)
        if _is_irreducible(f, p):
            return f
    raise RuntimeError("unreachable: an irreducible of every degree exists")


def degree_over(a, q, n, mod, p):
    """The least k | n with a^(q^k) = a: the degree of a over F_q."""
    image = a
    for k in range(1, n + 1):
        image = _ppowmod(image, q, mod, p)
        if n % k == 0 and image == a:
            return k
    raise AssertionError("a^(q^n) must be a")
