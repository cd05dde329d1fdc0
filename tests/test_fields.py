"""Finite-field arithmetic: canonical moduli, axioms, Frobenius, degrees."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from delpezzo import fields
from delpezzo.fields import (
    FieldSpec,
    FFElem,
    element_degree,
    element_of_degree,
    elements_of_degree,
    field_elements,
    frobenius,
    frobenius_orbit,
    from_coeffs,
    from_index,
    from_int,
    gen,
    in_base_field,
    make_field,
    minimal_polynomial,
    one,
    parse_field_literal,
    subfield_elements,
    zero,
)
from reference_fields import (
    _is_irreducible,
    _padd,
    _pgcd,
    _pinv,
    _pmod,
    _pmul,
    _ppowmod,
    _psub,
    canonical_modulus,
    degree_over,
)


class TestCanonicalModuli:
    # Frozen values, each recomputed by hand: scan monic degree-m polynomials
    # by ascending integer index sum(c_i p^i) and keep the first irreducible.
    def test_f2(self):
        assert make_field(2, 1, 1).modulus == (0, 1)  # x

    def test_f4(self):
        assert make_field(2, 1, 2).modulus == (1, 1, 1)  # x^2+x+1

    def test_f8(self):
        assert make_field(2, 1, 3).modulus == (1, 1, 0, 1)  # x^3+x+1

    def test_f16(self):
        assert make_field(2, 1, 4).modulus == (1, 1, 0, 0, 1)  # x^4+x+1

    def test_f9(self):
        assert make_field(3, 1, 2).modulus == (1, 0, 1)  # x^2+1

    def test_f25(self):
        # x^2+2 has root? 1->3=1+2, 2->4+2=1, 3->11=1, 4->18=3: none; x^2+1
        # has no root mod 5 either?  2^2+1=5=0 -> root!  So x^2+2 is first.
        assert make_field(5, 1, 2).modulus == (2, 0, 1)

    def test_same_modulus_for_either_base_marking(self):
        assert make_field(2, 2, 2).modulus == make_field(2, 1, 4).modulus

    def test_modulus_is_irreducible_for_a_sample(self):
        for p, e, n in [(2, 1, 5), (3, 1, 3), (2, 2, 3), (3, 2, 2), (7, 1, 2)]:
            spec = make_field(p, e, n)
            assert _is_irreducible(spec.modulus, p)
            assert spec.q == p**e and spec.n == n and spec.size == p ** (e * n)

    def test_validation(self):
        with pytest.raises(ValueError):
            FieldSpec(4, 1, (0, 1), 1)  # 4 not prime
        with pytest.raises(ValueError):
            FieldSpec(2, 2, (1, 1, 1), 3)  # 3 does not divide 2
        with pytest.raises(ValueError):
            FieldSpec(2, 2, (1, 0, 1), 1)  # x^2+1 = (x+1)^2 reducible
        with pytest.raises(ValueError):
            FieldSpec(2, 2, (1, 1), 1)  # wrong degree


class TestLiterals:
    def test_round_trip(self):
        spec = make_field(2, 3, 2)
        assert spec.literal() == "2^6:base=3"
        assert parse_field_literal("2^6:base=3") == spec

    def test_plain_prime(self):
        assert parse_field_literal("5") == make_field(5, 1, 1)

    def test_prime_power_is_its_own_base(self):
        spec = parse_field_literal("2^2")
        assert spec.base_degree == 2 and spec.n == 1 and spec.q == 4

    def test_garbage(self):
        with pytest.raises(ValueError):
            parse_field_literal("2^4:deg=2")
        with pytest.raises(ValueError):
            parse_field_literal("abc")

    @pytest.mark.parametrize("text", [
        "2^1_0", "+7", " 7", "7 ", "\u0663", "7\u0663", "2^", "^3", "", "7:base=1",
        "2^2:base=+1", "2^2:base=", "2^2:deg=2",
    ])
    def test_only_ascii_digit_literals_parse(self, text):
        with pytest.raises(ValueError) as err:
            parse_field_literal(text)
        assert str(err.value) == f"cannot parse field literal {text!r}"

    @pytest.mark.parametrize("text", ["3^0", "2^2:base=0", "2^0:base=0"])
    def test_degree_below_one_rejected(self, text):
        with pytest.raises(ValueError, match="at least 1"):
            parse_field_literal(text)

    def test_base_degree_must_divide(self):
        with pytest.raises(ValueError, match="base degree must divide the absolute degree"):
            parse_field_literal("2^5:base=2")

    @pytest.mark.parametrize("text, message", [
        ("65537", "below 2^16"),
        ("2^41", "at most 2^40"),
        ("3^26", "at most 2^40"),
        ("2^10000000000", "at most 2^40"),
        ("2^7:base=1", "at most 6"),
        ("2^1000:base=1", "at most 6"),
    ])
    def test_oversized_literal_rejected(self, text, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_field_literal(text)

    def test_largest_literals_accepted(self):
        assert parse_field_literal("65521").q == 65521
        assert parse_field_literal("2^40").q == 2 ** 40
        assert parse_field_literal("2^12:base=2").n == 6


class TestFieldAxioms:
    SPECS = [(2, 1, 2), (3, 1, 2), (2, 1, 3), (5, 1, 2), (2, 2, 2), (3, 2, 1)]

    def test_axioms_on_random_triples(self):
        rng = random.Random(414213)
        for p, e, n in self.SPECS:
            spec = make_field(p, e, n)
            for _ in range(40):
                a, b, c = (from_index(spec, rng.randrange(spec.size)) for _ in range(3))
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a + b == b + a and a * b == b * a
                assert a + zero(spec) == a and a * one(spec) == a
                assert a - a == zero(spec)
                if a != zero(spec):
                    assert a * a.inverse() == one(spec)
                    assert (a / a) == one(spec)

    def test_elements_are_immutable(self):
        x = gen(make_field(3, 1, 2))
        with pytest.raises(AttributeError):
            x.spec = make_field(3, 1, 1)
        with pytest.raises(AttributeError):
            x._v = 0
        with pytest.raises(AttributeError):
            del x.spec
        assert x == gen(make_field(3, 1, 2)) and hash(x) == hash(gen(make_field(3, 1, 2)))

    def test_an_element_never_equals_an_int(self):
        assert (FFElem(make_field(7, 1, 1), (1,)) == 1) is False

    def test_zero_inverse_fails(self):
        with pytest.raises(ZeroDivisionError):
            zero(make_field(2, 1, 2)).inverse()

    def test_pow_and_mul_agree(self):
        spec = make_field(3, 1, 2)
        w = gen(spec)
        assert w**0 == one(spec)
        assert w**5 == w * w * w * w * w
        assert w**-1 == w.inverse()

    def test_multiplicative_order_divides_size_minus_one(self):
        spec = make_field(2, 1, 4)
        for x in field_elements(spec):
            if x != zero(spec):
                assert x ** (spec.size - 1) == one(spec)


class TestFrobenius:
    def test_is_additive_and_multiplicative(self):
        rng = random.Random(562373)
        for p, e, n in [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2)]:
            spec = make_field(p, e, n)
            for _ in range(30):
                a = from_index(spec, rng.randrange(spec.size))
                b = from_index(spec, rng.randrange(spec.size))
                assert frobenius(a + b) == frobenius(a) + frobenius(b)
                assert frobenius(a * b) == frobenius(a) * frobenius(b)
                assert frobenius(a) == a**spec.q

    def test_fixed_set_is_exactly_the_base_field(self):
        for p, e, n in [(2, 1, 3), (2, 2, 2), (3, 1, 2), (3, 2, 1), (2, 1, 4),
                        (2, 2, 3), (2, 3, 2)]:
            spec = make_field(p, e, n)
            fixed = [x for x in field_elements(spec) if frobenius(x) == x]
            assert len(fixed) == spec.q
            assert fixed == list(subfield_elements(spec))
            assert all(in_base_field(x) for x in fixed)

    def test_relative_frobenius_power_cycles(self):
        spec = make_field(2, 2, 3)  # F_64 over F_4
        x = gen(spec)
        y = x
        for _ in range(spec.n):
            y = frobenius(y)
        assert y == x
        assert frobenius(x, spec.n) == x
        assert frobenius(x, 2) == frobenius(frobenius(x))

    @pytest.mark.parametrize("field", [(2, 1, 6), (2, 40, 6), (3, 3, 2), (7, 1, 6),
                                       (65521, 1, 2), (65521, 2, 6)])
    def test_prime_field_constants_are_fixed(self, field):
        # Frobenius fixes F_p, so a packed constant comes back unchanged; x,
        # the next element up when p = 2, still moves
        spec = make_field(*field)
        for c in range(spec.p):
            x = from_int(spec, c)
            assert all(frobenius(x, k) == x for k in range(1, spec.n))
        x = gen(spec)
        assert [frobenius(x, k) for k in range(spec.n + 1)] == [x ** spec.q ** k for k in range(spec.n + 1)]

    def test_base_field_marking_changes_frobenius(self):
        over_f2 = make_field(2, 1, 4)
        over_f4 = make_field(2, 2, 2)
        x2, x4 = gen(over_f2), gen(over_f4)
        assert frobenius(x2) == x2**2
        assert frobenius(x4) == x4**4


class TestElementDegrees:
    def test_degree_one_is_one(self):
        for p, e, n in [(2, 1, 1), (2, 1, 3), (3, 1, 2), (2, 2, 2)]:
            spec = make_field(p, e, n)
            assert element_of_degree(spec, 1) == one(spec)

    def test_f8_degree_three_is_x(self):
        spec = make_field(2, 1, 3)
        assert element_of_degree(spec, 3) == gen(spec)

    def test_f4_degree_two_is_x(self):
        spec = make_field(2, 1, 2)
        assert element_of_degree(spec, 2) == gen(spec)

    def test_f9_degree_two_is_x(self):
        spec = make_field(3, 1, 2)
        assert element_of_degree(spec, 2) == gen(spec)

    def test_l_must_divide_relative_degree(self):
        spec = make_field(2, 1, 4)
        with pytest.raises(ValueError):
            element_of_degree(spec, 3)

    def test_degree_counts_match_moebius_counts(self):
        # F_{2^6}/F_2: counts of elements of exact degree l are the familiar
        # irreducible-root counts: 2, 2, 6, 12, 0?.. recompute: |F_2|=2,
        # deg2: |F_4|-|F_2|=2, deg3: |F_8|-|F_2|=6, deg6: 64-8-4+2=54.
        spec = make_field(2, 1, 6)
        counts = {}
        for x in field_elements(spec):
            counts[element_degree(x)] = counts.get(element_degree(x), 0) + 1
        assert counts == {1: 2, 2: 2, 3: 6, 6: 54}

    def test_enumeration_is_exact_and_ascending(self):
        spec = make_field(2, 2, 2)  # F_16 over F_4
        listed = list(elements_of_degree(spec, 2))
        brute = [
            x for x in field_elements(spec)
            if x != zero(spec) and element_degree(x) == 2
        ]
        # at l == n the kernel basis is the standard one: an index scan
        assert listed == brute
        assert len(listed) == 16 - 4

    def test_enumeration_subfield_path(self):
        # l < n: counting over a kernel basis that is not the standard one;
        # e > 1: a line u + d (d in F_p) is shorter than the base field;
        # l = 1: only 0 is excluded (n = 1: no basis vector above 1);
        # l = n: the standard basis
        for p, e, n, l, count in [(2, 1, 6, 2, 2), (2, 1, 6, 3, 6), (3, 1, 6, 2, 6),
                                  (3, 1, 6, 3, 24), (5, 1, 4, 2, 20),
                                  (3, 2, 3, 1, 8), (3, 2, 2, 2, 72), (2, 2, 4, 2, 12),
                                  (2, 2, 3, 1, 3), (2, 2, 3, 3, 60), (2, 1, 6, 1, 1),
                                  (5, 1, 2, 1, 4), (3, 1, 6, 6, 696), (3, 1, 1, 1, 2),
                                  (2, 1, 1, 1, 1)]:
            spec = make_field(p, e, n)
            listed = list(elements_of_degree(spec, l))
            brute = [
                x for x in field_elements(spec)
                if x != zero(spec) and element_degree(x) == l
            ]
            assert listed == brute and len(listed) == count

    def test_orbit_size_equals_degree(self):
        spec = make_field(3, 1, 2)
        for x in field_elements(spec):
            assert len(frobenius_orbit(x)) == element_degree(x)


class TestMinimalPolynomial:
    def test_omega_in_f4(self):
        spec = make_field(2, 1, 2)
        w = gen(spec)
        mu = minimal_polynomial(w)
        assert [c.coeffs for c in mu] == [(1,), (1,), (1,)]  # t^2+t+1

    def test_base_element(self):
        spec = make_field(3, 1, 2)
        two = from_int(spec, 2)
        mu = minimal_polynomial(two)
        assert [c.coeffs for c in mu] == [(1,), (1,)]  # t - 2 = t + 1

    def test_roots_are_exactly_the_frobenius_orbit(self):
        spec = make_field(2, 1, 4)
        for t in [2, 5, 9]:
            x = from_index(spec, t)
            mu = minimal_polynomial(x)
            roots = [
                y for y in field_elements(spec)
                if sum((c * y**i for i, c in enumerate(mu)), zero(spec)) == zero(spec)
            ]
            assert set(roots) == set(frobenius_orbit(x))
            assert len(mu) - 1 == element_degree(x)
            assert mu[-1] == one(spec)

    def test_evaluates_to_zero(self):
        rng = random.Random(73205)
        spec = make_field(3, 1, 3)
        for _ in range(15):
            x = from_index(spec, rng.randrange(spec.size))
            mu = minimal_polynomial(x)
            value = sum((c * x**i for i, c in enumerate(mu)), zero(spec))
            assert value == zero(spec)


class TestIndexAndCoefficients:
    def test_from_index_rejects_a_negative_index(self):
        with pytest.raises(ValueError, match="outside"):
            from_index(make_field(7, 1, 1), -1)

    def test_from_index_rejects_an_index_past_the_field(self):
        spec = make_field(7, 1, 1)
        with pytest.raises(ValueError, match="outside"):
            from_index(spec, 49)
        with pytest.raises(ValueError, match="outside"):
            from_index(spec, 7)
        assert from_index(spec, 6).coeffs == (6,)

    def test_from_coeffs_takes_exactly_what_coeffs_gives(self):
        spec = make_field(3, 1, 4)
        for x in field_elements(spec):
            assert from_coeffs(spec, list(x.coeffs)) == x
            assert from_coeffs(spec, x.coeffs) == x

    @pytest.mark.parametrize("coeffs, message", [
        ([1, 3], "not an integer in [0, 3)"),
        ([-1], "not an integer in [0, 3)"),
        ([1, 0], "trailing zero"),
        ([0], "trailing zero"),
        ([1, 1, 1, 1, 1], "more than the degree 4"),
        # bad and trailing at once: the coefficient error wins; too long wins over both
        ([3, 0], "coefficient 3 is not an integer in [0, 3)"),
        ([1, 0.0], "coefficient 0.0 is not an integer"),
        ([False], "coefficient False is not an integer"),
        ([3, 3, 3, 3, 0], "more than the degree 4"),
        ([True], "not an integer"),
        ([1.0], "not an integer"),
        (["1"], "not an integer"),
        ("12", "must be a list"),
        (5, "must be a list"),
    ])
    def test_from_coeffs_rejects_what_it_would_have_to_reduce(self, coeffs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            from_coeffs(make_field(3, 1, 4), coeffs)


# --- the packed arithmetic against the tuple reference (derandomized) --------

# (p, base degree, relative degree) for p in {2, 3, 5, 7, 47, 65521}
_ORACLE_FIELDS = [
    (2, 1, 1), (2, 1, 6), (2, 3, 4), (2, 8, 3), (3, 1, 1), (3, 1, 5), (3, 2, 6),
    (5, 1, 2), (5, 3, 4), (7, 1, 6), (7, 2, 3), (47, 1, 1), (47, 1, 4), (47, 2, 6),
    (65521, 1, 1), (65521, 1, 2), (65521, 1, 6), (65521, 2, 6),
]
# the working fields at the literal ceiling: m = 240 and m = 150
_LARGE_FIELDS = [(2, 40, 6), (3, 25, 6)]


def _draw_element(spec, data):
    """An element with every coefficient drawn: indices would stay small."""
    coeffs = data.draw(st.lists(st.integers(0, spec.p - 1), min_size=spec.m, max_size=spec.m))
    return FFElem(spec, coeffs)


def _agrees_with_reference(spec, a, b, e):
    p, mod = spec.p, spec.modulus
    ra, rb = a.coeffs, b.coeffs
    assert (a * b).coeffs == _pmod(_pmul(ra, rb, p), mod, p)
    assert (a + b).coeffs == _padd(ra, rb, p) and (a - b).coeffs == _psub(ra, rb, p)
    assert (-a).coeffs == _psub((), ra, p)
    if a:
        assert a.inverse().coeffs == _pinv(ra, mod, p)
        base, exponent = (a.inverse(), -e) if e < 0 else (a, e)
        assert (a ** e).coeffs == _ppowmod(base.coeffs, exponent, mod, p)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        assert (a ** abs(e)).coeffs == _ppowmod(ra, abs(e), mod, p)
    assert frobenius(a).coeffs == _ppowmod(ra, spec.q, mod, p)
    assert element_degree(a) == degree_over(ra, spec.q, spec.n, mod, p)


class TestAgainstTupleReference:
    @pytest.mark.parametrize("field", _ORACLE_FIELDS)
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_packed_arithmetic_matches(self, field, data):
        spec = make_field(*field)
        assert spec.modulus == canonical_modulus(spec.p, spec.m)
        a, b = _draw_element(spec, data), _draw_element(spec, data)
        _agrees_with_reference(spec, a, b, data.draw(st.integers(-30, 3000)))

    @settings(max_examples=4, deadline=None, derandomize=True, database=None)
    @given(field=st.sampled_from(_LARGE_FIELDS), data=st.data())
    def test_packed_arithmetic_matches_at_the_ceiling(self, field, data):
        spec = make_field(*field)
        a, b = _draw_element(spec, data), _draw_element(spec, data)
        _agrees_with_reference(spec, a, b, data.draw(st.integers(-30, 3000)))

    def test_ceiling_moduli(self):
        # The tuple search of the reference takes seconds here, so the moduli
        # it found are pinned; the reference proves them irreducible.
        pinned = {(2, 40, 6): {0: 1, 3: 1, 5: 1, 8: 1, 240: 1},
                  (3, 25, 6): {0: 2, 1: 1, 3: 1, 4: 1, 5: 1, 150: 1}}
        for field, terms in pinned.items():
            spec = make_field(*field)
            assert {i: c for i, c in enumerate(spec.modulus) if c} == terms
            assert _is_irreducible(spec.modulus, spec.p)


# the fields of the benchmark's realize-sweep (SWEEP_FIELDS in perfbench/corpus.py)
_SWEEP_LITERALS = ["2", "3", "2^2", "5", "7", "2^3", "3^2", "11", "13", "2^4", "17", "19",
                   "23", "5^2", "3^3", "29", "31", "2^5", "37", "41", "43", "47", "7^2"]


class TestModulusSearch:
    def test_every_sweep_modulus_matches_the_reference_search(self):
        searched = set()
        for literal in _SWEEP_LITERALS:
            base = parse_field_literal(literal)
            for n in range(1, 7):
                spec = make_field(base.p, base.base_degree, n)
                searched.add((spec.p, spec.m))
                assert spec.modulus == canonical_modulus(spec.p, spec.m), spec
        assert len(searched) == 113

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_irreducibility_and_the_root_sieve_match_the_reference(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 47, 65521]))
        m = data.draw(st.integers(1, 4 if p == 65521 else 8))
        f = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=m, max_size=m))) + (1,)
        ring = fields._ring(p, m)
        packed = ring.pack(f)
        assert fields._is_irreducible(p, m, packed) == _is_irreducible(f, p)
        # the sieve's verdict: f has a root in F_p, that is gcd(f, x^p - x) != 1
        rooted = f[0] in ring.rooted(packed - f[0])
        assert rooted == (len(_pgcd(f, _psub(_ppowmod((0, 1), p, f, p), (0, 1), p), p)) > 1)
        assert not (rooted and m > 1 and _is_irreducible(f, p))

    @pytest.mark.parametrize("field, modulus", [
        ((8191, 3, 4), (12, 1) + (0,) * 10 + (1,)),
        ((65519, 1, 4), (13, 1, 0, 0, 1)),
    ])
    def test_no_binomial_is_tested_where_none_is_irreducible(self, monkeypatch, field, modulus):
        # 4 | m and p = 3 mod 4: the whole line x^m + c is skipped, not its
        # p candidates tested one by one (8 191 and 65 519 tests)
        calls = []
        irreducible = fields._is_irreducible
        monkeypatch.setattr(fields, "_modulus", fields._modulus.__wrapped__)
        monkeypatch.setattr(fields, "_is_irreducible", lambda *args: calls.append(args)
                            or irreducible(*args))
        assert fields.make_field.__wrapped__(*field).modulus == modulus
        assert len(calls) <= 20

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_quintic_factors_of_a_degree_10_product_meet_the_last_gcd(self, p):
        # the batched test takes its gcds at k = 1, 2, 4 and m/2 = 5, so only
        # the last one sees the two smallest irreducible quintics
        quintics = []
        for index in range(p ** 5):
            f = tuple(index // p ** i % p for i in range(5)) + (1,)
            if _is_irreducible(f, p):
                quintics.append(f)
            if len(quintics) == 2:
                break
        irreducible = fields._is_irreducible.__wrapped__
        for f in quintics:
            assert irreducible(p, 5, fields._ring(p, 5).pack(f))
        assert not irreducible(p, 10, fields._ring(p, 10).pack(_pmul(*quintics, p)))

    def test_batched_gcds_of_the_3_25_working_field_search(self, monkeypatch):
        # the modulus of 3^150 ([Z/6Z] over 3^25): 106 candidates reach the
        # gcd test, which takes 355 gcds, one per power of 2 and at m/2,
        # where one per k took 719
        modulus, calls = make_field(3, 25, 6).modulus, []
        gcd = fields._Fp.gcd
        monkeypatch.setattr(fields, "_is_irreducible", fields._is_irreducible.__wrapped__)
        monkeypatch.setattr(fields._Fp, "gcd",
                            lambda ring, *args: calls.append(args) or gcd(ring, *args))
        assert fields._modulus.__wrapped__(3, 150) == modulus
        assert len(calls) == 355

    def test_one_search_per_p_and_m(self, monkeypatch):
        spec = make_field(3, 1, 4)
        calls = []
        span = fields._span
        monkeypatch.setattr(fields, "_span", lambda *args: calls.append(args) or span(*args))
        assert fields.make_field.__wrapped__(3, 2, 2).modulus == spec.modulus
        assert calls == []


# (p, m) with the least headroom for a sum of products: 2^(w-1) / (4 m p^2)
# is smallest when p - 1 and m lie just below powers of 2 (8191 and 15: 94 %)
_HEADROOM = [(47, 6), (65521, 7), (65521, 12), (8191, 15), (3, 150)]


class TestSumsOfProducts:
    @pytest.mark.parametrize("p,m", _HEADROOM)
    def test_reduce_at_its_largest_input(self, p, m):
        # 2m slots at the documented bound 3*m*p^2 leave p - 1 in every slot
        # above x^m, and g = (p - 1) * (1 + x + ... + x^(m-1)) folds most
        ring = fields._ring(p, m)
        slots = [3 * m * p * p - 1] * (2 * m)
        t = sum(v << (i * ring.w) for i, v in enumerate(slots))
        want = _pmod(tuple(v % p for v in slots), (1,) * (m + 1), p)
        assert tuple(ring.unpack(ring.reduce(t, ring.pack([p - 1] * m)))) == want

    @pytest.mark.parametrize("p,m", _HEADROOM + [(2, 240)])
    def test_minor_and_dot_at_the_largest_coefficients(self, p, m):
        ring, top = fields._ring(p, m), (p - 1,) * m
        big = g = ring.pack(top)
        f = (1,) * (m + 1)  # x^m - g
        for a, b, c, d in [(big, big, big, 0), (big, big, big, big), (big, 1, 0, big)]:
            ra, rb, rc, rd = (ring.unpack(v) for v in (a, b, c, d))
            want = _pmod(_psub(_pmul(ra, rb, p), _pmul(rc, rd, p), p), f, p)
            assert tuple(ring.unpack(ring.minor(a, b, c, d, g))) == want
        want = _pmod(_pmul((3,), _pmul(top, top, p), p), f, p)
        assert tuple(ring.unpack(ring.dot(big, big, big, big, big, big, g))) == want
        assert tuple(ring.unpack(ring.mul(big, big, g))) == _pmod(_pmul(top, top, p), f, p)


# library errors that no other test reaches, with their exact text
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: make_field(2, 0, 1), "degrees must be positive", id="make_field"),
    pytest.param(lambda: FFElem(make_field(7, 1, 1), (1,)) + FFElem(make_field(7, 1, 2), (1,)),
                 "elements of different fields", id="add"),
])
def test_library_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
