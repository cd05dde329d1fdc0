"""Automorphism table, realizability predicates, minimal existence."""

import re
import time

import pytest

from delpezzo.classify import (
    AutDescription,
    FieldCapability,
    TRIVIAL_AUT_TYPES,
    aut_group_of,
    aut_table,
    custom,
    finite,
    g_minimal_exists,
    number_field,
    realizable,
)
from delpezzo.perms import (
    ClassLabel,
    centralizer,
    class_names,
    class_representative,
    contains_order5,
    all_subgroups,
    generate,
    parse_generators,
)
from delpezzo.picard import is_g_minimal

EXPECTED_ROWS = [
    ("[e]", "S5"),
    ("[<(1,2)>]", "S3xZ/2Z"),
    ("[<(1,2)(3,4)>]", "D4"),
    ("[<(1,2),(3,4)>]", "Z/2ZxZ/2Z"),
    ("[<(1,2)(3,4),(1,3)(2,4)>]", "Z/2ZxZ/2Z"),
    ("[Z/3Z]", "Z/6Z"),
    ("[Z/6Z]", "Z/6Z"),
    ("[Z/4Z]", "Z/4Z"),
    ("[Z/5Z]", "Z/5Z"),
    ("[<(1,2,3),(1,2)>]", "Z/2Z"),
    ("[<(1,2,3),(1,2)(4,5)>]", "Z/2Z"),
    ("[D4]", "Z/2Z"),
    ("[S3xZ/2Z]", "Z/2Z"),
    ("[S5]", "e"),
    ("[A5]", "e"),
    ("[S4]", "e"),
    ("[A4]", "e"),
    ("[D5]", "e"),
    ("[GA(1,5)]", "e"),
]


class TestAutTable:
    def test_all_nineteen_rows_in_order(self):
        assert [(r.label.name, r.group_name) for r in aut_table()] == EXPECTED_ROWS

    def test_groups_are_the_recomputed_centralizers(self):
        for row in aut_table():
            rep = class_representative(row.label)
            assert row.aut_group == centralizer(rep)

    def test_structural_names_match_group_shape(self):
        orders = {"S5": 120, "S3xZ/2Z": 12, "D4": 8, "Z/2ZxZ/2Z": 4,
                  "Z/6Z": 6, "Z/4Z": 4, "Z/5Z": 5, "Z/2Z": 2, "e": 1}
        for row in aut_table():
            g = row.aut_group
            assert g.order == orders[row.group_name]
            max_order = max(e.order() for e in g.elements)
            if row.group_name == "S3xZ/2Z":
                assert not g.is_cyclic and max_order == 6
            elif row.group_name == "D4":
                assert not g.is_cyclic and max_order == 4
            elif row.group_name == "Z/2ZxZ/2Z":
                assert not g.is_cyclic and max_order == 2
            elif row.group_name.startswith("Z/"):
                assert g.is_cyclic
            elif row.group_name == "S5":
                assert g.order == 120
            else:
                assert g.order == 1

    def test_trivial_aut_types(self):
        assert TRIVIAL_AUT_TYPES == {
            "[S5]", "[A5]", "[S4]", "[A4]", "[D5]", "[GA(1,5)]"
        }
        for row in aut_table():
            assert (row.aut_group.order == 1) == (row.label.name in TRIVIAL_AUT_TYPES)

    def test_minimal_types_have_tiny_aut_groups(self):
        # a type whose representative has an element of order 5 is minimal
        # even with trivial extra action; its automorphisms are at most Z/5Z
        for row in aut_table():
            if contains_order5(class_representative(row.label)):
                assert row.group_name in ("e", "Z/5Z")

    def test_lookup(self):
        assert aut_group_of("[Z/3Z]").group_name == "Z/6Z"
        assert aut_group_of("[D4]").group_name == "Z/2Z"
        with pytest.raises(ValueError):
            aut_group_of("[Z/9Z]")

    def test_mismatched_name_rejected(self):
        rep = class_representative("[e]", 5)
        with pytest.raises(ValueError):
            AutDescription(ClassLabel(5, "[e]"), "Z/2Z", centralizer(rep))


class TestCapabilities:
    def test_finite_needs_prime_power(self):
        for q in (2, 9, 16, 27, 2**40, 3**25, 65521**2, 100000007):
            assert finite(q).q == q
        for bad in (1, 6, 10, 12, 0, -5, 10007 * 10009, 2**40 * 3):
            with pytest.raises(ValueError):
                finite(bad)

    def test_finite_of_a_large_prime_is_quick(self):
        # trial division stops at the cube root (about 230 steps here); a scan
        # up to q itself took seconds
        start = time.perf_counter()
        assert finite(100000007).q == 100000007
        assert time.perf_counter() - start < 1.0

    def test_finite_of_a_prime_near_the_ceiling_is_quick(self):
        # trial division stops at the cube root (5 000 odd steps) and Miller-
        # Rabin decides the rest, where the square root would be 5 * 10^5
        # steps; best of 3, so one descheduled run does not fail it
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            assert finite(10 ** 12 + 39).q == 10 ** 12 + 39
            timings.append(time.perf_counter() - start)
        assert min(timings) < 0.005

    def test_finite_refuses_q_above_the_base_field_ceiling_quickly(self):
        # trial division to the square root of 2^61 - 1 ran for seconds; q
        # above 2^40, the ceiling field literals have, is refused before it
        start = time.perf_counter()
        for q in (2**61 - 1, 2**64, 2**40 + 15):
            with pytest.raises(ValueError, match="at most 2\\^40"):
                finite(q)
        assert time.perf_counter() - start < 1.0

    def test_finite_accepts_the_largest_prime_below_the_ceiling(self):
        assert finite(2**40 - 87).q == 1099511627689

    def test_prime_power_test_matches_the_factor_count(self):
        def prime_factors(n):
            return {d for d in range(2, n + 1)
                    if n % d == 0 and all(d % k for k in range(2, d))}

        for q in range(2, 2000):
            is_power = len(prime_factors(q)) == 1
            try:
                finite(q)
            except ValueError:
                assert not is_power, q
            else:
                assert is_power, q

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            FieldCapability("p-adic")


class TestRealizable:
    def test_finite_field_is_the_cyclic_condition(self):
        expected_true = {"[e]", "[<(1,2)>]", "[<(1,2)(3,4)>]", "[Z/3Z]",
                         "[Z/4Z]", "[Z/5Z]", "[Z/6Z]"}
        for q in (2, 3, 4, 9):
            for name in class_names(5):
                assert realizable(name, finite(q)) == (name in expected_true)

    def test_number_field_realizes_everything(self):
        for name in class_names(5):
            assert realizable(name, number_field())
        assert realizable("[A5]", number_field())

    def test_degree_six(self):
        assert realizable("[Z/6]", finite(2), degree_context=6)
        assert not realizable("[S3xZ/2]", finite(2), degree_context=6)
        assert realizable("[S3xZ/2]", number_field(), degree_context=6)

    def test_custom(self):
        cap = custom(["[e]", "[D5]"])
        assert realizable("[D5]", cap)
        assert not realizable("[S5]", cap)


class TestGMinimalExists:
    def test_order_five_group_any_capability(self):
        group = generate(parse_generators("(1 2 3 4 5)", 5))
        for cap in (finite(2), finite(7), number_field(), custom([])):
            ok, witness = g_minimal_exists(group, cap)
            assert ok and witness == ClassLabel(5, "[e]")

    def test_trivial_group_finite_field(self):
        group = generate([], degree=5)
        ok, witness = g_minimal_exists(group, finite(4))
        assert ok and witness == ClassLabel(5, "[Z/5Z]")

    def test_trivial_group_number_field(self):
        group = generate([], degree=5)
        ok, witness = g_minimal_exists(group, number_field())
        assert ok and witness == ClassLabel(5, "[Z/5Z]")

    def test_transposition_group_finite_field(self):
        group = generate(parse_generators("(1 2)", 5))
        assert g_minimal_exists(group, finite(5)) == (False, None)

    def test_trivial_group_weak_custom_capability(self):
        group = generate([], degree=5)
        assert g_minimal_exists(group, custom(["[e]", "[Z/3Z]"])) == (False, None)
        ok, witness = g_minimal_exists(group, custom(["[D5]", "[S5]"]))
        assert ok and witness == ClassLabel(5, "[D5]")

    def test_agrees_with_brute_force_over_all_subgroups(self):
        # an image of Frobenius is a cyclic subgroup commuting with the
        # acting group; search them all and compare with the predicate
        cyclic_subgroups = [s for s in all_subgroups(5) if s.is_cyclic]
        for group in all_subgroups(5):
            commuting = set(centralizer(group).elements)
            brute = any(
                set(h.elements) <= commuting and is_g_minimal(group, h)
                for h in cyclic_subgroups
            )
            assert g_minimal_exists(group, finite(3))[0] == brute


# library errors that no other test reaches, with their exact text
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: g_minimal_exists(class_representative("[Z/3]", 6), finite(2)),
                 "degree mismatch", id="g_minimal_exists"),
    pytest.param(lambda: aut_group_of(ClassLabel(6, "[e]")),
                 "class label '[e]' is for degree 6, not 5", id="aut_group_of_degree6"),
    pytest.param(lambda: realizable(ClassLabel(6, "[Z/6]"), finite(7), 5),
                 "class label '[Z/6]' is for degree 6, not 5", id="realizable_degree6"),
])
def test_library_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
