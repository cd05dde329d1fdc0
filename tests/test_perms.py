import random
import re
from collections import Counter

import pytest
from reference_perms import _closure as reference_closure
from reference_perms import (
    commuting_elements,
    order_by_cycles,
    smallest_conjugate_labeller,
    subgroups_by_pairs,
)

from delpezzo import perms as P
from delpezzo import selfcheck
from delpezzo.curvegraphs import graph_action
from delpezzo.fields import make_field, one
from delpezzo.perms import ClassLabel, Perm, Subgroup
from delpezzo.picard import h_class


def _label(name, deg=5):
    return ClassLabel(deg, name)


class TestPermBasics:
    def test_identity_roundtrip(self):
        e = Perm.identity(5)
        assert e.cycle_string() == "()"
        assert P.parse_perm("()", 5) == e

    def test_cycle_string_roundtrip(self):
        for text in ["(1 2)", "(1 2)(3 4)", "(1 2 3 4 5)", "(2 5)(3 4)", "(1 3 5)"]:
            g = P.parse_perm(text, 5)
            assert g.cycle_string() == text
            assert P.parse_perm(g.cycle_string(), 5) == g

    def test_comma_notation_accepted(self):
        assert P.parse_perm("(1,2)(3,4)", 5) == P.parse_perm("(1 2)(3 4)", 5)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            P.parse_perm("(1 2", 5)
        with pytest.raises(ValueError):
            P.parse_perm("(1 6)", 5)
        with pytest.raises(ValueError):
            P.parse_perm("(1 1 2)", 5)

    @pytest.mark.parametrize("text", ["(+1 2)", "(\u0661 2 3 4 5)", "(1 2_0)", "(1 a)"])
    def test_points_are_ascii_digits(self, text):
        with pytest.raises(ValueError) as err:
            P.parse_perm(text, 5)
        assert str(err.value) == f"cannot parse permutation {text!r}"

    def test_compose_applies_right_factor_first(self):
        a = P.parse_perm("(1 2)", 5)
        b = P.parse_perm("(2 3)", 5)
        assert (a * b)(3) == a(b(3)) == 1

    def test_product_with_an_int_is_a_type_error(self):
        with pytest.raises(TypeError):
            Perm([1, 0]) * 3

    def test_comparison_with_an_int_is_a_type_error(self):
        assert Perm([0, 1]).__lt__(1) is NotImplemented
        with pytest.raises(TypeError):
            Perm([0, 1]) < 1

    def test_inverse_and_order(self):
        g = P.parse_perm("(1 2 3)(4 5)", 5)
        assert g * g.inverse() == Perm.identity(5)
        assert g.order() == 6
        assert P.parse_perm("(1 2 3 4 5)", 5).order() == 5

    def test_order_is_least_power_giving_identity(self):
        for degree in (1, 4, 6):
            ident = Perm.identity(degree)
            for g in P.symmetric_group_elements(degree):
                h, n = g, 1
                while h != ident:
                    h, n = h * g, n + 1
                assert g.order() == n, g

    def test_order_divides_group_order(self):
        # sigma^(degree!) == identity for every sigma
        rng = random.Random(7)
        for _ in range(50):
            imgs = list(range(5))
            rng.shuffle(imgs)
            g = Perm(imgs)
            h = Perm.identity(5)
            for _ in range(120):
                h = h * g
            assert h == Perm.identity(5)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1, 2, 3))


class TestGenerateOrbits:
    def test_order12_group(self):
        g = P.generate(P.parse_generators("(1 2 3);(1 2);(4 5)", 5))
        assert g.order == 12

    def test_ascii_whitespace_around_generators(self):
        assert P.parse_generators(" (1 2)\t; (3,4)\n;", 5) == (
            P.parse_perm("(1 2)", 5), P.parse_perm("(3 4)", 5))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree mismatch"):
            P.generate([P.parse_perm("(1 2)", 5), P.parse_perm("(1 2)", 4)])

    def test_trivial_group_needs_degree(self):
        with pytest.raises(ValueError):
            P.generate([])
        assert P.generate([], degree=5).order == 1

    def test_orbits_double_transposition(self):
        g = P.generate([P.parse_perm("(1 2)(3 4)", 5)])
        assert P.orbits(g) == ((1, 2), (3, 4), (5,))

    def test_orbits_trivial(self):
        g = P.generate([], degree=5)
        assert P.orbits(g) == ((1,), (2,), (3,), (4,), (5,))

    def test_orbit_partition_property(self):
        # orbits partition {1..5} for any subgroup
        for sub in P.all_subgroups(5):
            flat = [p for o in P.orbits(sub) for p in o]
            assert sorted(flat) == [1, 2, 3, 4, 5]


class TestComplexity:
    # the full table used by the small-field dispatch
    TABLE = {
        "[e]": 5,
        "[<(1,2)>]": 3,
        "[<(1,2)(3,4)>]": 2,
        "[Z/3Z]": 2,
        "[Z/4Z]": 1,
        "[Z/5Z]": 1,
        "[Z/6Z]": 1,
    }

    def test_cyclic_complexities(self):
        for name, c in self.TABLE.items():
            rep = P.class_representative(name, 5)
            assert P.complexity(rep) == c, name

    def test_complexity_five_iff_trivial(self):
        for sub in P.all_subgroups(5):
            assert (P.complexity(sub) == 5) == (sub.order == 1)


class TestCentralizer:
    def test_transposition(self):
        c = P.centralizer(P.class_representative("[<(1,2)>]", 5))
        assert c.order == 12

    def test_five_cycle(self):
        c = P.centralizer(P.class_representative("[Z/5Z]", 5))
        assert c.order == 5
        assert c.is_cyclic

    def test_every_element_commutes(self):
        for name in ["[Z/6Z]", "[D4]", "[A4]", "[S3xZ/2Z]"]:
            rep = P.class_representative(name, 5)
            c = P.centralizer(rep)
            for s in c.elements:
                for g in rep.elements:
                    assert s * g == g * s


class TestSubgroupLattice:
    # independent census: subgroup counts of S5 by order, derived by
    # combinatorial counting (transpositions, 4-subsets, Sylow theory)
    CENSUS_BY_ORDER = {
        1: 1,
        2: 25,
        3: 10,
        4: 35,
        5: 6,
        6: 30,
        8: 15,
        10: 6,
        12: 15,
        20: 6,
        24: 5,
        60: 1,
        120: 1,
    }
    CLASS_SIZES = {
        "[e]": 1,
        "[<(1,2)>]": 10,
        "[<(1,2)(3,4)>]": 15,
        "[<(1,2),(3,4)>]": 15,
        "[<(1,2)(3,4),(1,3)(2,4)>]": 5,
        "[Z/3Z]": 10,
        "[Z/4Z]": 15,
        "[Z/5Z]": 6,
        "[Z/6Z]": 10,
        "[D4]": 15,
        "[D5]": 6,
        "[<(1,2,3),(1,2)>]": 10,
        "[<(1,2,3),(1,2)(4,5)>]": 10,
        "[S3xZ/2Z]": 10,
        "[A4]": 5,
        "[A5]": 1,
        "[S4]": 5,
        "[S5]": 1,
        "[GA(1,5)]": 6,
    }

    def test_156_subgroups(self):
        assert len(P.all_subgroups(5)) == 156

    def test_census_by_order(self):
        counts = Counter(s.order for s in P.all_subgroups(5))
        assert dict(counts) == self.CENSUS_BY_ORDER

    def test_19_classes_in_canonical_order(self):
        classes = P.subgroup_classes(5)
        assert [lbl.name for lbl, _ in classes] == list(P.class_names(5))
        assert len(classes) == 19

    def test_class_sizes(self):
        sizes = Counter(P.class_label(s, 5).name for s in P.all_subgroups(5))
        assert dict(sizes) == self.CLASS_SIZES

    def test_class_label_is_conjugation_invariant(self):
        s5 = P.symmetric_group_elements(5)
        for sub in P.all_subgroups(5):
            base = P.class_label(sub, 5)
            for g in s5[::17]:  # deterministic sample of conjugators
                conj = P.generate(
                    [g * h * g.inverse() for h in sub.generators] or [], degree=5
                )
                assert P.class_label(conj, 5) == base

    def test_exactly_seven_cyclic_classes(self):
        cyc = [lbl.name for lbl, rep in P.subgroup_classes(5) if rep.is_cyclic]
        assert cyc == [
            "[e]",
            "[<(1,2)>]",
            "[<(1,2)(3,4)>]",
            "[Z/3Z]",
            "[Z/4Z]",
            "[Z/5Z]",
            "[Z/6Z]",
        ]

    def test_sixtyseven_cyclic_subgroups(self):
        # 1 + 10 + 15 + 10 + 15 + 6 + 10 of orders 1,2,2,3,4,5,6
        assert sum(s.is_cyclic for s in P.all_subgroups(5)) == 67

    def test_iteration_and_membership(self):
        group = P.class_representative("[D4]", 5)
        assert list(group) == list(group.elements)
        assert all(g in group for g in group.elements)
        outside = [g for g in P.symmetric_group_elements(5) if g not in group.elements]
        assert len(outside) == 120 - group.order
        assert not any(g in group for g in outside)

    def test_ga15_label(self):
        g = P.generate(P.parse_generators("(1 2 3 4 5);(2 3 5 4)", 5))
        assert g.order == 20
        assert P.class_label(g, 5).name == "[GA(1,5)]"

    def test_contains_order5(self):
        assert P.contains_order5(P.class_representative("[D5]", 5))
        assert P.contains_order5(P.class_representative("[A5]", 5))
        assert not P.contains_order5(P.class_representative("[S3xZ/2Z]", 5))
        assert not P.contains_order5(P.class_representative("[S4]", 5))

    def test_order5_maximality(self):
        # S3xZ/2Z and S4 are maximal among subgroups without an order-5 element
        subs = P.all_subgroups(5)
        for name in ["[S3xZ/2Z]", "[S4]"]:
            for sub in subs:
                if P.class_label(sub, 5).name != name:
                    continue
                assert not P.contains_order5(sub)
                for over in subs:
                    if sub != over and sub <= over:
                        assert P.contains_order5(over), (name, over)

    @pytest.fixture
    def fresh_pinned_table(self):
        # the pinned table and the lattice read off it are cached per ambient
        # group; rebuild them from the patched generators, and drop that
        # build again afterwards
        caches = (P._pinned_classes, P.all_subgroups)
        for cached in caches:
            cached.cache_clear()
        yield
        for cached in caches:
            cached.cache_clear()

    def test_conjugate_pinned_representatives_rejected(self, monkeypatch, fresh_pinned_table):
        reps = P._REP_GENS_6 + (("[dup]", (("(2 3)", 0),)),)
        monkeypatch.setattr(P, "_REP_GENS_6", reps)
        with pytest.raises(RuntimeError, match="are conjugate"):
            P._Lattice(6)

    def test_pinned_representatives_must_cover_every_class(self, monkeypatch, fresh_pinned_table):
        # the lattice is the conjugates of the pinned classes, so a class left
        # out of the table is left out of the lattice too; the pinned subgroup
        # count in check-paper's class census is what catches it
        monkeypatch.setattr(P, "_REP_GENS_6", P._REP_GENS_6[:-1])
        ok, detail = selfcheck.check_class_census()
        assert not ok
        assert "census mismatch" in detail
        assert "15 subgroups" in detail


_AMBIENTS = [(5, P.symmetric_group_elements(5)), (6, P.hexagon_group_elements())]


class TestLatticeOracles:
    @pytest.mark.parametrize("degree, ambient", _AMBIENTS)
    def test_lattice_is_the_closures_of_all_pairs(self, degree, ambient):
        # the conjugates of the pinned representatives are exactly the
        # subgroups generated by two elements, i.e. every subgroup
        subgroups = P.all_subgroups(degree)
        found = {frozenset(g.images for g in sub.elements) for sub in subgroups}
        assert len(found) == len(subgroups) == {5: 156, 6: 16}[degree]
        assert found == subgroups_by_pairs(ambient)

    @pytest.mark.parametrize("degree", [5, 6])
    def test_lattice_generators_are_the_greedy_ones(self, degree):
        for sub in P.all_subgroups(degree):
            assert sub.generators == P._reduced_generators(sub.elements, degree)
            assert P.generate(sub.generators, degree) == sub

    @pytest.mark.parametrize("degree", [5, 6])
    def test_lattice_is_sorted_by_order_then_elements(self, degree):
        subgroups = P.all_subgroups(degree)
        assert list(subgroups) == sorted(subgroups, key=lambda s: (s.order, s.elements))

    def test_a_build_compares_and_multiplies_no_perm(self, monkeypatch):
        # with the pinned classes and the hexagon group filled, the lattice
        # closes and sorts image tuples and makes Perms only for the Subgroups
        # it returns, which sort by image tuple too
        P._pinned_classes(5), P._pinned_classes(6), P.hexagon_group_elements()
        calls = Counter()
        for name in ("__eq__", "__lt__", "__mul__"):
            def counting(*args, _real=getattr(Perm, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(Perm, name, counting)
        assert len(P._Lattice(5)) + len(P._Lattice(6)) == 172
        assert calls == Counter()

    def test_generate_and_orbits_agree_with_the_reference_closure(self):
        # random generator sets in degrees 1..6, closed by the brute-force
        # oracle; the orbit of i is {h(i) : h in the group}
        rng = random.Random(20261021)
        for degree in range(1, 7):
            points = list(range(degree))
            for _ in range(25):
                gens = [Perm(rng.sample(points, degree)) for _ in range(rng.randint(0, 3))]
                group = reference_closure([g.images for g in gens], degree)
                sub = P.generate(gens, degree)
                assert [h.images for h in sub.elements] == sorted(group)
                assert P.orbits(sub) == tuple(sorted(
                    {tuple(sorted({h[i] + 1 for h in group})) for i in points}))

    def test_centralizer_is_the_commuting_set(self):
        s5 = P.symmetric_group_elements(5)
        for sub in P.all_subgroups(5):
            cent = P.centralizer(sub)
            assert {g.images for g in cent.elements} == commuting_elements(s5, sub)
            assert P.generate(cent.generators, 5) == cent
            assert cent.generators == P._reduced_generators(cent.elements, 5)

    @pytest.mark.parametrize("degree, ambient", _AMBIENTS)
    def test_order_is_the_lcm_of_cycle_lengths(self, degree, ambient):
        for g in ambient:
            assert g.order() == order_by_cycles(g.images)
            assert g.order() == order_by_cycles(g.images)  # read from the cache


class TestSubgroupIdentity:
    # a Subgroup's value is its degree and elements, compared and hashed
    # through perms._Record; the generators only name it
    def test_hash_is_the_hash_of_degree_and_elements(self):
        subgroups = P.all_subgroups(5) + P.all_subgroups(6)
        assert len(subgroups) == 172
        for sub in subgroups:
            assert hash(sub) == hash((sub.degree, sub.elements))

    def test_generators_do_not_count(self):
        five_cycle = P.parse_perm("(1 2 3 4 5)", 5)
        a = P.generate([five_cycle])
        b = P.generate([five_cycle * five_cycle, five_cycle.inverse()])
        assert a.generators != b.generators
        assert a == b and not a != b and hash(a) == hash(b)

    def test_a_non_subgroup_is_not_implemented(self):
        sub = P.class_representative("[Z/5Z]", 5)
        for other in (sub.elements, (sub.degree, sub.elements), ClassLabel(5, "[Z/5Z]")):
            assert sub.__eq__(other) is NotImplemented
            assert (sub == other) is False and sub != other


class TestPermIdentity:
    # a Perm's value is its image tuple alone, compared and hashed through
    # perms._Record, so a Perm hashes as that tuple
    @pytest.mark.parametrize("degree, ambient", _AMBIENTS)
    def test_hash_is_the_hash_of_the_images(self, degree, ambient):
        assert len(ambient) == {5: 120, 6: 12}[degree]
        for g in ambient:
            assert hash(g) == hash(g.images)

    @pytest.mark.parametrize("degree, ambient", _AMBIENTS)
    def test_equal_images_give_equal_perms(self, degree, ambient):
        for g in ambient:
            twin = Perm(list(g.images))
            assert twin == g and not twin != g and hash(twin) == hash(g) and twin is not g

    def test_a_non_perm_is_not_implemented(self):
        g = P.parse_perm("(1 2 3)", 5)
        assert g.__eq__(1) is NotImplemented and g.__eq__(g.images) is NotImplemented
        assert (g == 1) is False and g != g.images


class TestClassLabels:
    def test_label_prints_as_its_name(self):
        assert str(ClassLabel(5, "[e]")) == "[e]"

    @pytest.mark.parametrize("degree, ambient", [
        (5, P.symmetric_group_elements(5)), (6, P.hexagon_group_elements()),
    ])
    def test_census_label_matches_smallest_conjugate(self, degree, ambient):
        oracle = smallest_conjugate_labeller(
            ambient, [(lbl.name, rep) for lbl, rep in P.subgroup_classes(degree)])
        subgroups = P.all_subgroups(degree)
        assert len(subgroups) == {5: 156, 6: 16}[degree]
        for sub in subgroups:
            assert P.class_label(sub, degree).name == oracle(sub), sub

    @pytest.mark.parametrize("gens, degree, context", [
        ("(1 2)", 4, 5),
        ("()", 4, 5),
        ("(1 2)", 6, 6),
        ("(1 2 3)", 6, 6),
        ("(1 2)", 5, 6),
    ])
    def test_group_outside_the_ambient_group(self, gens, degree, context):
        group = P.generate(P.parse_generators(gens, degree), degree)
        with pytest.raises(ValueError) as err:
            P.class_label(group, context)
        assert str(err.value) == "not a subgroup of the ambient group"

    def test_element_set_that_is_not_a_group(self):
        pair = [Perm.identity(5), P.parse_perm("(1 2 3)", 5)]
        with pytest.raises(ValueError, match="not a subgroup of the ambient group"):
            P.class_label(Subgroup(5, pair[1:], pair), 5)


class TestHexagonGroup:
    def test_twelve_elements(self):
        assert len(P.hexagon_group_elements()) == 12

    def test_sixteen_subgroups_ten_classes(self):
        assert len(P.all_subgroups(6)) == 16
        assert len(P.subgroup_classes(6)) == 10

    def test_antipodal_element(self):
        # (id, 1) acts on the hexagon as the central symmetry i -> i+3
        g = P.hex_element(Perm.identity(3), 1)
        assert g.cycle_string() == "(1 4)(2 5)(3 6)"

    def test_rotation_element(self):
        g = P.hex_element(P.parse_perm("(1 2 3)", 3), 0)
        assert g.order() == 3  # 120-degree rotation

    def test_decompose_roundtrip(self):
        for s in P.symmetric_group_elements(3):
            for eps in (0, 1):
                g = P.hex_element(s, eps)
                assert P.hex_decompose(g) == (s, eps)

    def test_decompose_rejects_non_symmetry(self):
        with pytest.raises(ValueError):
            P.hex_decompose(P.parse_perm("(1 2)", 6))

    def test_embed_s5(self):
        g = P.hex_embed_s5(P.parse_perm("(1 2)", 3), 1)
        assert g.cycle_string() == "(1 2)(4 5)"

    @pytest.mark.parametrize("eps", [2, -1])
    def test_embed_s5_rejects_bad_eps(self, eps):
        s = P.parse_perm("(1 2)", 3)
        with pytest.raises(ValueError, match="eps must be 0 or 1"):
            P.hex_embed_s5(s, eps)
        with pytest.raises(ValueError, match="eps must be 0 or 1"):
            P.hex_element(s, eps)

    def test_decompose_rejects_every_non_symmetry(self):
        hexagon = set(P.hexagon_group_elements())
        for g in P.symmetric_group_elements(6):
            if g not in hexagon:
                with pytest.raises(ValueError, match="not a symmetry of the hexagon"):
                    P.hex_decompose(g)

    def test_cyclic_degree6_classes(self):
        cyc = [lbl.name for lbl, rep in P.subgroup_classes(6) if rep.is_cyclic]
        assert cyc == [
            "[e]",
            "[<((1,2),0)>]",
            "[<((1,2),1)>]",
            "[<(id,1)>]",
            "[Z/3]",
            "[Z/6]",
        ]

    def test_class_label_invariance_degree6(self):
        for sub in P.all_subgroups(6):
            base = P.class_label(sub, 6)
            for g in P.hexagon_group_elements():
                conj = P.generate(
                    [g * h * g.inverse() for h in sub.generators] or [], degree=6
                )
                assert P.class_label(conj, 6) == base


class TestCyclicGenerator:
    def test_picks_generator(self):
        rep = P.class_representative("[Z/6Z]", 5)
        g = P.cyclic_generator(rep)
        assert g.order() == 6
        assert P.generate([g]) == rep

    def test_rejects_non_cyclic(self):
        with pytest.raises(ValueError, match="not cyclic"):
            P.cyclic_generator(P.class_representative("[S4]", 5))

    def test_trivial(self):
        assert P.cyclic_generator(P.generate([], degree=5)) == Perm.identity(5)


# library errors that no other test reaches, with their exact text
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: Perm(range(5))(6), "point 6 out of range 1..5", id="point"),
    # a huge point is not echoed: the text stays short, and past 4 300 digits
    # Python refuses to write the int at all
    pytest.param(lambda: Perm(range(5))(10 ** 700), "point out of range 1..5", id="point_huge"),
    pytest.param(lambda: Perm(range(5))(10 ** 5000), "point out of range 1..5",
                 id="point_past_the_str_limit"),
    pytest.param(lambda: Perm(range(5))(-10 ** 5000), "point out of range 1..5",
                 id="point_negative_past_the_str_limit"),
    pytest.param(lambda: Perm(range(5)) * Perm(range(4)), "degree mismatch", id="product"),
    pytest.param(lambda: P.centralizer(P.generate([], 6)),
                 "centralizer is taken inside S5; expected degree 5", id="centralizer"),
    pytest.param(lambda: P.hexagon_restriction(P.parse_perm("(1 4)", 5)),
                 "not in stabilizer", id="hexagon_restriction"),
    pytest.param(lambda: P.hexagon_restriction(P.parse_perm("(6 7)", 7)),
                 "expected an element of S5", id="hexagon_restriction_degree7"),
    pytest.param(lambda: P.hexagon_restriction(P.parse_perm("(1 6)", 6)),
                 "expected an element of S5", id="hexagon_restriction_degree6"),
    pytest.param(lambda: P.hex_embed_s5(Perm([1, 0]), 0),
                 "the S3 factor must be a permutation of degree 3", id="hex_embed_s5"),
    pytest.param(lambda: P.hex_decompose(Perm(range(5))),
                 "expected a vertex permutation of degree 6", id="hex_decompose"),
    pytest.param(lambda: P.class_representative("[e]"),
                 "degree_context is required with a string label", id="class_representative"),
    pytest.param(lambda: P.class_representative(ClassLabel(6, "[e]"), 5),
                 "class label '[e]' is for degree 6, not 5", id="class_representative_degree"),
    pytest.param(lambda: P.class_label(P.generate([], 5), 7), "unsupported degree",
                 id="class_label"),
    pytest.param(lambda: P.parse_perm("()", 10 ** 700), "permutation degree must be in 0..10",
                 id="parse_perm_huge"),
    pytest.param(lambda: P.parse_perm("()", 11), "permutation degree must be in 0..10",
                 id="parse_perm_11"),
    pytest.param(lambda: P.parse_perm("()", -1), "permutation degree must be in 0..10",
                 id="parse_perm_negative"),
    pytest.param(lambda: P.parse_generators("(1 2)", 10 ** 700),
                 "permutation degree must be in 0..10", id="parse_generators_huge"),
    pytest.param(lambda: P.parse_generators("", 11), "permutation degree must be in 0..10",
                 id="parse_generators_empty_11"),
    pytest.param(lambda: Perm.identity(10 ** 700), "permutation degree must be in 0..10",
                 id="identity_huge"),
    pytest.param(lambda: Perm.identity(11), "permutation degree must be in 0..10",
                 id="identity_11"),
    pytest.param(lambda: P.symmetric_group_elements(10 ** 700), "group degree must be in 1..6",
                 id="symmetric_group_huge"),
    pytest.param(lambda: P.symmetric_group_elements(7), "group degree must be in 1..6",
                 id="symmetric_group_7"),
    pytest.param(lambda: P.symmetric_group_elements(0), "group degree must be in 1..6",
                 id="symmetric_group_0"),
    pytest.param(lambda: P.symmetric_group_elements(-1), "group degree must be in 1..6",
                 id="symmetric_group_negative"),
    pytest.param(lambda: P.generate([], -1), "group degree must be in 1..6",
                 id="generate_negative"),
    pytest.param(lambda: P.generate([], 7), "group degree must be in 1..6", id="generate_7"),
    pytest.param(lambda: P.complexity(P.generate([], 0)), "group degree must be in 1..6",
                 id="complexity_degree0"),
])
def test_library_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# an operand of a foreign type is a TypeError, as for Perm, in the other value types;
# a subtraction names its own operator
@pytest.mark.parametrize("call, text", [
    pytest.param(lambda: one(make_field(7, 1, 1)) + 1, "", id="FFElem+"),
    pytest.param(lambda: one(make_field(7, 1, 1)) - 1, "", id="FFElem-"),
    pytest.param(lambda: one(make_field(7, 1, 1)) * 1, "", id="FFElem*"),
    pytest.param(lambda: one(make_field(7, 1, 1)) / 1, "", id="FFElem/"),
    pytest.param(lambda: h_class(5) + 1, "", id="PicClass+"),
    pytest.param(lambda: h_class(5) - 1, "unsupported operand type(s) for -: 'PicClass' and 'int'",
                 id="PicClass-"),
    pytest.param(lambda: h_class(5) - "a", "unsupported operand type(s) for -: 'PicClass' and 'str'",
                 id="PicClass-str"),
    pytest.param(lambda: 0.5 * h_class(5), "", id="PicClass*"),
    pytest.param(lambda: P.generate([], 5) <= 1, "", id="Subgroup<="),
    pytest.param(lambda: graph_action(Perm(range(5))) * 1,
                 "unsupported operand type(s) for *: 'VertexPerm' and 'int'", id="VertexPerm*"),
])
def test_foreign_operands(call, text):
    with pytest.raises(TypeError) as err:
        call()
    assert text in str(err.value)
