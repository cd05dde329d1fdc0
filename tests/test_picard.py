import itertools
import re

import pytest

from delpezzo import curvegraphs as C
from delpezzo import perms as P
from delpezzo import picard as L
from delpezzo.picard import PicClass

from reference_picard import integer_rank


def orbit_count_on_conics(group):
    """Oracle: count orbits of the induced action on the 5 conic classes."""
    conics = list(L.conic_classes())
    actions = [L.induced_lattice_action(g) for g in group.generators]
    seen = set()
    orbits = 0
    for c in conics:
        if c in seen:
            continue
        orbits += 1
        frontier = [c]
        seen.add(c)
        while frontier:
            x = frontier.pop()
            for a in actions:
                y = a.apply(x)
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return orbits


class TestForm:
    def test_selfintersections(self):
        h = L.h_class(5)
        assert L.intersect(h, h) == 1
        for i in range(1, 5):
            e = L.e_class(5, i)
            assert L.intersect(e, e) == -1
            assert L.intersect(h, e) == 0

    def test_canonical_class_squares(self):
        for deg in (5, 6):
            k = L.canonical_class(deg)
            assert L.intersect(k, k) == deg

    def test_line_classes_meet_once(self):
        h = L.h_class(5)
        l12 = h - L.e_class(5, 1) - L.e_class(5, 2)
        l34 = h - L.e_class(5, 3) - L.e_class(5, 4)
        assert L.intersect(l12, l34) == 1
        assert L.intersect(l12, l12) == -1

    def test_mismatched_contexts(self):
        with pytest.raises(ValueError, match="mismatched degree contexts"):
            L.intersect(L.h_class(5), L.h_class(6))

    def test_json_form(self):
        e2 = L.e_class(5, 2)
        assert e2.to_json_dict() == {
            "basis": "H,E1,E2,E3,E4",
            "coords": [0, 0, 1, 0, 0],
        }

    def test_string_forms(self):
        h = L.h_class(5)
        e = [L.e_class(5, i) for i in range(1, 5)]
        assert str(h - e[0] - e[1]) == "H-E1-E2"
        assert str(L.conic_classes()[4]) == "2H-E1-E2-E3-E4"
        assert str(-e[0]) == "-E1"
        assert str(h - h) == "0"
        assert str(L.canonical_class(6)) == "-3H+E1+E2+E3"


class TestMinusOneClasses:
    def test_count_and_defining_equations(self):
        for deg, n in ((5, 10), (6, 6)):
            classes = L.minus_one_classes(deg)
            assert len(classes) == n
            k = L.canonical_class(deg)
            for cls, _ in classes:
                assert L.intersect(cls, cls) == -1
                assert L.intersect(cls, k) == -1

    def test_labels_match_kneser_adjacency(self):
        # intersection number 1 exactly when labels are disjoint,
        # for both degrees — the labeled graphs agree with curve_graph
        for deg in (5, 6):
            classes = L.minus_one_classes(deg)
            graph = C.curve_graph(deg)
            assert tuple(lab for _, lab in classes) == graph.vertices
            for (c1, l1), (c2, l2) in itertools.combinations(classes, 2):
                meets = L.intersect(c1, c2) == 1
                assert meets == graph.adjacent(l1, l2)
                assert meets == (not (l1 & l2))

    def test_specific_labels(self):
        classes = dict((lab, cls) for cls, lab in L.minus_one_classes(5))
        assert classes[frozenset({1, 5})] == L.e_class(5, 1)
        assert classes[frozenset({3, 4})] == (
            L.h_class(5) - L.e_class(5, 1) - L.e_class(5, 2)
        )


class TestConicClasses:
    def test_defining_equations(self):
        k = L.canonical_class(5)
        conics = L.conic_classes()
        assert len(conics) == 5
        for c in conics:
            assert L.intersect(c, c) == 0
            assert L.intersect(c, -1 * k) == 2

    def test_action_permutes_them_naturally(self):
        # the induced action on conic classes is the natural S5 action:
        # Q_i -> Q_sigma(i) where Q_5 = 2H - sum(E)
        conics = L.conic_classes()
        for sigma in P.symmetric_group_elements(5):
            a = L.induced_lattice_action(sigma)
            for i, q in enumerate(conics, start=1):
                assert a.apply(q) == conics[sigma(i) - 1]

    def test_they_are_a_rational_basis(self):
        # coordinate matrix over (H, E1, .., E4), by cofactor expansion
        def det(m):
            if not m:
                return 1
            return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]])
                       for j in range(len(m)))

        assert det([list(c.coords) for c in L.conic_classes()]) == -2


class TestInducedAction:
    def test_is_isometry_and_fixes_k(self):
        # construction-time validation would raise otherwise; spot-check apply
        k = L.canonical_class(5)
        for sigma in P.symmetric_group_elements(5)[::11]:
            a = L.induced_lattice_action(sigma)
            assert a.apply(k) == k

    def test_homomorphism(self):
        s5 = P.symmetric_group_elements(5)
        for a in s5[::13]:
            for b in s5[::17]:
                lhs = L.induced_lattice_action(a * b).matrix
                am = L.induced_lattice_action(a)
                bm = L.induced_lattice_action(b)
                prod = tuple(
                    tuple(
                        sum(am.matrix[i][k] * bm.matrix[k][j] for k in range(5))
                        for j in range(5)
                    )
                    for i in range(5)
                )
                assert lhs == prod

    def test_permutes_minus_one_classes_by_graph_action(self):
        for sigma in P.symmetric_group_elements(5)[::9]:
            a = L.induced_lattice_action(sigma)
            act = C.graph_action(sigma)
            for cls, lab in L.minus_one_classes(5):
                img = a.apply(cls)
                img_lab = act.image(lab)
                assert img == dict(
                    (l, c) for c, l in L.minus_one_classes(5)
                )[img_lab]

    def test_validation_rejects_bad_matrix(self):
        with pytest.raises(ValueError):
            L.LatticeAction(5, tuple(tuple(2 if i == j else 0 for j in range(5)) for i in range(5)))


class TestIntegerRank:
    def test_simple_ranks(self):
        assert integer_rank([]) == 0
        assert integer_rank([[0, 0], [0, 0]]) == 0
        assert integer_rank([[1, 2], [2, 4]]) == 1
        assert integer_rank([[1, 2], [3, 4]]) == 2
        assert integer_rank([[2, 0, 0], [0, 3, 0]]) == 2

    def test_rank_of_random_products(self):
        import random

        rng = random.Random(42)
        # rank(A@B) where A is n x 1 and B is 1 x n is 1 (if nonzero)
        for _ in range(25):
            u = [rng.randint(-5, 5) for _ in range(4)] or [1]
            v = [rng.randint(-5, 5) for _ in range(4)]
            if not any(u) or not any(v):
                continue
            m = [[a * b for b in v] for a in u]
            assert integer_rank(m) == 1


class TestInvariantRank:
    def test_trivial_group(self):
        assert L.invariant_rank(P.generate([], degree=5)) == 5

    def test_five_cycle(self):
        assert L.invariant_rank(P.generate([P.parse_perm("(1 2 3 4 5)", 5)])) == 1

    def test_transposition(self):
        assert L.invariant_rank(P.generate([P.parse_perm("(1 2)", 5)])) == 4

    def test_matches_conic_orbit_count_everywhere(self):
        for sub in P.all_subgroups(5):
            assert L.invariant_rank(sub) == orbit_count_on_conics(sub), sub

    def test_matches_lattice_fixed_rank_everywhere(self):
        # the fixed sublattice is the kernel of M_g - I over every element g
        for sub in P.all_subgroups(5):
            rows = []
            for g in sub.elements:
                m = L.induced_lattice_action(g).matrix
                rows += [[m[i][j] - (i == j) for j in range(5)] for i in range(5)]
            assert L.invariant_rank(sub) == 5 - integer_rank(rows), sub

    def test_rank_one_iff_order5(self):
        for sub in P.all_subgroups(5):
            assert (L.invariant_rank(sub) == 1) == P.contains_order5(sub)


class TestMinimality:
    def test_trivial_g_with_five_cycle_image(self):
        g = P.generate([], degree=5)
        gal = P.generate([P.parse_perm("(1 2 3 4 5)", 5)])
        assert L.is_g_minimal(g, gal) is True

    def test_trivial_g_with_trivial_image(self):
        g = P.generate([], degree=5)
        assert L.is_g_minimal(g, g) is False

    def test_requires_centralizing(self):
        g = P.generate([P.parse_perm("(1 2)", 5)])
        gal = P.generate([P.parse_perm("(1 2 3 4 5)", 5)])
        with pytest.raises(ValueError, match="centralize"):
            L.is_g_minimal(g, gal)

    def test_five_cycle_g_over_anything_it_centralizes(self):
        g = P.generate([P.parse_perm("(1 2 3 4 5)", 5)])
        gal = P.generate([P.parse_perm("(1 2 3 4 5)", 5)])
        assert L.is_g_minimal(g, gal) is True

    def test_transposition_g_transposition_image(self):
        g = P.generate([P.parse_perm("(1 2)", 5)])
        gal = P.generate([P.parse_perm("(4 5)", 5)])
        assert L.is_g_minimal(g, gal) is False


# library errors that no other test reaches, with their exact text
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: L.e_class(5, 5), "no exceptional class E5 in degree 5", id="e_class"),
    pytest.param(lambda: L.induced_lattice_action(P.Perm(range(4))), "expected an element of S5",
                 id="induced_lattice_action"),
    pytest.param(lambda: L.invariant_rank(P.generate([], 6)), "expected a subgroup of S5",
                 id="invariant_rank"),
    pytest.param(lambda: L.h_class(5) + L.h_class(6), "mismatched degree contexts", id="sum"),
    pytest.param(lambda: L.LatticeAction(6, tuple(tuple(int(i == j) for j in range(4))
                                                   for i in range(4))).apply(L.h_class(5)),
                 "mismatched degree contexts", id="apply"),
])
def test_library_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
