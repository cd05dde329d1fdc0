import itertools
import re

import pytest

from delpezzo import curvegraphs as C
from delpezzo import perms as P
from delpezzo.perms import Perm


def brute_force_graph_automorphisms(graph):
    """Oracle: all adjacency-preserving vertex permutations, by backtracking.

    Independent of graph_action — works directly on the adjacency matrix.
    """
    n = graph.n
    adj = graph.adjacency
    autos = []

    def extend(partial):
        k = len(partial)
        if k == n:
            autos.append(Perm(partial))
            return
        used = set(partial)
        for img in range(n):
            if img in used:
                continue
            if all(adj[k][j] == adj[img][partial[j]] for j in range(k)):
                extend(partial + [img])

    extend([])
    return autos


class TestGraphShape:
    def test_petersen_shape(self):
        g = C.curve_graph(5)
        assert g.n == 10
        assert len(g.edges()) == 15
        degs = [sum(row) for row in g.adjacency]
        assert degs == [3] * 10  # 3-regular

    def test_petersen_vertex_order(self):
        g = C.curve_graph(5)
        assert g.vertices[0] == frozenset({1, 2})
        assert g.vertices[-1] == frozenset({4, 5})

    def test_adjacency_iff_disjoint(self):
        g = C.curve_graph(5)
        for v, w in itertools.combinations(g.vertices, 2):
            assert g.adjacent(v, w) == (not (v & w))

    def test_hexagon_is_a_sixcycle(self):
        g = C.curve_graph(6)
        assert g.n == 6
        assert len(g.edges()) == 6
        assert [sum(row) for row in g.adjacency] == [2] * 6
        # the canonical vertex order walks the cycle
        order = [{1, 4}, {2, 5}, {3, 4}, {1, 5}, {2, 4}, {3, 5}]
        assert list(g.vertices) == [frozenset(s) for s in order]
        for i in range(6):
            assert g.adjacency[i][(i + 1) % 6]

    def test_unsupported_degree(self):
        with pytest.raises(ValueError, match="unsupported degree"):
            C.curve_graph(7)


class TestGraphAction:
    def test_action_is_homomorphism(self):
        s5 = P.symmetric_group_elements(5)
        for a in s5[::7]:
            for b in s5[::13]:
                assert (
                    C.graph_action(a * b).perm
                    == (C.graph_action(a) * C.graph_action(b)).perm
                )

    def test_action_is_injective(self):
        images = {C.graph_action(s).perm for s in P.symmetric_group_elements(5)}
        assert len(images) == 120

    def test_action_image_equals_brute_forced_automorphisms(self):
        oracle = set(brute_force_graph_automorphisms(C.curve_graph(5)))
        assert len(oracle) == 120
        image = {C.graph_action(s).perm for s in P.symmetric_group_elements(5)}
        assert image == oracle

    def test_hexagon_automorphisms_brute_force(self):
        oracle = set(brute_force_graph_automorphisms(C.curve_graph(6)))
        assert len(oracle) == 12
        assert oracle == set(P.hexagon_group_elements())

    def test_vertex_perm_rejects_non_automorphism(self):
        g = C.curve_graph(5)
        with pytest.raises(ValueError, match="preserve adjacency"):
            C.VertexPerm(g, P.parse_perm("(1 2)", 10))


class TestInvariantVertices:
    def test_order12_stabilizer_fixes_45(self):
        h = P.generate(P.parse_generators("(1 2 3);(1 2);(4 5)", 5))
        assert C.invariant_vertices(h) == (frozenset({4, 5}),)

    def test_every_conjugate_has_invariant_vertex(self):
        # every subgroup of a conjugate of S3 x Z/2Z fixes some vertex
        for sub in P.all_subgroups(5):
            if P.class_label(sub, 5).name == "[S3xZ/2Z]":
                assert len(C.invariant_vertices(sub)) >= 1

    def test_s4_copy_has_no_invariant_vertex(self):
        s4 = P.class_representative("[S4]", 5)
        assert C.invariant_vertices(s4) == ()

    def test_trivial_group_fixes_everything(self):
        assert len(C.invariant_vertices(P.generate([], degree=5))) == 10


class TestIndependentSets:
    def brute(self, group):
        """Oracle: scan all 2^10 vertex subsets directly."""
        g = C.curve_graph(5)
        adj = g.adjacency
        actions = [C.graph_action(h) for h in group.elements]
        best = None
        for mask in range(1, 1 << 10):
            members = [i + 1 for i in range(10) if mask >> i & 1]
            if any(adj[v - 1][w - 1] for v, w in itertools.combinations(members, 2)):
                continue
            stable = all(
                frozenset(a(v) for v in members) == frozenset(members)
                for a in actions
            )
            if stable and (best is None or len(members) < len(best)):
                best = members
        return best

    def test_matches_bruteforce_on_sample(self):
        for name in P.class_names(5):
            rep = P.class_representative(name, 5)
            found, witness = C.has_invariant_independent_set(rep)
            oracle = self.brute(rep)
            assert found == (oracle is not None), name
            if found:
                assert len(witness) == len(oracle), name

    def test_witness_is_independent_and_invariant(self):
        g = C.curve_graph(5)
        for sub in P.all_subgroups(5)[::5]:
            found, witness = C.has_invariant_independent_set(sub)
            if not found:
                continue
            for v, w in itertools.combinations(witness, 2):
                assert not g.adjacent(v, w)
            for h in sub.elements:
                a = C.graph_action(h)
                assert {a.image(v) for v in witness} == set(witness)

    def test_s4_witness_is_the_exceptional_quadruple(self):
        found, witness = C.has_invariant_independent_set(
            P.class_representative("[S4]", 5)
        )
        assert found
        assert set(witness) == {frozenset({i, 5}) for i in (1, 2, 3, 4)}

    def test_five_cycle_has_none(self):
        found, witness = C.has_invariant_independent_set(
            P.class_representative("[Z/5Z]", 5)
        )
        assert not found and witness is None

    def test_failure_implies_order5(self):
        for sub in P.all_subgroups(5):
            found, _ = C.has_invariant_independent_set(sub)
            if not found:
                assert P.contains_order5(sub)


class TestVertexStabilizer:
    def test_order_12(self):
        st = C.vertex_stabilizer(frozenset({4, 5}))
        assert st.order == 12
        assert P.class_label(st, 5).name == "[S3xZ/2Z]"

    def test_restriction_is_a_bijection_onto_hexagon_group(self):
        st = C.vertex_stabilizer(frozenset({4, 5}))
        images = {C.hexagon_restriction(s) for s in st.elements}
        assert images == set(P.hexagon_group_elements())
        assert len(images) == 12

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            C.vertex_stabilizer(frozenset({1, 2, 3}))


class TestBlowdown:
    def test_antipodal_from_45_swap(self):
        h = P.generate([P.parse_perm("(4 5)", 5)])
        sub6, lbl = C.blowdown_action(h, frozenset({4, 5}))
        assert lbl.name == "[<(id,1)>]"
        g = P.cyclic_generator(sub6)
        assert g.cycle_string() == "(1 4)(2 5)(3 6)"  # 180-degree rotation

    def test_rotation_from_three_cycle(self):
        h = P.generate([P.parse_perm("(1 2 3)", 5)])
        sub6, lbl = C.blowdown_action(h, frozenset({4, 5}))
        assert lbl.name == "[Z/3]"
        assert P.cyclic_generator(sub6).order() == 3

    def test_full_stabilizer_gives_full_hexagon_group(self):
        st = C.vertex_stabilizer(frozenset({4, 5}))
        sub6, lbl = C.blowdown_action(st, frozenset({4, 5}))
        assert lbl.name == "[S3xZ/2]"
        assert sub6.order == 12

    def test_nonstandard_vertex(self):
        # <(3 4)> fixes {3,4}; contracting there acts antipodally
        h = P.generate([P.parse_perm("(3 4)", 5)])
        _, lbl = C.blowdown_action(h, frozenset({3, 4}))
        assert lbl.name == "[<(id,1)>]"
        # while contracting {1,2} gives a reflection fixing two vertices
        _, lbl2 = C.blowdown_action(h, frozenset({1, 2}))
        assert lbl2.name == "[<((1,2),0)>]"

    def test_not_in_stabilizer(self):
        h = P.generate([P.parse_perm("(1 2 3 4 5)", 5)])
        with pytest.raises(ValueError, match="not in stabilizer"):
            C.blowdown_action(h, frozenset({4, 5}))

    def test_plain_sets_are_accepted(self):
        h = P.generate([P.parse_perm("(1 2 3)", 5)])
        sub6, lbl = C.blowdown_action(h, {4, 5})
        assert (sub6, lbl) == C.blowdown_action(h, frozenset({4, 5}))
        assert lbl.name == "[Z/3]"
        with pytest.raises(ValueError, match=r"^not a vertex label: \{1, 2, 3\}$"):
            C.blowdown_action(h, {1, 2, 3})
        with pytest.raises(ValueError, match="^not in stabilizer$"):
            C.blowdown_action(h, {1, 4})


class TestDot:
    def test_plain_dot(self):
        text = C.to_dot(C.curve_graph(5))
        assert text.startswith("graph curves_degree5 {")
        assert '"{1,2}"' in text
        assert text.count(" -- ") == 15

    def test_orbit_coloring(self):
        h = P.generate([P.parse_perm("(1 2 3 4 5)", 5)])
        text = C.to_dot(C.curve_graph(5), orbit_group=h)
        assert "fillcolor" in text
        # two orbits on vertices -> exactly two colors used
        used = {line.split('fillcolor="')[1].split('"')[0]
                for line in text.splitlines() if "fillcolor" in line}
        assert len(used) == 2

    def test_hexagon_dot(self):
        text = C.to_dot(C.curve_graph(6))
        assert text.count(" -- ") == 6


# library errors that no other test reaches, with their exact text
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: C.graph_action(Perm(range(4))), "expected an element of S5",
                 id="graph_action"),
    pytest.param(lambda: C.graph_action(Perm(range(5))) * C.VertexPerm(C.curve_graph(6),
                                                                        Perm(range(6))),
                 "vertex permutations of different graphs", id="product"),
    # the degree-6 trivial group has no generator whose degree a vertex action checks
    pytest.param(lambda: C.invariant_vertices(P.generate([], 6)), "expected a subgroup of S5",
                 id="invariant_vertices_degree6"),
    pytest.param(lambda: C.has_invariant_independent_set(P.generate([], 6)),
                 "expected a subgroup of S5", id="has_invariant_independent_set_degree6"),
    pytest.param(lambda: C.blowdown_action(P.generate([], 6), {1, 2}), "expected a subgroup of S5",
                 id="blowdown_action_degree6"),
    pytest.param(lambda: C.to_dot(C.curve_graph(5), P.generate([], 6)),
                 "expected a subgroup of S5", id="to_dot_degree6"),
    # {7, 8} is no 2-subset of {1..5}; a set of two small ints prints in this order
    pytest.param(lambda: C.curve_graph(5).index({7, 8}), "not a vertex label: {8, 7}", id="index"),
    pytest.param(lambda: C.curve_graph(5).adjacent({1, 2}, {7, 8}), "not a vertex label: {8, 7}",
                 id="adjacent"),
    pytest.param(lambda: C.graph_action(P.parse_perm("(1 2)", 5)).image({7, 8}),
                 "not a vertex label: {8, 7}", id="image"),
])
def test_library_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
