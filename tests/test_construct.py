"""Point configurations, equivariant parameter sets, and realization sweeps."""

import copy
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_construct import (
    _base_plane_points,
    cross,
    frobenius_permutation as reference_frobenius_permutation,
    general_position as reference_general_position,
    on_conic as reference_on_conic,
)

import delpezzo
from delpezzo import cli, construct, fields
from delpezzo.construct import (
    PlanePoint,
    PointConfig,
    SurfaceModel,
    conic_config,
    conic_point,
    dp5_from_four_points,
    frobenius_permutation,
    general_position,
    model_from_json,
    plane_point,
    points_with_action,
    realize_dp5,
    realize_dp6,
    small_field_realize,
    verify_json,
    _normalized,
    _points_with_action_stats,
)
from delpezzo.curvegraphs import curve_graph, graph_action
from delpezzo.fields import (
    MAX_BASE_FIELD,
    FieldSpec,
    FFElem,
    element_degree,
    elements_of_degree,
    frobenius,
    make_field,
    one,
    parse_field_literal,
    subfield_elements,
    zero,
)
from delpezzo.perms import (
    ClassLabel,
    Perm,
    class_label,
    class_names,
    class_representative,
    complexity,
    cyclic_generator,
    all_subgroups,
    generate,
    parse_perm,
    symmetric_group_elements,
)

F2 = make_field(2, 1, 1)
F3 = make_field(3, 1, 1)
F4 = make_field(2, 2, 1)
F7 = make_field(7, 1, 1)

CYCLIC5 = [n for n in class_names(5) if class_representative(n, 5).is_cyclic]
CYCLIC6 = [n for n in class_names(6) if class_representative(n, 6).is_cyclic]


class TestPlanePoints:
    def test_normalization(self):
        spec = make_field(3, 1, 1)
        p = plane_point(spec, 2, 1, 2)
        assert [c.coeffs for c in p.coords] == [(1,), (2,), (1,)]
        q = plane_point(spec, 0, 2, 1)
        assert [c.coeffs for c in q.coords] == [(), (1,), (2,)]
        assert plane_point(spec, 2, 1, 2) == plane_point(spec, 1, 2, 1)

    def test_zero_point_rejected(self):
        with pytest.raises(ValueError):
            plane_point(F3, 0, 0, 0)

    def test_config_distinct(self):
        with pytest.raises(ValueError):
            PointConfig(F3, (plane_point(F3, 1, 0, 0), plane_point(F3, 2, 0, 0)))

    def test_conic_marker_checked(self):
        with pytest.raises(ValueError):
            PointConfig(F3, (plane_point(F3, 1, 1, 0),), on_conic=True)


class TestGeneralPosition:
    def test_standard_frame(self):
        pts = [plane_point(F2, 1, 0, 0), plane_point(F2, 0, 1, 0),
               plane_point(F2, 0, 0, 1), plane_point(F2, 1, 1, 1)]
        assert general_position(pts)

    def test_collinear(self):
        pts = [plane_point(F3, 1, 0, 0), plane_point(F3, 0, 1, 0),
               plane_point(F3, 1, 1, 0)]
        assert not general_position(pts)

    def test_needs_three(self):
        with pytest.raises(ValueError):
            general_position([plane_point(F3, 1, 0, 0)])

    def test_quadratic_pairs_over_f4(self):
        work = make_field(2, 1, 2)
        w = next(elements_of_degree(work, 2))
        wb = frobenius(w)
        o, z = one(work), zero(work)
        pts = [PlanePoint(work, (o, w, z)), PlanePoint(work, (o, wb, z)),
               PlanePoint(work, (o, z, w)), PlanePoint(work, (o, z, wb))]
        assert general_position(pts)


# --- the packed point checks against the FFElem oracle (derandomized) ---------

# the last four have the largest slot sums (47, 65521^12) and the most folds
# (3^150, 2^240) of the fields the literal ceilings admit
_POINT_FIELDS = ["2", "7", "2^5", "3^3", "65521^2",
                 "47^6:base=1", "65521^12:base=2", "3^150:base=25", "2^240:base=40"]


def _draw_coord(spec, data):
    """Often 0 or 1, so points at infinity and scaled points come up in every field."""
    coeffs = data.draw(st.one_of(
        st.sampled_from([[], [1]]),
        st.lists(st.integers(0, spec.p - 1), min_size=spec.m, max_size=spec.m),
    ))
    return FFElem(spec, coeffs)


def _draw_point(spec, data):
    coords = tuple(_draw_coord(spec, data) for _ in range(3))
    return PlanePoint(spec, coords if any(coords) else (one(spec),) + coords[1:])


def _draw_config(spec, data):
    """4 or 5 distinct points, some on the conic.  A drawn point may bring its
    Frobenius orbit along, cut off when it does not fit, so stable and
    unstable configurations both come up; rational points fill the rest."""
    n = data.draw(st.integers(4, 5))
    points = []
    for _ in range(n):
        if data.draw(st.booleans()):
            pt = conic_point(spec, _draw_coord(spec, data))
        else:
            pt = _draw_point(spec, data)
        orbit = [pt]
        if data.draw(st.booleans()):
            while (image := orbit[-1].apply_frobenius()) != pt:
                orbit.append(image)
        points += [q for q in orbit if q not in points][:n - len(points)]
    frame = [plane_point(spec, *c) for c in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1)]]
    points += [q for q in frame if q not in points][:n - len(points)]
    return PointConfig(spec, tuple(data.draw(st.permutations(points))))


def _line(p, q):
    """The line through two points, normalized on packed ints, as field elements."""
    packed = _normalized(p.spec, tuple(c._v for c in cross(p, q)))
    return tuple(fields._elem(p.spec, v) for v in packed)


def _on_line_through(p, q, a, b):
    """The point a*p + b*q, or p again when that is the zero vector."""
    coords = tuple(a * x + b * y for x, y in zip(p.coords, q.coords))
    return PlanePoint(p.spec, coords) if any(coords) else p


class TestPackedPointChecks:
    @pytest.mark.parametrize("literal", _POINT_FIELDS)
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_general_position_matches_the_oracle(self, literal, data):
        spec = parse_field_literal(literal)
        n = data.draw(st.integers(3, 6))
        pts = [_draw_point(spec, data) for _ in range(n)]
        planted = data.draw(st.one_of(st.none(), st.sampled_from(list(itertools.combinations(range(n), 3)))))
        if planted is not None:
            i, j, k = planted
            a, b = (_draw_coord(spec, data) or one(spec) for _ in range(2))
            pts[k] = _on_line_through(pts[i], pts[j], a, b)
        assert general_position(pts) == reference_general_position(pts)
        if planted is not None:
            assert not general_position(pts)

    @pytest.mark.parametrize("literal", ["2^2:base=1", "2^6:base=2", "3^2:base=1",
                                         "3^6:base=2", "7^3:base=1", "5^4:base=1",
                                         "65521^2:base=1", "47^6:base=1", "65521^12:base=2",
                                         "3^150:base=25", "2^240:base=40"])
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_frobenius_permutation_and_conic_match_the_oracle(self, literal, data):
        config = _draw_config(parse_field_literal(literal), data)
        try:
            want = reference_frobenius_permutation(config)
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                frobenius_permutation(config)
            assert str(got.value) == str(err)
        else:
            assert frobenius_permutation(config) == want
        assert [p.on_conic() for p in config.points] == [
            reference_on_conic(p) for p in config.points]

    def test_only_the_last_triple_collinear(self):
        spec = parse_field_literal("65521")
        pts = [conic_point(spec, FFElem(spec, (t,))) for t in range(1, 6)]
        pts.append(_on_line_through(pts[3], pts[4], one(spec), one(spec)))
        collinear = [t for t in itertools.combinations(range(6), 3)
                     if not reference_general_position([pts[i] for i in t])]
        assert collinear == [(3, 4, 5)]
        assert general_position(pts[:5]) and not general_position(pts)

    def test_mixed_fields_raise(self):
        f3_line = [plane_point(F3, 1, 0, 0), plane_point(F3, 0, 1, 0), plane_point(F3, 1, 1, 0)]
        for pts in ([plane_point(F7, 1, 2, 3)] + f3_line, f3_line + [plane_point(F7, 1, 2, 3)]):
            with pytest.raises(ValueError, match="different fields"):
                general_position(pts)

    def test_equal_specs_that_are_not_identical(self):
        twin = FieldSpec(F7.p, F7.m, F7.modulus, F7.base_degree)
        assert twin == F7 and twin is not F7
        pts = (plane_point(F7, 1, 0, 0), plane_point(twin, 0, 1, 0),
               plane_point(F7, 0, 0, 1), plane_point(twin, 1, 2, 3))
        assert general_position(pts) == reference_general_position(pts) is True
        config = PointConfig(F7, pts)
        assert frobenius_permutation(config).cycle_string() == "()"
        with pytest.raises(ValueError, match="pairwise distinct"):
            PointConfig(F7, pts + (plane_point(twin, 2, 4, 6),))

    @pytest.mark.parametrize("literal", _POINT_FIELDS)
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_normalized_skips_only_the_inverse_of_one(self, literal, data):
        spec = parse_field_literal(literal)
        elems = tuple(_draw_coord(spec, data) for _ in range(3))
        coords = tuple(c._v for c in elems)
        lead = next((c for c in elems if c), None)
        if lead is None:
            with pytest.raises(ValueError, match="no nonzero coordinate"):
                _normalized(spec, coords)
        elif lead == one(spec):
            assert _normalized(spec, coords) is coords
        else:
            assert _normalized(spec, coords) == tuple((c * lead.inverse())._v for c in elems)


class TestFrobeniusPermutation:
    def test_rational_points_are_fixed(self):
        pts = [plane_point(F7, 1, 0, 0), plane_point(F7, 0, 1, 0),
               plane_point(F7, 1, 2, 3)]
        perm = frobenius_permutation(PointConfig(F7, tuple(pts)))
        assert perm.cycle_string() == "()"

    def test_conjugate_pair_swaps(self):
        # the classical quadratic-pair configuration: the two conjugate
        # points swap, the two rational points stay (printed coordinates
        # fail general position but the induced permutation is still (3 4))
        work = make_field(3, 1, 2)
        w = next(elements_of_degree(work, 2))
        o = one(work)
        pts = [plane_point(work, 1, 0, 0), plane_point(work, 0, 1, 0),
               PlanePoint(work, (o, w, o)), PlanePoint(work, (o, frobenius(w), o))]
        perm = frobenius_permutation(PointConfig(work, tuple(pts)))
        assert perm.cycle_string() == "(3 4)"
        assert not general_position(pts)

    def test_unstable_set_rejected(self):
        work = make_field(3, 1, 2)
        w = next(elements_of_degree(work, 2))
        pts = [plane_point(work, 1, 0, 0),
               PlanePoint(work, (one(work), w, one(work)))]
        with pytest.raises(ValueError, match="not defined over the base field"):
            frobenius_permutation(PointConfig(work, tuple(pts)))

    def test_five_cycle_on_conic(self):
        betas = points_with_action(F2, class_representative("[Z/5Z]", 5))
        perm = frobenius_permutation(conic_config(betas))
        assert perm.order() == 5


class TestPointsWithAction:
    def test_trivial_group_over_f7(self):
        group = class_representative("[e]", 5)
        betas = points_with_action(F7, group)
        assert len(set(betas)) == 5
        assert all(frobenius(b) == b for b in betas)
        assert [b.coeffs for b in betas] == [(1,), (2,), (3,), (4,), (5,)]

    def test_five_cycle_over_f2(self):
        group = class_representative("[Z/5Z]", 5)
        betas = points_with_action(F2, group)
        g = cyclic_generator(group)
        assert all(b ** 32 == b for b in betas)  # inside F_32
        assert all(element_degree(b) == 5 for b in betas)
        for i in range(1, 6):
            assert frobenius(betas[i - 1]) == betas[g(i) - 1]

    def test_double_transposition_over_f4(self):
        group = class_representative("[<(1,2)(3,4)>]", 5)
        betas = points_with_action(F4, group)
        g = cyclic_generator(group)
        assert len(set(betas)) == 5
        degrees = sorted(element_degree(b) for b in betas)
        assert degrees == [1, 2, 2, 2, 2]  # orbits sized 2,2,1
        for i in range(1, 6):
            assert frobenius(betas[i - 1]) == betas[g(i) - 1]

    def test_field_too_small(self):
        with pytest.raises(ValueError, match="field too small, use small_field_realize"):
            points_with_action(F2, class_representative("[e]", 5))
        with pytest.raises(ValueError, match="field too small"):
            points_with_action(F3, class_representative("[<(1,2)>]", 5))

    def test_non_cyclic_rejected(self):
        with pytest.raises(ValueError, match="not cyclic"):
            points_with_action(F7, class_representative("[S4]", 5))

    def test_seed_advance_when_scalars_exhaust(self):
        # q = 3 with two orbits of length 2: the canonical first seed w has
        # frobenius(w) = -w, so the second orbit collides for every nonzero
        # scalar and the algorithm must move to the next canonical seed.
        group = class_representative("[<(1,2)(3,4)>]", 5)
        betas, work, g, positions = _points_with_action_stats(F3, group)
        assert [b.coeffs for b in betas] == [(0, 1), (0, 2), (1, 1), (1, 2), (1,)]
        for i in range(1, 6):
            assert frobenius(betas[i - 1]) == betas[g(i) - 1]
        w = next(elements_of_degree(work, 2))
        placed = {betas[4], betas[0], betas[1]}  # after orbits {5}, {1,2}
        scalars = subfield_elements(work)[1:]
        assert all(a * w in placed for a in scalars)  # every scalar collides

    def test_seed_search_skips_the_subfield_lines(self, monkeypatch):
        # over 65521 and 65521^2 the first seeds of degree 2 and 3 lie past
        # about 131 000 vectors of the proper subfields; one check per line
        # of p vectors reaches them in a few steps (make_field's own steps,
        # when its cache is cold, count too)
        steps = 0
        span = fields._span

        def counted(*args):
            nonlocal steps
            for acc in span(*args):
                steps += 1
                yield acc

        monkeypatch.setattr(fields, "_span", counted)
        construct._model5.cache_clear()  # a kept model would count no steps
        for literal in ("65521", "65521^2"):
            steps = 0
            realize_dp5(parse_field_literal(literal), "[Z/6Z]")
            assert steps <= 100, (literal, steps)

    def test_scalar_positions_within_counting_bound(self):
        for qtext in ["2", "3", "2^2", "5", "7", "2^3", "3^2"]:
            base = parse_field_literal(qtext)
            for name in CYCLIC5:
                group = class_representative(name, 5)
                if base.q <= complexity(group):
                    continue
                _, _, _, positions = _points_with_action_stats(base, group)
                assert max(positions) <= complexity(group) + 1

    def test_equivariance_random_cyclic_subgroups(self):
        rng = random.Random(96326)
        cyclic_subgroups = [s for s in all_subgroups(5) if s.is_cyclic]
        qs = ["2", "3", "2^2", "5", "7", "2^3", "3^2", "11", "13"]
        done = 0
        while done < 60:
            base = parse_field_literal(rng.choice(qs))
            group = rng.choice(cyclic_subgroups)
            if base.q <= complexity(group):
                continue
            betas = points_with_action(base, group)
            g = cyclic_generator(group)
            assert len(set(betas)) == 5
            for i in range(1, 6):
                assert frobenius(betas[i - 1]) == betas[g(i) - 1]
            done += 1


class TestConicConfig:
    def test_points_and_marker(self):
        betas = [FFElem(F7, (t,)) for t in (0, 1, 3, 5, 6)]
        config = conic_config(betas)
        assert config.on_conic and len(config) == 5
        assert config.points[0] == plane_point(F7, 1, 0, 0)
        assert config.points[1] == plane_point(F7, 1, 1, 1)
        assert all(p.on_conic() for p in config.points)

    def test_all_outputs_in_general_position(self):
        for qtext in ["5", "7", "2^3", "3^2"]:
            base = parse_field_literal(qtext)
            for name in CYCLIC5:
                group = class_representative(name, 5)
                if base.q <= complexity(group):
                    continue
                config = conic_config(points_with_action(base, group))
                assert general_position(config.points)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            conic_config([one(F7), one(F7), FFElem(F7, (2,))])

    def test_general_position_check_survives_optimize(self):
        # python -O strips bare asserts; the check must still raise
        script = (
            "import delpezzo.construct as C\n"
            "from delpezzo.fields import FFElem, parse_field_literal\n"
            "C.general_position = lambda points: False\n"
            "F7 = parse_field_literal('7')\n"
            "try:\n"
            "    C.conic_config([FFElem(F7, (t,)) for t in (0, 1, 3, 5, 6)])\n"
            "except AssertionError as err:\n"
            "    print(err)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(delpezzo.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "internal error: conic points not in general position" in proc.stdout

    def test_stability_is_inherited(self):
        betas = points_with_action(F2, class_representative("[Z/6Z]", 5))
        config = conic_config(betas)
        frobenius_permutation(config)  # does not raise


class TestFourPointModels:
    def frame_config(self):
        pts = (plane_point(F2, 1, 0, 0), plane_point(F2, 0, 1, 0),
               plane_point(F2, 0, 0, 1), plane_point(F2, 1, 1, 1))
        return PointConfig(F2, pts)

    def test_rational_frame_is_trivial_type(self):
        model = dp5_from_four_points(self.frame_config())
        assert model.type_label == ClassLabel(5, "[e]")
        assert model.construction == "fourpoints"
        assert model.frobenius_perm.cycle_string() == "()"

    def test_conjugate_pair_gives_transposition_type(self):
        model = small_field_realize(F3, "[<(1,2)>]")
        assert model.type_label.name == "[<(1,2)>]"
        assert model.frobenius_perm.cycle_string() == "(3 4)"
        assert general_position(model.config.points)

    def test_two_pairs_give_double_transposition_type(self):
        model = small_field_realize(F2, "[<(1,2)(3,4)>]")
        assert model.type_label.name == "[<(1,2)(3,4)>]"
        assert model.frobenius_perm.cycle_string() == "(1 2)(3 4)"

    def test_conic_triple_plus_rational_point(self):
        model = small_field_realize(F2, "[Z/3Z]")
        assert model.type_label.name == "[Z/3Z]"
        assert model.frobenius_perm.cycle_string() == "(1 2 3)"

    def test_collinear_rejected(self):
        pts = (plane_point(F3, 1, 0, 0), plane_point(F3, 0, 1, 0),
               plane_point(F3, 1, 1, 0), plane_point(F3, 1, 1, 1))
        with pytest.raises(ValueError, match="general position"):
            dp5_from_four_points(PointConfig(F3, pts))

    @pytest.mark.parametrize("field", ["2", "3", "2^2", "2^40"])
    @pytest.mark.parametrize("name", ["[e]", "[<(1,2)>]", "[<(1,2)(3,4)>]", "[Z/3Z]"])
    def test_the_cyclic_types_with_complexity_above_one(self, field, name):
        # the four-point types, in F_{q^|H|} as the conic construction works
        rep = class_representative(name, 5)
        assert rep.is_cyclic and complexity(rep) > 1
        model = small_field_realize(parse_field_literal(field), name)
        assert model.construction == "fourpoints" and model.type_label.name == name
        assert model.spec.n == rep.order

    def test_image_lies_in_point_stabilizer(self):
        # four-point models can only produce types inside a point stabilizer
        for base, name in [(F2, "[e]"), (F3, "[<(1,2)>]"), (F2, "[<(1,2)(3,4)>]"),
                           (F2, "[Z/3Z]"), (F4, "[<(1,2)>]")]:
            model = small_field_realize(base, name)
            image = model.galois_image()
            assert all(g(5) == 5 for g in image.elements)

    def test_rational_point_claim_for_cubic_triples(self):
        # no line through two points of a Galois 3-cycle triple on the conic
        # passes through any rational point, over every small field we use
        for qtext in ["2", "3", "2^2", "5", "7", "2^3", "3^2"]:
            base = parse_field_literal(qtext)
            work = make_field(base.p, base.base_degree, 3)
            b = next(elements_of_degree(work, 3))
            triple = [conic_point(work, b), conic_point(work, frobenius(b)),
                      conic_point(work, frobenius(b, 2))]
            lines = [_line(p, q) for p, q in itertools.combinations(triple, 2)]
            for point in _base_plane_points(work):
                for line in lines:
                    value = sum((c * x for c, x in zip(line, point.coords)),
                                zero(work))
                    assert value != zero(work)

    @pytest.mark.parametrize("literal", ["2^40", "3^25"])
    def test_conic_triple_over_a_large_field_is_bounded_work(self, literal):
        # the fourth point is (0:0:1), read off without listing the q base
        # scalars; the child gets the 256 MiB address-space cap and the 60 s
        # timeout of test_cli.run_address_limited
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

        script = (
            "from delpezzo.construct import small_field_realize\n"
            "from delpezzo.fields import parse_field_literal\n"
            f"model = small_field_realize(parse_field_literal({literal!r}), '[Z/3Z]')\n"
            "print(model.type_label.name, model.config.points[3])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(delpezzo.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", script], preexec_fn=limit,
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[Z/3Z] (0:0:1)\n"


class TestRealizeDp5:
    def test_round_trip_every_cyclic_class_and_field(self):
        for qtext in ["2", "3", "2^2", "5", "7", "2^3", "3^2"]:
            base = parse_field_literal(qtext)
            for name in CYCLIC5:
                model = realize_dp5(base, name)
                assert model.type_label.name == name
                assert model.degree == 5
                failures = [c for c in verify_json(model.to_json()) if not c[1]]
                assert failures == []

    def test_dispatch_thresholds(self):
        # complexity decides conic versus four-point route exactly
        for qtext, name, tag in [
            ("2", "[e]", "fourpoints"), ("5", "[e]", "fourpoints"),
            ("7", "[e]", "conic5"),
            ("2", "[<(1,2)>]", "fourpoints"), ("3", "[<(1,2)>]", "fourpoints"),
            ("2^2", "[<(1,2)>]", "conic5"),
            ("2", "[<(1,2)(3,4)>]", "fourpoints"), ("3", "[<(1,2)(3,4)>]", "conic5"),
            ("2", "[Z/3Z]", "fourpoints"), ("3", "[Z/3Z]", "conic5"),
            ("2", "[Z/4Z]", "conic5"), ("2", "[Z/5Z]", "conic5"),
            ("2", "[Z/6Z]", "conic5"),
        ]:
            model = realize_dp5(parse_field_literal(qtext), name)
            assert model.construction == tag, (qtext, name)

    def test_non_cyclic_classes_error(self):
        for name in class_names(5):
            if name in CYCLIC5:
                continue
            with pytest.raises(ValueError, match="must be cyclic over a finite field"):
                realize_dp5(F2, name)

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown class label"):
            realize_dp5(F2, "[Z/7Z]")


class TestRealizeDp6:
    def test_round_trip_every_cyclic_class(self):
        for qtext in ["2", "3", "2^2"]:
            base = parse_field_literal(qtext)
            for name in CYCLIC6:
                model = realize_dp6(base, name)
                assert model.degree == 6
                assert model.type_label == ClassLabel(6, name)
                assert model.construction.endswith("_blowdown")
                failures = [c for c in verify_json(model.to_json()) if not c[1]]
                assert failures == []

    def test_central_flip_routes_through_transposition(self):
        model = realize_dp6(F4, "[<(id,1)>]")
        image = model.galois_image()
        assert class_label(image, 5).name == "[<(1,2)>]"
        assert model.construction == "conic5_blowdown"
        assert model.blowdown_vertex in set(
            frozenset(v) for v in [{1, 2}, {3, 4}, {3, 5}, {4, 5}]
        )

    def test_a_repeated_type_is_labelled_from_the_tables(self, monkeypatch):
        # the requested labels depend only on the type; a second realize of
        # the same type in both degrees calls class_label no more
        for realize, name in [(realize_dp6, "[Z/6]"), (realize_dp5, "[Z/3Z]"),
                              (realize_dp6, "[<(id,1)>]")]:
            first = realize(F7, name)
            calls = []
            monkeypatch.setattr(construct, "class_label",
                                lambda *args: calls.append(args) or class_label(*args))
            assert realize(F7, name) == first and calls == []
            monkeypatch.undo()

    def test_small_field_route_tags(self):
        assert realize_dp6(F2, "[Z/3]").construction == "fourpoints_blowdown"
        assert realize_dp6(F2, "[Z/6]").construction == "conic5_blowdown"

    def test_non_cyclic_rejected(self):
        for name in class_names(6):
            if name in CYCLIC6:
                continue
            with pytest.raises(ValueError, match="must be cyclic over a finite field"):
                realize_dp6(F4, name)

    # a non-cyclic degree-6 type embeds as a non-cyclic subgroup of S5, so
    # degree 5 refuses it with its own words
    @pytest.mark.parametrize("field", ["2", "7", "3^2"])
    @pytest.mark.parametrize("name", [n for n in class_names(6) if n not in CYCLIC6])
    def test_non_cyclic_types_get_the_degree_5_refusal(self, name, field):
        with pytest.raises(ValueError) as err:
            realize_dp6(parse_field_literal(field), name)
        assert str(err.value) == "not realizable: H must be cyclic over a finite field"


class TestModelCache:
    # each degree-5 model is built once per (p, base degree, type) and
    # process; degree 6 blows down the kept model
    @pytest.mark.parametrize("dp6_first", [False, True])
    def test_degree_6_blows_down_the_kept_model(self, dp6_first):
        label5 = construct._type_labels(class_representative("[Z/6]", 6), 6)[1]
        construct._model5.cache_clear()
        if dp6_first:
            config = realize_dp6(F7, "[Z/6]").config
            assert config is realize_dp5(F7, label5).config
        else:
            config = realize_dp5(F7, label5).config
            assert config is realize_dp6(F7, "[Z/6]").config
        assert construct._model5.cache_info().currsize == 1

    @pytest.mark.parametrize("realize,name,message", [
        (realize_dp5, "[D4]", "must be cyclic over a finite field"),
        (realize_dp5, "[Z/7Z]", "unknown class label"),
        (realize_dp6, "[Z/2xZ/2]", "must be cyclic over a finite field"),
    ])
    def test_a_refused_type_raises_again_and_keeps_no_entry(self, realize, name, message):
        size = construct._model5.cache_info().currsize
        texts = []
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(message)) as err:
                realize(F7, name)
            texts.append(str(err.value))
        assert texts[0] == texts[1]
        assert construct._model5.cache_info().currsize == size

    def test_every_spec_of_one_base_field_shares_the_entry(self):
        construct._model5.cache_clear()
        first = realize_dp5(parse_field_literal("7"), "[Z/5Z]")
        assert realize_dp5(parse_field_literal("7^2:base=1"), "[Z/5Z]") is first
        info = construct._model5.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


class TestJsonRoundTrip:
    def test_identity_round_trip(self):
        for base, name, realize in [
            (F2, "[Z/5Z]", realize_dp5), (F3, "[<(1,2)>]", realize_dp5),
            (F2, "[Z/3]", realize_dp6), (F4, "[<(id,1)>]", realize_dp6),
        ]:
            model = realize(base, name)
            assert model_from_json(model.to_json()) == model

    def test_verify_reports_all_pass(self):
        model = realize_dp5(F7, "[Z/4Z]")
        checks = verify_json(model.to_json())
        assert all(ok for _, ok, _ in checks)
        names = [name for name, _, _ in checks]
        assert "frobenius permutation matches" in names
        assert "general position" in names
        assert "conic membership" in names
        assert "type matches" in names

    def test_tampered_type_fails(self):
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["type"] = "[Z/5Z]"
        assert any(name == "type matches" and not ok
                   for name, ok, _ in verify_json(data))

    def test_tampered_frobenius_fails(self):
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["frobenius"] = "(1 2)"
        assert any(name == "frobenius permutation matches" and not ok
                   for name, ok, _ in verify_json(data))

    def test_tampered_five_point_frobenius_is_typed_from_the_points(self):
        # the type is read from the permutation recomputed from the points,
        # as for four-point models; the stored one fails its own check
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["frobenius"] = "(1 2 3 4 5)"
        checks = {name: (ok, detail) for name, ok, detail in verify_json(data)}
        assert checks["type matches"] == (True, "")
        assert checks["frobenius permutation matches"] == (False, "recomputed (1 2 3 4)")

    def test_tampered_four_point_frobenius_output_is_pinned(self):
        data = small_field_realize(F3, "[<(1,2)>]").to_json()
        data["frobenius"] = "(1 2 3)"
        assert verify_json(data) == [
            ("model parses", True, ""),
            ("point count", True, ""),
            ("construction tag consistent", True, ""),
            ("frobenius stability", True, ""),
            ("frobenius permutation matches", False, "recomputed (3 4)"),
            ("general position", True, ""),
            ("type matches", True, ""),
        ]

    def test_tampered_point_breaks_stability(self):
        data = realize_dp5(F2, "[Z/5Z]").to_json()
        data["points"][2][1] = [1, 1]  # replace one coordinate
        checks = verify_json(data)
        assert any(not ok for _, ok, _ in checks)

    def test_off_conic_point_fails_only_the_parse(self):
        # the parse tests every marked point once; verify reads its verdict
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["points"][4] = [[1], [], [1]]  # (1:0:1) is off y^2 = xz
        assert verify_json(data) == [("model parses", False, "point off the marked conic")]

    def test_tampered_conic_marker_fails(self):
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["on_conic"] = False
        assert any(name == "construction tag consistent" and not ok
                   for name, ok, _ in verify_json(data))

    def test_zero_base_degree_fails_parse(self):
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["field"] = "3^4:base=0"
        [(name, ok, detail)] = verify_json(data)
        assert name == "model parses" and not ok and "at least 1" in detail

    def test_oversized_field_fails_parse(self):
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["field"] = "2^1000:base=1"
        [(name, ok, detail)] = verify_json(data)
        assert name == "model parses" and not ok and "at most 6" in detail

    def test_infinite_degree_fails_parse(self):
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["degree"] = float("inf")
        [(name, ok, detail)] = verify_json(data)
        assert name == "model parses" and not ok and "infinity" in detail

    def test_non_boolean_conic_marker_fails_parse(self):
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["on_conic"] = "no"
        [(name, ok, detail)] = verify_json(data)
        assert name == "model parses" and not ok and "JSON boolean" in detail

    def test_collinear_fourpoint_model_fails_verification(self):
        model = small_field_realize(F3, "[<(1,2)>]")
        data = model.to_json()
        # move the second rational point onto the line joining the pair
        data["points"][1] = [[], [1], []]  # zero is written []
        checks = verify_json(data)
        assert any(name == "general position" and not ok for name, ok, _ in checks)

    def test_blowdown_vertex_tamper_fails(self):
        data = realize_dp6(F2, "[Z/3]").to_json()
        data["blowdown_vertex"] = [1, 4]  # moved by the 3-cycle image
        checks = verify_json(data)
        assert any(name == "blow-down vertex invariant" and not ok
                   for name, ok, _ in checks)

    def test_unparseable_model(self):
        checks = verify_json({"degree": 5})
        assert checks == [("model parses", False, checks[0][2])]


_CHECKS_BEFORE_THE_VERTEX = (
    "PASS model parses\n"
    "PASS point count\n"
    "PASS construction tag consistent\n"
    "PASS frobenius stability\n"
    "PASS frobenius permutation matches\n"
    "PASS general position\n"
    "PASS conic membership\n"
)


# --- points held as packed ints -------------------------------------------------
#
# A PlanePoint keeps its coordinates as packed ints; field elements are built
# only at the library's edges (the public constructor, ``coords``, ``__str__``).

_PACKED_FIELDS = ["7", "2^40", "3^25", "65521", "1009^4"]


def _model_with_point(data, index, coords):
    data = json.loads(json.dumps(data))
    data["points"][index] = coords
    return data


def _parse_error(data):
    with pytest.raises(ValueError) as err:
        model_from_json(data)
    return str(err.value)


class TestPackedPoints:
    @pytest.mark.parametrize("field", _PACKED_FIELDS)
    def test_every_point_is_its_coordinates(self, field):
        for name in CYCLIC5:
            model = realize_dp5(parse_field_literal(field), name)
            spec = model.spec
            assert model_from_json(model.to_json()) == model
            for point, written in zip(model.config.points, model.to_json()["points"]):
                assert point.coords == tuple(fields.from_coeffs(spec, c) for c in written)
                assert point._v == tuple(c._v for c in point.coords)
                assert PlanePoint(spec, point.coords) == point
                assert hash(PlanePoint(spec, point.coords)) == hash(point)

    @pytest.mark.parametrize("field", _PACKED_FIELDS)
    def test_point_errors_keep_their_order(self, field):
        model = realize_dp5(parse_field_literal(field), "[Z/6Z]")
        data, spec = model.to_json(), model.spec
        p, m = spec.p, spec.m
        scaled = [0, 1]  # x, a coordinate other than 1: the working field has m = 6
        bad_coefficient = f"coefficient {p} is not an integer in [0, {p})"
        cases = [
            ([[], [], []], "point has no nonzero coordinate"),
            ([scaled, [], []], f"point {[scaled, [], []]!r} is not normalized: "
                               "its first nonzero coordinate must be 1"),
            ([[], [], scaled], f"point {[[], [], scaled]!r} is not normalized: "
                               "its first nonzero coordinate must be 1"),
            # each coordinate is checked before the point is
            ([[], [], [p]], bad_coefficient),
            ([scaled, [1, p], []], bad_coefficient),
            ([scaled, [1], [0] * (m + 1)], f"{m + 1} coefficients, more than the degree {m}"),
            ([[1], "x", [p]], "coefficients must be a list, not str"),
            # within a coordinate, every coefficient before the trailing zero
            ([[1], [p, 0], []], bad_coefficient),
            ([[1], [1, 0], []], "trailing zero coefficient"),
            ([[1], [True], []], f"coefficient True is not an integer in [0, {p})"),
            ([[1], [], [-1]], f"coefficient -1 is not an integer in [0, {p})"),
        ]
        for coords, message in cases:
            assert _parse_error(_model_with_point(data, 2, coords)) == message
            (name, ok, detail), = verify_json(_model_with_point(data, 2, coords))
            assert (name, ok, detail) == ("model parses", False, message)

    @pytest.mark.parametrize("field, name, construction", [
        ("7", "[Z/5Z]", "conic5"), ("2", "[Z/3Z]", "fourpoints")])
    def test_verify_builds_no_field_element(self, monkeypatch, field, name, construction):
        # a work count that reads the same on any host: field elements built
        data = realize_dp5(parse_field_literal(field), name).to_json()
        assert data["construction"] == construction
        built = _count_built_elements(monkeypatch)
        assert all(ok for _, ok, _ in verify_json(data))
        assert built == []
        model = model_from_json(data)
        assert len(model.config.points[0].coords) == 3 and len(built) == 3  # the wrap counts


def _count_built_elements(monkeypatch):
    """The list that every FFElem built from now on is appended to: the
    unchecked ``_elem`` (in each module that binds it) and ``FFElem.__init__``."""
    built = []
    elem, init = fields._elem, FFElem.__init__

    def counted_elem(spec, v):
        built.append(v)
        return elem(spec, v)

    def counted_init(self, spec, coeffs):
        built.append(coeffs)
        init(self, spec, coeffs)

    for module in (fields, construct):
        if getattr(module, "_elem", None) is elem:
            monkeypatch.setattr(module, "_elem", counted_elem)
    monkeypatch.setattr(FFElem, "__init__", counted_init)
    return built


class TestSeedSearchWork:
    # work counts that read the same on any host: the seed search multiplies
    # packed ints and tests each line of a subfield count by one Frobenius
    # image per proper divisor, so it builds no field element but its result
    @pytest.mark.parametrize("field, combines", [("2^40", 9), ("3^25", 9)])
    def test_frobenius_images_of_one_search(self, monkeypatch, field, combines):
        # the columns of frobenius^2 and frobenius^3, one image per line
        # tested and one per placed point; none per basis vector of a subfield
        base, group = parse_field_literal(field), class_representative("[Z/6Z]", 5)
        work = make_field(base.p, base.base_degree, group.order)
        work._kernels.clear()
        work._frob.clear()
        calls = []
        for ring in (fields._Fp, fields._F2):  # _F2 has its own combine
            def counted(self, *args, combine=ring.combine):
                calls.append(args)
                return combine(self, *args)

            monkeypatch.setattr(ring, "combine", counted)
        betas = _points_with_action_stats(base, group)[0]
        assert len(calls) == combines
        assert all(frobenius(b, 6) == b for b in betas)

    @pytest.mark.parametrize("field, name", [
        ("7", "[Z/5Z]"), ("7", "[Z/6Z]"), ("2^40", "[Z/6Z]"), ("65521^2", "[Z/6Z]")])
    def test_the_search_builds_only_its_betas(self, monkeypatch, field, name):
        base, group = parse_field_literal(field), class_representative(name, 5)
        built = _count_built_elements(monkeypatch)
        betas = _points_with_action_stats(base, group)[0]
        assert sorted(built) == sorted(b._v for b in betas) and len(built) == 5

    @pytest.mark.parametrize("field, name", [
        ("2", "[Z/3Z]"), ("3", "[<(1,2)>]"), ("2", "[<(1,2)(3,4)>]")])
    def test_small_field_models_build_no_element(self, monkeypatch, field, name):
        base = parse_field_literal(field)
        built = _count_built_elements(monkeypatch)
        model = small_field_realize(base, name)
        assert built == [] and model.type_label.name == name
        assert len(model.config.points[0].coords) == 3 and len(built) == 3  # the wrap counts


class TestDegree6VerifyWithWarmCaches:
    # verify reads the vertex and its blow-down type from one table per Galois
    # image; a second model of the same image must take the filled table and
    # print what the uncached path printed
    @pytest.mark.parametrize("name,vertex,tail", [
        ("[Z/6]", [1, 2], "FAIL blow-down vertex invariant (vertex moved by the Galois image)\n"),
        ("[Z/6]", [1, 2, 3], "FAIL blow-down vertex invariant (vertex moved by the Galois image)\n"),
        ("[<((1,2),0)>]", [1, 2],
         "PASS blow-down vertex invariant\nFAIL type matches (recomputed [<(id,1)>])\n"),
    ])
    def test_tampered_vertex_prints_the_uncached_lines(self, name, vertex, tail, tmp_path):
        data = realize_dp6(F7, name).to_json()
        assert all(ok for _, ok, _ in verify_json(data))
        hits = construct._blowdown_types.cache_info().hits
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dict(data, blowdown_vertex=vertex)), encoding="utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["verify", "--input", str(path)])
        assert (code, out.getvalue()) == (1, _CHECKS_BEFORE_THE_VERTEX + tail)
        assert construct._blowdown_types.cache_info().hits == hits + 1


def _set(path, value):
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


def _delete(key):
    return lambda data: data.pop(key)


class TestStrictJson:
    # An edit that realize could never have written fails to parse, with the reason.
    @pytest.mark.parametrize("edit, reason", [
        (_set(["degree"], 5.9), "degree must be a JSON integer"),
        (_set(["degree"], "5"), "degree must be a JSON integer"),
        (_set(["degree"], True), "degree must be a JSON integer"),
        (_set(["points", 0, 1, 0], 7 + 1), "not an integer in [0, 7)"),
        (_set(["points", 0, 1, 0], -6), "not an integer in [0, 7)"),
        (_set(["points", 0, 1, 0], 1.0), "not an integer in [0, 7)"),
        (_set(["points", 0, 0], [1, 0]), "trailing zero"),
        (_set(["points", 0, 0], [1, 0, 0, 0, 0]), "more than the degree 4"),
        (_set(["extra"], 1), "unknown key 'extra'"),
        (_delete("on_conic"), "missing key 'on_conic'"),
        (_set(["field"], "7^4:base=01"), "field must be written '7^4:base=1'"),
        (_set(["frobenius"], "(1,2,3,4)"), "frobenius must be written"),
        (_set(["type"], 4), "type must be a JSON string"),
        (_set(["blowdown_vertex"], [1, 2]), "degree-6 models only"),
        (_set(["points", 0], [[2], [], []]), "first nonzero coordinate must be 1"),
        (_set(["points", 0], [[], [], []]), "no nonzero coordinate"),
        (_set(["points", 0], [[1], []]), "three coordinates"),
    ])
    def test_non_canonical_model_fails_parse(self, edit, reason):
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        assert data["field"] == "7^4:base=1" and data["points"][0][1] == [0, 1]
        edit(data)
        [(name, ok, detail)] = verify_json(data)
        assert name == "model parses" and not ok and reason in detail

    def test_doubled_point_fails_parse(self):
        data = realize_dp5(F7, "[Z/4Z]").to_json()
        data["points"][0] = [[2 * c % 7 for c in coord] for coord in data["points"][0]]
        [(name, ok, detail)] = verify_json(data)
        assert name == "model parses" and not ok and "not normalized" in detail

    @pytest.mark.parametrize("vertex", [[2, 1], [1, 1, 2], [1, True], "12", None])
    def test_blowdown_vertex_must_be_written_sorted(self, vertex):
        data = realize_dp6(F2, "[Z/3]").to_json()
        data["blowdown_vertex"] = vertex
        [(name, ok, detail)] = verify_json(data)
        assert name == "model parses" and not ok and "increasing integers" in detail

    # realize tags a degree-6 model with the degree-5 tag plus "_blowdown"
    @pytest.mark.parametrize("degree, tag", [
        (6, "conic5"), (6, "fourpoints"), (5, "conic5_blowdown"), (5, "fourpoints_blowdown"),
    ])
    def test_construction_tag_must_match_degree(self, degree, tag):
        model = realize_dp6(F7, "[Z/3]") if degree == 6 else realize_dp5(F7, "[Z/4Z]")
        data = model.to_json()
        data["construction"] = tag
        [(name, ok, detail)] = verify_json(data)
        assert name == "model parses" and not ok
        assert detail == f"construction tag {tag!r} does not match degree {degree}"


# --- an oracle for the Galois image of four-point models ---------------------
#
# Frobenius acts on the ten (-1)-classes of a four-point blow-up directly: the
# exceptional class E_i goes to the class over the Frobenius image of P_i, and
# the line through P_i and P_j goes to the line through the images of P_i and
# P_j.  The Kneser labels are {i,5} for E_i and {1,2,3,4} minus {i,j} for that
# line.  SurfaceModel.galois_image must induce exactly this vertex action.

def _ten_class_action(config):
    pts = config.points
    where = {p: i for i, p in enumerate(pts, start=1)}
    moved = [p.apply_frobenius() for p in pts]
    image = {frozenset({i, 5}): frozenset({where[q], 5})
             for i, q in enumerate(moved, start=1)}
    line_label = {
        _line(pts[i - 1], pts[j - 1]): frozenset({1, 2, 3, 4} - {i, j})
        for i, j in itertools.combinations(range(1, 5), 2)
    }
    for i, j in itertools.combinations(range(1, 5), 2):
        line = _line(moved[i - 1], moved[j - 1])
        image[frozenset({1, 2, 3, 4} - {i, j})] = line_label[line]
    graph = curve_graph(5)
    return Perm(tuple(graph.index(image[v]) - 1 for v in graph.vertices))


def _random_point_of_degree(work, d, rng):
    """A random plane point whose Frobenius orbit has exactly d points (d = 1 or n)."""
    scalars = subfield_elements(work)
    while True:
        if d == 1:
            coords = tuple(rng.choice(scalars) for _ in range(3))
        else:
            coords = tuple(FFElem(work, tuple(rng.randrange(work.p) for _ in range(work.m)))
                           for _ in range(3))
        if not any(coords):
            continue
        point = PlanePoint(work, coords)
        orbit = [point]
        while (nxt := orbit[-1].apply_frobenius()) != point:
            orbit.append(nxt)
        if len(orbit) == d:
            return orbit


def _random_four_point_config(p, e, orbit_sizes, rng):
    """A Frobenius-stable configuration in general position, in shuffled order."""
    work = make_field(p, e, max(orbit_sizes))
    while True:
        pts = [q for d in orbit_sizes for q in _random_point_of_degree(work, d, rng)]
        rng.shuffle(pts)
        if len(set(pts)) == 4 and general_position(pts):
            return PointConfig(work, tuple(pts))


class TestFourPointGaloisImage:
    def test_every_small_field_fourpoint_model(self):
        seen = 0
        for qtext in ["2", "3", "2^2", "5"]:
            base = parse_field_literal(qtext)
            models = [realize_dp5(base, name) for name in CYCLIC5]
            models += [realize_dp6(base, name) for name in CYCLIC6]
            for model in models:
                if not model.construction.startswith("fourpoints"):
                    continue
                seen += 1
                generator = model.galois_image().generators[0]
                assert graph_action(generator).perm == _ten_class_action(model.config)
        assert seen == 8 + 10  # degree-5 models and blow-downs

    @pytest.mark.parametrize("p,e,orbit_sizes", [
        (p, e, sizes)
        for p, e in [(2, 1), (3, 1), (2, 2), (3, 2)]
        for sizes in [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
        if e * max(sizes) <= 4
    ])
    def test_random_stable_configurations(self, p, e, orbit_sizes):
        rng = random.Random(f"{p}^{e}:{orbit_sizes}")
        for _ in range(6):
            config = _random_four_point_config(p, e, orbit_sizes, rng)
            model = dp5_from_four_points(config)
            generator = model.galois_image().generators[0]
            assert graph_action(generator).perm == _ten_class_action(config)
            assert sorted(map(len, generator.cycles())) == sorted(
                d for d in orbit_sizes if d > 1)


# --- properties of verify_json (derandomized) ---------------------------------

_MODEL_CASES = [(q, 5, name) for q in ("2", "3", "2^2", "7") for name in CYCLIC5] + \
    [(q, 6, name) for q in ("2", "3", "2^2") for name in CYCLIC6]


def _model_json(case):
    qtext, degree, name = case
    realize = realize_dp5 if degree == 5 else realize_dp6
    return realize(parse_field_literal(qtext), name).to_json()


# Any value the json module can load, including NaN and Infinity.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _assert_check_list(checks):
    assert isinstance(checks, list) and checks
    for name, ok, detail in checks:
        assert isinstance(name, str) and isinstance(ok, bool) and isinstance(detail, str)
        assert ok == (detail == "")  # a detail exactly on a FAIL


class TestVerifyProperties:
    @_SETTINGS
    @given(value=_JSON)
    def test_any_json_value_gives_a_check_list(self, value):
        _assert_check_list(verify_json(value))

    @_SETTINGS
    @given(case=st.sampled_from(_MODEL_CASES), data=st.data())
    def test_any_one_key_replaced_gives_a_check_list(self, case, data):
        model = _model_json(case)
        key = data.draw(st.sampled_from(sorted(model) + ["blowdown_vertex"]))
        model[key] = data.draw(_JSON)
        _assert_check_list(verify_json(model))

    @_SETTINGS
    @given(case=st.sampled_from(_MODEL_CASES), data=st.data())
    def test_another_frobenius_fails(self, case, data):
        model = _model_json(case)
        n = len(model["points"])
        other = data.draw(st.sampled_from(symmetric_group_elements(n)).filter(
            lambda g: g.cycle_string() != model["frobenius"]))
        model["frobenius"] = other.cycle_string()
        assert not all(ok for _, ok, _ in verify_json(model))

    @_SETTINGS
    @given(case=st.sampled_from(_MODEL_CASES), data=st.data())
    def test_another_type_fails(self, case, data):
        model = _model_json(case)
        other = data.draw(st.sampled_from(class_names(model["degree"])).filter(
            lambda name: name != model["type"]))
        model["type"] = other
        assert not all(ok for _, ok, _ in verify_json(model))


_EDITS = st.sampled_from(["replace", "delete", "add", "coefficient", "coordinate", "swap"])


def _mutate(model, data):
    edit = data.draw(_EDITS)
    if edit == "replace":
        model[data.draw(st.sampled_from(sorted(model) + ["blowdown_vertex"]))] = data.draw(_JSON)
    elif edit == "delete":
        del model[data.draw(st.sampled_from(sorted(model)))]
    elif edit == "add":
        model[data.draw(st.text(max_size=8))] = data.draw(_JSON)
    else:
        points = model["points"]
        i = data.draw(st.integers(0, len(points) - 1))
        j = data.draw(st.integers(0, 2))
        if edit == "swap":
            k = data.draw(st.integers(0, len(points) - 1))
            points[i], points[k] = points[k], points[i]
        elif edit == "coordinate":
            points[i][j] = data.draw(st.lists(st.integers(-3, 10), max_size=7))
        else:
            coeffs = points[i][j]
            k = data.draw(st.integers(0, len(coeffs)))
            value = data.draw(st.integers(-10, 10) | _JSON)
            coeffs[k:k + 1] = [value]


class TestStrictJsonProperty:
    @_SETTINGS
    @given(case=st.sampled_from(_MODEL_CASES), data=st.data())
    def test_mutated_model_fails_parse_or_round_trips(self, case, data):
        model = _model_json(case)
        _mutate(model, data)
        checks = verify_json(model)
        _assert_check_list(checks)
        if checks[0] == ("model parses", True, ""):
            assert model_from_json(model).to_json() == model


# The 299 models of the realize sweep golden, read only, as tests/test_golden.py reads them.
with open(Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "realize_sweep.json",
          encoding="utf-8") as _fh:
    _SWEEP_MODELS = [json.loads(entry["json"]) for entry in json.load(_fh).values()]

# JSON atoms that land anywhere in a model: huge ints, floats, bools, strings, nested lists.
_ATOMS = st.sampled_from([10 ** 700, -(10 ** 700), 2 ** 64, -1, 0, 0.5, float("inf"),
                          float("-inf"), float("nan"), True, False, None, "", "(1 2)", "2^1",
                          [], [[]], [[[1]]], [[1], [], []]])


def _containers(value):
    """Every object and list in a JSON value, the value itself first."""
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, list):
        children = value
    else:
        return []
    return [value] + [c for child in children for c in _containers(child)]


def _edit(model, data):
    """Replace a value, drop a key or an item, or add a key or an item, anywhere."""
    container = data.draw(st.sampled_from(_containers(model)))
    kind = data.draw(st.sampled_from(["replace", "drop", "add"] if container else ["add"]))
    atom = copy.deepcopy(data.draw(_ATOMS))
    if isinstance(container, dict):
        keys = sorted(container) if kind != "add" else sorted(model) + ["blowdown_vertex", "x"]
        key = data.draw(st.sampled_from(keys))
        if kind == "drop":
            del container[key]
        else:
            container[key] = atom
    else:
        i = data.draw(st.integers(0, len(container) - (kind != "add")))
        if kind == "replace":
            container[i] = atom
        elif kind == "drop":
            del container[i]
        else:
            container.insert(i, atom)


class TestReaderContract:
    # model_from_json promises a ValueError for anything it refuses, and
    # verify_json catches nothing else
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(index=st.integers(0, len(_SWEEP_MODELS) - 1), edits=st.integers(1, 3), data=st.data())
    def test_a_mutated_sweep_model_raises_only_value_error(self, index, edits, data):
        model = copy.deepcopy(_SWEEP_MODELS[index])
        for _ in range(edits):
            _edit(model, data)
        try:
            model_from_json(model)
        except ValueError as err:
            assert verify_json(model) == [("model parses", False, str(err))]
        else:
            assert verify_json(model)[0] == ("model parses", True, "")


def _base_field_literal(p):
    """A literal p^e for some e with p^e within the base-field ceiling."""
    top = max(e for e in range(1, 41) if p ** e <= MAX_BASE_FIELD)
    return st.integers(1, top).map(lambda e: f"{p}^{e}")


class TestRealizeVerifyProperty:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(literal=st.sampled_from([2, 3, 5, 7, 11, 101, 257, 65521]).flatmap(_base_field_literal),
           case=st.sampled_from([(5, n) for n in CYCLIC5] + [(6, n) for n in CYCLIC6]))
    def test_any_field_and_cyclic_type_realizes_and_verifies(self, literal, case):
        degree, name = case
        realize = realize_dp5 if degree == 5 else realize_dp6
        data = realize(parse_field_literal(literal), name).to_json()
        failed = [check for check in verify_json(data) if not check[1]]
        assert failed == [], (literal, case)
        assert model_from_json(data).to_json() == data


# library errors that no other test reaches, with their exact text
@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: dp5_from_four_points(PointConfig(F7, tuple(
        plane_point(F7, *xyz) for xyz in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))),
                 "the four-point construction needs exactly 4 points", id="dp5_from_four_points"),
    pytest.param(lambda: small_field_realize(F2, "[Z/5Z]"),
                 "no small-field construction for type [Z/5Z]", id="small_field_realize"),
    pytest.param(lambda: small_field_realize(F2, "[<(1,2),(3,4)>]"),  # c(H) = 2, not cyclic
                 "no small-field construction for type [<(1,2),(3,4)>]",
                 id="small_field_realize_not_cyclic"),
    pytest.param(lambda: conic_config([]),
                 "general position needs at least three points", id="conic_config"),
    pytest.param(lambda: conic_point(F7, one(F4)),
                 "a plane point needs three coordinates in one field", id="conic_point"),
    pytest.param(lambda: points_with_action(F7, class_representative("[Z/6]", 6)),
                 "degree mismatch", id="points_with_action"),
])
def test_library_errors(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
