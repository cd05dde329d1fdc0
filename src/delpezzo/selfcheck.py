"""End-to-end self-verification of every headline result in the package.

Each check re-derives one pinned table or headline claim from scratch
— brute-force subset scans, independently recomputed centralizers, a
backtracking search for graph automorphisms, full realize/verify sweeps
through the command-line interface — and compares against the package's
answer.  ``run_all`` executes the ten checks in order and reports timing;
the ``check-paper`` CLI command prints the scoreboard.  The sweeps pass each
model in memory, from ``realize --json`` to ``verify --input -``: no file is
written, so ``verify`` only ever reads the text just realized.

All comparisons are exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
import time
from typing import Callable

from .classify import aut_table, finite, g_minimal_exists
from .construct import points_with_action
from .curvegraphs import (
    curve_graph,
    graph_action,
    has_invariant_independent_set,
    invariant_vertices,
    vertex_stabilizer,
)
from .fields import frobenius, parse_field_literal
from .perms import (
    _Record,
    all_subgroups,
    centralizer,
    class_label,
    class_names,
    class_representative,
    complexity,
    contains_order5,
    cyclic_generator,
    generate,
    hexagon_group_elements,
    hexagon_restriction,
    symmetric_group_elements,
)
from .picard import (
    conic_classes,
    induced_lattice_action,
    intersect,
    invariant_rank,
    is_g_minimal,
    minus_one_classes,
)


class CheckResult(_Record):
    __slots__ = ("name", "ok", "seconds", "detail")

    def __init__(self, name: str, ok: bool, seconds: float, detail: str):
        self._set(name, ok, seconds, detail)


def _run_cli(*argv: str, stdin: str = "") -> tuple[int, str]:
    """Run the command-line interface in-process on ``stdin``, capturing stdout."""
    from . import cli

    buf = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


def _round_trips(fields, labels, degree: int) -> tuple[list[tuple[int, str, dict]], str]:
    """Realize each (field, label) with ``--json`` and verify exactly that text.

    Returns (q, label, model) per model verified, then the first problem or "".
    """
    models = []
    for (literal, q), label in itertools.product(fields, labels):
        code, text = _run_cli("realize", "--field", literal, "--degree",
                              str(degree), "--type", label, "--json")
        if code != 0:
            return models, f"degree-{degree} realize failed for {label} over F_{q}: {text}"
        model = json.loads(text)
        if model["type"] != label:
            return models, f"type drift for {label} over F_{q}"
        code, out = _run_cli("verify", "--input", "-", stdin=text)
        if code != 0 or "FAIL" in out:
            return models, f"degree-{degree} verify failed for {label} over F_{q}:\n{out}"
        models.append((q, label, model))
    return models, ""


# --- pinned expectations (duplicated here on purpose, as the cross-check) ----

_DEGREE5_CENSUS = (
    ("[e]", 1), ("[<(1,2)>]", 2), ("[<(1,2)(3,4)>]", 2),
    ("[<(1,2),(3,4)>]", 4), ("[<(1,2)(3,4),(1,3)(2,4)>]", 4),
    ("[Z/3Z]", 3), ("[Z/4Z]", 4), ("[Z/5Z]", 5), ("[Z/6Z]", 6),
    ("[D4]", 8), ("[D5]", 10), ("[<(1,2,3),(1,2)>]", 6),
    ("[<(1,2,3),(1,2)(4,5)>]", 6), ("[S3xZ/2Z]", 12), ("[A4]", 12),
    ("[A5]", 60), ("[S4]", 24), ("[S5]", 120), ("[GA(1,5)]", 20),
)

_DEGREE6_CENSUS = (
    ("[e]", 1), ("[<((1,2),0)>]", 2), ("[<((1,2),1)>]", 2),
    ("[<(id,1)>]", 2), ("[Z/2xZ/2]", 4), ("[Z/3]", 3), ("[Z/6]", 6),
    ("[<((1,2,3),0),((1,2),0)>]", 6), ("[<((1,2,3),0),((1,2),1)>]", 6),
    ("[S3xZ/2]", 12),
)

_AUT_EXPECTED = (
    ("[e]", "S5", 120),
    ("[<(1,2)>]", "S3xZ/2Z", 12),
    ("[<(1,2)(3,4)>]", "D4", 8),
    ("[<(1,2),(3,4)>]", "Z/2ZxZ/2Z", 4),
    ("[<(1,2)(3,4),(1,3)(2,4)>]", "Z/2ZxZ/2Z", 4),
    ("[Z/3Z]", "Z/6Z", 6),
    ("[Z/6Z]", "Z/6Z", 6),
    ("[Z/4Z]", "Z/4Z", 4),
    ("[Z/5Z]", "Z/5Z", 5),
    ("[<(1,2,3),(1,2)>]", "Z/2Z", 2),
    ("[<(1,2,3),(1,2)(4,5)>]", "Z/2Z", 2),
    ("[D4]", "Z/2Z", 2),
    ("[S3xZ/2Z]", "Z/2Z", 2),
    ("[S5]", "e", 1),
    ("[A5]", "e", 1),
    ("[S4]", "e", 1),
    ("[A4]", "e", 1),
    ("[D5]", "e", 1),
    ("[GA(1,5)]", "e", 1),
)

_COMPLEXITY_EXPECTED = {
    "[e]": 5, "[<(1,2)>]": 3, "[<(1,2)(3,4)>]": 2, "[Z/3Z]": 2,
    "[Z/4Z]": 1, "[Z/5Z]": 1, "[Z/6Z]": 1,
}

# Which cyclic types need the small-field four-point constructions, per q.
_FALLBACK_EXPECTED = {
    2: {"[e]", "[<(1,2)>]", "[<(1,2)(3,4)>]", "[Z/3Z]"},
    3: {"[e]", "[<(1,2)>]"},
    4: {"[e]"},
    5: {"[e]"},
}

_FIELD_LITERALS = (("2", 2), ("3", 3), ("2^2", 4), ("5", 5), ("7", 7),
                   ("2^3", 8), ("3^2", 9))


def _cyclic_labels(degree: int) -> list[str]:
    return [
        name for name in class_names(degree)
        if class_representative(name, degree).is_cyclic
    ]


# --- the ten checks -----------------------------------------------------------


def check_class_census() -> tuple[bool, str]:
    """Both class lists (labels, orders, counts) against frozen expectations."""
    problems = []
    for degree, expected, n_subgroups, group, size in (
        (5, _DEGREE5_CENSUS, 156, symmetric_group_elements(5), 120),
        (6, _DEGREE6_CENSUS, 16, hexagon_group_elements(), 12),
    ):
        code, out = _run_cli("classes", "--degree", str(degree), "--json")
        if code != 0:
            problems.append(f"degree {degree}: exit {code}")
            continue
        got = [(e["label"], e["order"]) for e in json.loads(out)]
        if got != list(expected):
            problems.append(f"degree {degree}: census mismatch {got}")
        if len(group) != size:
            problems.append(f"degree {degree}: ambient group size {len(group)}")
        if len(all_subgroups(degree)) != n_subgroups:
            problems.append(f"degree {degree}: {len(all_subgroups(degree))} subgroups")
    if problems:
        return False, "; ".join(problems)
    return True, "19 + 10 classes, orders matched; 156 subgroups of S5"


def check_aut_table() -> tuple[bool, str]:
    """The 19-row automorphism table, with centralizers recomputed brute-force."""
    code, out = _run_cli("aut-table", "--json")
    if code != 0:
        return False, f"exit {code}"
    got = [(r["type"], r["aut_group"], r["order"]) for r in json.loads(out)]
    if got != list(_AUT_EXPECTED):
        return False, f"table mismatch: {got}"
    for row in aut_table():
        rep = class_representative(row.label)
        brute = {
            s for s in symmetric_group_elements(5)
            if all(s * h == h * s for h in rep.elements)
        }
        if set(row.aut_group.elements) != brute:
            return False, f"centralizer mismatch at {row.label.name}"
    return True, "19 rows matched; centralizers recomputed from scratch"


def check_minimal_rank() -> tuple[bool, str]:
    """invariant_rank == 1 iff an order-5 element; rank == conic orbit count."""
    conics = conic_classes()
    for sub in all_subgroups(5):
        rank = invariant_rank(sub)
        if (rank == 1) != contains_order5(sub):
            return False, f"rank-1 criterion fails at {sub.generators}"
        actions = [induced_lattice_action(h) for h in sub.generators]
        seen = set()
        orbit_count = 0
        for start in conics:
            if start in seen:
                continue
            orbit_count += 1
            stack = [start]
            while stack:
                cls = stack.pop()
                if cls in seen:
                    continue
                if cls not in conics:
                    return False, f"outside the conic classes: {cls} at {sub.generators}"
                seen.add(cls)
                stack.extend(a.apply(cls) for a in actions)
        if rank != orbit_count:
            return False, f"rank {rank} != conic orbits {orbit_count}"
    return True, "all 156 subgroups: rank-1 iff order 5; rank == conic orbits"


def _brute_invariant_independent(sub, subsets) -> bool:
    """Scan all 2^10 vertex subsets for a nonempty invariant independent one:
    ``subsets[mask]`` lists the vertices in mask, and each one's image bit must lie in mask."""
    image_bits = [[1 << i for i in graph_action(h).perm.images] for h in sub.generators]
    adj = curve_graph(5).adjacency
    for mask in range(1, 1 << 10):
        vertices = subsets[mask]
        if all(bits[v] & mask for bits in image_bits for v in vertices) \
                and not any(adj[i][j] for i in vertices for j in vertices):
            return True
    return False


def check_invariant_vertices() -> tuple[bool, str]:
    """Subset scans: invariant independent sets, fixed vertices, maximality."""
    order5_free = []
    subsets = [[v for v in range(10) if mask >> v & 1] for mask in range(1 << 10)]
    for sub in all_subgroups(5):
        brute = _brute_invariant_independent(sub, subsets)
        if brute != has_invariant_independent_set(sub)[0]:
            return False, f"subset scan disagrees at {sub.generators}"
        if not brute and not contains_order5(sub):
            return False, f"no invariant independent set, no order 5: " \
                          f"{sub.generators}"
        if not contains_order5(sub):
            order5_free.append(sub)
        if class_label(sub, 5).name == "[S3xZ/2Z]" and not invariant_vertices(sub):
            return False, f"vertex-stabilizer conjugate fixes nothing: " \
                          f"{sub.generators}"
    maximal_labels = set()
    for sub in order5_free:
        if any(other.order > sub.order and sub <= other for other in order5_free):
            continue
        maximal_labels.add(class_label(sub, 5).name)
    if maximal_labels != {"[S3xZ/2Z]", "[S4]"}:
        return False, f"maximal order-5-free classes: {sorted(maximal_labels)}"
    return True, "2^10 scans over 156 subgroups; maximal order-5-free = " \
                 "vertex stabilizer and S4"


def _petersen_automorphisms_brute() -> set[tuple[int, ...]]:
    """All adjacency-preserving vertex bijections, by backtracking search."""
    adj = curve_graph(5).adjacency
    found: set[tuple[int, ...]] = set()

    def extend(partial: list[int]):
        i = len(partial)
        if i == 10:
            found.add(tuple(partial))
            return
        for cand in range(10):
            if cand not in partial and all(adj[i][j] == adj[cand][partial[j]] for j in range(i)):
                extend(partial + [cand])

    extend([])
    return found


def check_graph_isomorphism() -> tuple[bool, str]:
    """Lattice intersection graph == labeled Kneser graph; Aut brute-forced."""
    graph = curve_graph(5)
    labeled = minus_one_classes(5)
    if tuple(label for _, label in labeled) != graph.vertices:
        return False, "vertex labels out of order"
    for (ca, va), (cb, vb) in itertools.combinations(labeled, 2):
        lattice_adjacent = intersect(ca, cb) == 1
        graph_adjacent = graph.adjacency[graph.index(va) - 1][graph.index(vb) - 1]
        if lattice_adjacent != graph_adjacent:
            return False, f"adjacency mismatch at {set(va)}, {set(vb)}"
        if intersect(ca, cb) not in (0, 1):
            return False, f"unexpected intersection number at {set(va)}, {set(vb)}"
    brute = _petersen_automorphisms_brute()
    image = {graph_action(s).perm.images for s in symmetric_group_elements(5)}
    if len(brute) != 120 or image != brute:
        return False, f"automorphism group: brute {len(brute)}, image {len(image)}"
    return True, "labeled graphs equal; Aut(Petersen) = S5 image, order 120"


def check_realization_sweep() -> tuple[bool, str]:
    """Realize+verify all cyclic degree-5 types over q in {2,..,9}; reject rest."""
    cyclic = _cyclic_labels(5)
    models, problem = _round_trips(_FIELD_LITERALS, cyclic, 5)
    if problem:
        return False, problem
    for q, label, model in models:
        expected_tag = "fourpoints" if label in _FALLBACK_EXPECTED.get(q, set()) else "conic5"
        if model["construction"] != expected_tag:
            return False, f"{label} over F_{q}: construction " \
                          f"{model['construction']}, expected {expected_tag}"
    negatives = 0
    non_cyclic = [n for n in class_names(5) if n not in cyclic]
    for (literal, q), label in itertools.product(_FIELD_LITERALS, non_cyclic):
        code, out = _run_cli("realize", "--field", literal, "--type", label)
        if code != 1 or "cyclic" not in json.loads(out)["error"]:
            return False, f"non-cyclic {label} over F_{q} not rejected"
        negatives += 1
    return True, f"{len(models)} realized+verified, {negatives} rejected"


def check_complexity_thresholds() -> tuple[bool, str]:
    """Computed complexities match, and reproduce the small-q fallback split."""
    got = {
        name: complexity(class_representative(name, 5))
        for name in _cyclic_labels(5)
    }
    if got != _COMPLEXITY_EXPECTED:
        return False, f"complexities {got}"
    for q in (2, 3, 4, 5, 7, 8, 9):
        needs_fallback = {name for name, c in got.items() if q <= c}
        if needs_fallback != _FALLBACK_EXPECTED.get(q, set()):
            return False, f"fallback set at q={q}: {sorted(needs_fallback)}"
    return True, "complexities (5,3,2,2,1,1,1); fallback split at q=2..5 exact"


def check_degree6_pipeline() -> tuple[bool, str]:
    """Blow-down realization of every cyclic degree-6 type; stabilizer bijection."""
    stab = vertex_stabilizer(frozenset({4, 5}))
    images = {hexagon_restriction(s) for s in stab.elements}
    if len(images) != 12 or images != set(hexagon_group_elements()):
        return False, "restriction map is not a bijection onto the hexagon group"
    models, problem = _round_trips((("2", 2), ("3", 3), ("2^2", 4)), _cyclic_labels(6), 6)
    if problem:
        return False, problem
    for q, label, model in models:
        if "blowdown_vertex" not in model:
            return False, f"bad degree-6 model for {label} over F_{q}"
    return True, f"stabilizer restriction bijective; {len(models)} blow-down " \
                 f"models realized+verified"


def check_minimal_existence() -> tuple[bool, str]:
    """g_minimal_exists against brute force over commuting cyclic images."""
    cap = finite(2)
    for group in all_subgroups(5):
        exists, witness = g_minimal_exists(group, cap)
        brute = False
        for h in centralizer(group).elements:
            image = generate([h], degree=5)
            if image.is_cyclic and is_g_minimal(group, image):
                brute = True
                break
        if exists != brute:
            return False, f"existence mismatch at {group.generators}"
        if exists:
            rep = class_representative(witness)
            if not rep.is_cyclic:
                return False, f"non-realizable witness {witness} at " \
                              f"{group.generators}"
    return True, "all 156 subgroups agree with the brute-force search"


def check_equivariance() -> tuple[bool, str]:
    """500 random (q, cyclic type) instances of the equivariant point sets."""
    rng = random.Random(20260814)
    pool = (("2", 2), ("3", 3), ("2^2", 4), ("5", 5), ("7", 7), ("2^3", 8),
            ("3^2", 9), ("11", 11), ("13", 13), ("2^4", 16), ("5^2", 25))
    cyclic = _cyclic_labels(5)
    for _ in range(500):
        label = rng.choice(cyclic)
        rep = class_representative(label, 5)
        cap = complexity(rep)
        literal, q = rng.choice([entry for entry in pool if entry[1] > cap])
        base = parse_field_literal(literal)
        betas = points_with_action(base, rep)
        g = cyclic_generator(rep)
        if len(set(betas)) != 5:
            return False, f"collision for {label} over F_{q}"
        for i in range(1, 6):
            if frobenius(betas[i - 1]) != betas[g(i) - 1]:
                return False, f"equivariance fails for {label} over F_{q} at {i}"
    return True, "500 seeded instances: distinct points, exact equivariance"


_CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("class census", check_class_census),
    ("automorphism table", check_aut_table),
    ("minimality rank criterion", check_minimal_rank),
    ("invariant vertex scan", check_invariant_vertices),
    ("graph isomorphism", check_graph_isomorphism),
    ("realization sweep", check_realization_sweep),
    ("complexity thresholds", check_complexity_thresholds),
    ("degree-6 pipeline", check_degree6_pipeline),
    ("minimal existence", check_minimal_existence),
    ("equivariance property", check_equivariance),
)


def run_all() -> tuple[CheckResult, ...]:
    """Run every check in order, timing each one."""
    results = []
    for name, func in _CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = func()
        except Exception as err:  # a crash is a failure, not an abort
            ok, detail = False, f"{type(err).__name__}: {err}"
        results.append(CheckResult(name, ok, time.perf_counter() - start, detail))
    return tuple(results)
