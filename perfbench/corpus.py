"""Workload inputs and the golden corpus they are checked against.

Everything here is pure data plus seeded schedules: the same seed always
gives the same operations in the same order.  The program under test only
ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
OUT_DIR = ROOT / ".bench_out"

CYCLIC_TYPES = {
    5: ("[e]", "[<(1,2)>]", "[<(1,2)(3,4)>]", "[Z/3Z]", "[Z/4Z]", "[Z/5Z]",
        "[Z/6Z]"),
    6: ("[e]", "[<((1,2),0)>]", "[<((1,2),1)>]", "[<(id,1)>]", "[Z/3]",
        "[Z/6]"),
}
NON_CYCLIC_TYPES_5 = (
    "[<(1,2),(3,4)>]", "[<(1,2)(3,4),(1,3)(2,4)>]", "[D4]", "[D5]",
    "[<(1,2,3),(1,2)>]", "[<(1,2,3),(1,2)(4,5)>]", "[S3xZ/2Z]", "[A4]",
    "[A5]", "[S4]", "[S5]", "[GA(1,5)]",
)

# --- realize-sweep ------------------------------------------------------------

# Both field shapes: large p with small m, and small p with large m.  The pool
# stops at q = 49 so that one cold pass stays within a few seconds.
SWEEP_FIELDS = ("2", "3", "2^2", "5", "7", "2^3", "3^2", "11", "13", "2^4",
                "17", "19", "23", "5^2", "3^3", "29", "31", "2^5", "37", "41",
                "43", "47", "7^2")
SMOKE_SWEEP_FIELDS = ("2", "7")


def sweep_ops(fields=SWEEP_FIELDS) -> list[tuple[str, int, str]]:
    """Every (field, degree, cyclic type) of the sweep, in canonical order."""
    return [(f, d, label) for f in fields for d in (5, 6) for label in CYCLIC_TYPES[d]]


def sweep_order(seed: int, pass_index: int, smoke: bool = False) -> list[tuple[str, int, str]]:
    ops = sweep_ops(SMOKE_SWEEP_FIELDS if smoke else SWEEP_FIELDS)
    random.Random(f"sweep:{seed}:{pass_index}").shuffle(ops)
    return ops


def sweep_key(field: str, degree: int, label: str) -> str:
    return f"{field}|{degree}|{label}"


# --- cli-cold -------------------------------------------------------------------

CLI_FIELDS = ("2", "3", "2^2", "5", "7", "2^3", "3^2")
MODEL_FILE = "model.json"
ORBIT_GENERATORS = ("(1 2 3 4 5)", "(1 2)(3 4)", "(1 2 3); (4 5)", "(1 2); (3 4)",
                    "(1 2 3 4)", "()")
# (acting group, Galois image) pairs that commute elementwise
MINIMAL_PAIRS = (("()", "(1 2 3 4 5)"), ("(1 2 3 4 5)", "()"), ("(1 2)", "(3 4 5)"),
                 ("(1 2)(3 4)", "(1 3)(2 4)"), ("(1 2 3)", "(4 5)"),
                 ("(4 5)", "(1 2 3)"), ("()", "(1 2)(3 4)"),
                 ("(1 2 3 4 5)", "(1 3 5 2 4)"))
# (subgroup, vertex) pairs where the subgroup fixes the vertex
BLOWDOWN_PAIRS = (("(1 2)", "{4,5}"), ("(1 2 3)", "{4,5}"), ("(4 5)", "{4,5}"),
                  ("(1 2 3)(4 5)", "{4,5}"), ("()", "{1,2}"), ("(1 2)(3 4)", "{1,2}"),
                  ("(3 4 5)", "{1,2}"), ("(1 2); (4 5)", "{4,5}"))
BAD_ARGV = ((), ("frobnicate",), ("classes",), ("classes", "--degree", "7"),
            ("realize", "--field", "2"), ("graph", "--degree", "5", "--bogus"))

# Commands that build the S5 subgroup lattice pay about 0.3 s more than the
# rest, so the two kinds are reported separately.  Verifying a degree-6 model
# needs only the hexagon lattice, so it counts as plain.  ``check-paper`` runs
# the whole self-verification suite, about ten times a classifying call, so it
# is a kind of its own.
CLASSIFY_KINDS = frozenset({"classes5", "aut-table", "realize", "verify5", "reject"})
CHECK_PAPER_KIND = "check-paper"

# Fixed count of each command in one round; the seed only orders the round and
# draws arguments.  9 classifying, 16 plain and 1 check-paper call keep each
# kind's median well inside its own cost mode, and four rounds give 104 calls,
# so that ten lie beyond p90.
ROUND_COUNTS = (("classes5", 1), ("aut-table", 1), ("realize-pair5", 2),
                ("realize-pair6", 2), ("reject", 1), ("classes6", 2), ("graph", 6),
                ("minimal", 3), ("blowdown", 2), ("bad-argv", 1), (CHECK_PAPER_KIND, 1))
SMOKE_ROUND_COUNTS = tuple((kind, 1) for kind, _ in ROUND_COUNTS)
MIN_CLI_CALLS = 100


def _draw(rng: random.Random, kind: str) -> list[tuple[str, tuple[str, ...]]]:
    """One or two (kind, argv) calls of the given round slot."""
    flag = ("--json",) if rng.random() < 0.5 else ()
    if kind == "classes5":
        return [("classes5", ("classes", "--degree", "5", *flag))]
    if kind == "classes6":
        return [("classes6", ("classes", "--degree", "6", *flag))]
    if kind == "aut-table":
        return [("aut-table", ("aut-table", *flag))]
    if kind == "graph":
        degree = rng.choice(("5", "6"))
        variant = rng.choice(("summary", "dot", "orbits") if degree == "5"
                             else ("summary", "dot"))
        argv = ("graph", "--degree", degree)
        if variant == "dot":
            argv += ("--dot",)
        elif variant == "orbits":
            argv += ("--dot", "--orbits", rng.choice(ORBIT_GENERATORS))
        return [("graph", argv)]
    if kind == "minimal":
        group, galois = rng.choice(MINIMAL_PAIRS)
        return [("minimal", ("minimal", "--group", group, "--galois", galois, *flag))]
    if kind == "blowdown":
        sub, vertex = rng.choice(BLOWDOWN_PAIRS)
        return [("blowdown", ("blowdown", "--subgroup", sub, "--vertex", vertex, *flag))]
    if kind == CHECK_PAPER_KIND:
        return [(CHECK_PAPER_KIND, ("check-paper",))]
    if kind == "bad-argv":
        return [("bad-argv", rng.choice(BAD_ARGV))]
    if kind == "reject":
        return [("reject", ("realize", "--field", rng.choice(CLI_FIELDS),
                            "--type", rng.choice(NON_CYCLIC_TYPES_5)))]
    if kind in ("realize-pair5", "realize-pair6"):
        degree = int(kind[-1])
        argv = ("realize", "--field", rng.choice(CLI_FIELDS), "--degree", str(degree),
                "--type", rng.choice(CYCLIC_TYPES[degree]), *flag,
                "--output", MODEL_FILE)
        return [("realize", argv), (f"verify{degree}", ("verify", "--input", MODEL_FILE))]
    raise ValueError(f"unknown round slot {kind!r}")


def cli_round(seed: int, round_index: int, smoke: bool = False) -> list[list]:
    """One round of [kind, argv, golden key] calls; a verify follows its realize."""
    rng = random.Random(f"cli:{seed}:{round_index}")
    slots = [kind for kind, n in (SMOKE_ROUND_COUNTS if smoke else ROUND_COUNTS)
             for _ in range(n)]
    rng.shuffle(slots)
    calls = []
    for slot in slots:
        drawn = _draw(rng, slot)
        key = cli_key(drawn[0][1])
        for kind, argv in drawn:
            # verify output depends only on the model that realize just wrote
            calls.append([kind, list(argv), "verify " + key if kind.startswith("verify") else cli_key(argv)])
    return calls


def cli_key(argv) -> str:
    return json.dumps(list(argv))


def cli_pool() -> list[tuple[str, ...]]:
    """Every argv a round can draw, for freezing the golden corpus."""
    pool = [("classes", "--degree", d, *f) for d in ("5", "6") for f in ((), ("--json",))]
    pool += [("aut-table", *f) for f in ((), ("--json",))]
    pool += [("graph", "--degree", d, *v) for d in ("5", "6") for v in ((), ("--dot",))]
    pool += [("graph", "--degree", "5", "--dot", "--orbits", g) for g in ORBIT_GENERATORS]
    pool += [("minimal", "--group", g, "--galois", h, *f)
             for g, h in MINIMAL_PAIRS for f in ((), ("--json",))]
    pool += [("blowdown", "--subgroup", s, "--vertex", v, *f)
             for s, v in BLOWDOWN_PAIRS for f in ((), ("--json",))]
    pool += list(BAD_ARGV)
    pool.append(("check-paper",))
    pool += [("realize", "--field", f, "--type", t)
             for f in CLI_FIELDS for t in NON_CYCLIC_TYPES_5]
    pool += [("realize", "--field", f, "--degree", str(d), "--type", t, *j,
              "--output", MODEL_FILE)
             for f in CLI_FIELDS for d in (5, 6) for t in CYCLIC_TYPES[d]
             for j in ((), ("--json",))]
    return pool


# --- check-paper ----------------------------------------------------------------

_CHECK_SECONDS = re.compile(r"\(\d+\.\d\ds\)")


def mask_check_seconds(stdout: str) -> str:
    """``check-paper`` output with each check's timing replaced by a fixed mark."""
    return _CHECK_SECONDS.sub("(-s)", stdout)


# CheckResult names of selfcheck.run_all, in order, with their metric stems.
CHECK_METRICS = (
    ("class census", "class_census"),
    ("automorphism table", "aut_table"),
    ("minimality rank criterion", "minimal_rank"),
    ("invariant vertex scan", "invariant_vertices"),
    ("graph isomorphism", "graph_isomorphism"),
    ("realization sweep", "realization_sweep"),
    ("complexity thresholds", "complexity_thresholds"),
    ("degree-6 pipeline", "degree6_pipeline"),
    ("minimal existence", "minimal_existence"),
    ("equivariance property", "equivariance"),
)


# --- golden files -----------------------------------------------------------------

def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name: str) -> dict:
    with open(golden_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def save_golden(name: str, data: dict) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(golden_path(name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
