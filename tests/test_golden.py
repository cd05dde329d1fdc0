"""Byte-identity of realize, verify and the CLI against the benchmark goldens.

``perfbench/golden`` holds the outputs the benchmark compares every operation
with.  These tests replay each entry in process and compare byte for byte;
they only read the golden files.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from delpezzo import cli, construct
from delpezzo.construct import realize_dp5, realize_dp6, verify_json
from delpezzo.fields import parse_field_literal

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
CHECK_SECONDS = re.compile(r"\(\d+\.\d\ds\)")


def load(name):
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue()}


def replay_sweep(entries):
    for key, want in entries:
        field, degree, label = key.split("|")
        realize = realize_dp5 if degree == "5" else realize_dp6
        data = realize(parse_field_literal(field), label).to_json()
        assert json.dumps(data, indent=2) == want["json"], key
        assert [list(c) for c in verify_json(data)] == want["verify"], key


def test_realize_sweep_matches_golden():
    golden = load("realize_sweep")
    assert len(golden) == 299
    replay_sweep(golden.items())


def test_realize_sweep_matches_golden_again_in_reverse():
    # the per-type tables of construct are filled by the first pass (or by
    # earlier tests); a second pass in the other order reads them back.  The
    # models are keyed by field too, so their cache starts empty here
    construct._model5.cache_clear()
    golden = load("realize_sweep")
    replay_sweep(golden.items())
    replay_sweep(reversed(golden.items()))
    # keyed by a permutation of degree 4 or 5, by a subgroup of S5, by a
    # pinned representative (19 + 10 classes), or, the models, by (p, base
    # degree, type): 23 fields x 7 cyclic types
    bounds = {construct._galois_type: 144,
              construct._blowdown_types: 156, construct._orbit_plan: 156,
              construct._type_labels: 29, construct._model5: 161}
    for cache, bound in bounds.items():
        assert 0 < cache.cache_info().currsize <= bound, cache.__name__
    # a new cache in construct gets a bound here too
    caches = {f for f in vars(construct).values()
              if hasattr(f, "cache_info") and f.__module__ == construct.__name__}
    assert caches <= bounds.keys(), sorted(f.__name__ for f in caches - bounds.keys())


def test_cli_matches_golden(tmp_path, monkeypatch):
    golden = load("cli")
    monkeypatch.chdir(tmp_path)
    calls = verifies = 0
    for key, want in golden.items():
        if key.startswith("verify "):
            continue
        argv = json.loads(key)
        calls += 1
        if "--output" in argv:
            # a fresh file each time: overwriting one file stalls on some filesystems
            at = argv.index("--output") + 1
            argv[at] = f"model{calls}.json"
        got = run(argv)
        if argv == ["check-paper"]:
            got["stdout"] = CHECK_SECONDS.sub("(-s)", got["stdout"])
        assert got == want, key
        if "--output" in argv:
            verifies += 1
            assert run(["verify", "--input", argv[at]]) == golden["verify " + key], key
    assert (calls, verifies) == (321, 182)
