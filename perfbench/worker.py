"""One benchmark child process: a sweep pass or a traced CLI call.

Each child starts in a fresh interpreter, so every unit of work starts with
empty caches.  ``run.py`` starts the children one at a time and reads the
JSON each one writes to ``--out``.

    python3 perfbench/worker.py sweep  --seed S --pass K --out F [--trace] [--smoke]
    python3 perfbench/worker.py cli    --out F -- <delpezzo argv>

``cli`` is the traced command-line runner: it imports delpezzo, installs the
tracer and calls ``cli.main(argv)``, printing exactly what the CLI prints.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import corpus
import speed

sys.path.insert(0, str(corpus.SRC))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _finish(args, result: dict, tracer) -> None:
    if tracer is not None:
        result["totals"] = tracer.totals()
        result["spans"] = tracer.spans
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _tracer(enabled: bool):
    if not enabled:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


# Operations between two readings of the speed reference: often enough to
# follow the host's speed phases, rarely enough to cost little.
SCALE_EVERY = 10


def run_sweep(args) -> None:
    scale_before = speed.scale()
    start = time.perf_counter()
    from delpezzo import construct, fields, perms  # the import is part of set-up

    tracer = _tracer(args.trace)
    perms.subgroup_classes(5)
    perms.subgroup_classes(6)
    setup_s = time.perf_counter() - start
    setup_scale = (scale_before + speed.scale()) / 2

    golden = corpus.load_golden("realize_sweep")
    realize_s, verify_s, blocks, failures = [], [], [], []
    loop_start = time.perf_counter()
    readings = [speed.scale()]
    for index, (field, degree, label) in enumerate(
            corpus.sweep_order(args.seed, args.pass_index, args.smoke)):
        if index and index % SCALE_EVERY == 0:
            readings.append(speed.scale())
        key = corpus.sweep_key(field, degree, label)
        t0 = time.perf_counter()
        try:
            base = fields.parse_field_literal(field)
            realize = construct.realize_dp5 if degree == 5 else construct.realize_dp6
            data = realize(base, label).to_json()
            text = json.dumps(data, indent=2)
            t1 = time.perf_counter()
            checks = [list(c) for c in construct.verify_json(data)]
            t2 = time.perf_counter()
        except Exception as err:  # a crash counts as a failed operation
            failures.append(f"{key}: {type(err).__name__}: {err}")
            continue
        realize_s.append(t1 - t0)
        verify_s.append(t2 - t1)
        blocks.append(len(readings) - 1)
        want = golden.get(key)
        if want is None or text != want["json"] or checks != want["verify"]:
            failures.append(f"{key}: output differs from the golden corpus")
    readings.append(speed.scale())
    # each operation is scaled by the readings taken before and after its block
    scales = [(readings[b] + readings[b + 1]) / 2 for b in blocks]
    _finish(args, {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "loop_s": time.perf_counter() - loop_start,
        "realize_s": realize_s,
        "verify_s": verify_s,
        "scales": scales,
        "attempted": len(realize_s) + len(failures),
        "failures": failures,
        "peak_rss_mb": _peak_rss_mb(),
    }, tracer)


def run_cli(args) -> int:
    from delpezzo import cli

    tracer = _tracer(True)
    try:
        code = cli.main(args.argv)
    finally:
        sys.stdout.flush()
        _finish(args, {}, tracer)
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("sweep", "cli"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]
    if args.mode == "sweep":
        run_sweep(args)
    else:
        return run_cli(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
