"""The delpezzo benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client: each operation starts when the previous
one has finished, and child processes run one at a time):

* ``cli-cold``: ``python -m delpezzo <argv>`` subprocesses over a seeded mix
  of all eight commands, ``check-paper`` and the documented rejections
  included.
* ``realize-sweep``: passes of realize -> to_json -> verify_json over every
  (field, cyclic type) of the pool, each pass in a fresh interpreter.

Every output is compared byte for byte with ``perfbench/golden``.  End-to-end
timings are in reference seconds: wall seconds scaled by the speed of a fixed
loop timed next to them (see ``speed.py``).  With
``--trace 0`` the last line of stdout is a JSON object holding the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run,
which is paired with an untraced run of the same work to give the tracing
overhead.  The program is run from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import corpus
import speed
from corpus import BENCH_DIR, OUT_DIR, ROOT, SRC

WORKLOADS = ("cli-cold", "realize-sweep")
CHILD_TIMEOUT_S = 120
SETUP_REPEATS = 5
SETUPS_PER_ROUND = 3
NOTE = ("shared sandbox; no machine setting was changed, so medians of repeats, "
        "in reference seconds (speed.py), stand in for isolation")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # check-paper writes model files through tempfile; keep them in the checkout
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    return env


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (p in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


class Run:
    """Counters, metric values and report lines of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.lines: list[str] = []
        self.units = 0
        self.spans: list[list] = []  # [unit, span id, name, start, end, parent id]

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def more(self, done: int, at_least: int = 1) -> bool:
        """Keep going until --seconds have passed and enough units are done."""
        return done < at_least or self.elapsed() < self.args.seconds

    def metric(self, name: str, value: float, unit: str, label: str = "", detail: str = "") -> None:
        """Record a metric; with a label, also print it under that name."""
        self.metrics[name] = {"value": value, "unit": unit}
        if label:
            self.report(label, value, unit, detail)

    def report(self, label: str, value: float, unit: str, detail: str = "") -> None:
        self.lines.append(f"{label} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))

    def collect(self, out) -> dict:
        """Read and delete a child's result file, keeping its spans."""
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        out.unlink()
        self.spans += [[self.units, *span] for span in data.pop("spans", ())]
        return data

    def write_spans(self) -> None:
        """Write the spans of every traced unit, one JSON list per line."""
        trace_dir = OUT_DIR / "trace"
        trace_dir.mkdir(exist_ok=True)
        path = trace_dir / f"{self.args.workload}-seed{self.args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def child(self, argv: list[str], label: str) -> dict | None:
        """Run worker.py in a fresh interpreter; None (and a failure) if it dies."""
        self.units += 1
        out = OUT_DIR / f"child-{os.getpid()}-{self.units}.json"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *argv, "--out", str(out)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
            ok = proc.returncode == 0 and out.is_file()
            detail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:] if not ok else []
        except subprocess.TimeoutExpired:
            ok, detail = False, ["timed out"]
        if not ok:
            self.attempted += 1
            self.failures.append(f"{label}: child failed {detail}")
            return None
        data = self.collect(out)
        self.attempted += data.get("attempted", 0)
        self.failures += data.get("failures", [])
        return data


def _scaled(measure, *args) -> tuple[float, float]:
    """(wall seconds of measure(*args), the speed scale read around it)."""
    before = speed.scale()
    seconds = measure(*args)
    return seconds, (before + speed.scale()) / 2


def _report_wall(run: Run, samples: dict, scale: float) -> None:
    """Print the unscaled medians beside the reported reference seconds."""
    for label, values in samples.items():
        run.report(f"wall.{label}", statistics.median(values), "s", "unscaled")
    run.report("speed_scale", scale, "x", f"median; {speed.REFERENCE_S} s / reference loop time")


def _timed_spawn(code: str) -> float:
    start = time.perf_counter()
    # A pipe lets the wait end at the child's exit: without one, a wait with a
    # timeout polls, and the poll interval would quantize the time.
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(), check=True,
                   stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def _peak_children_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _add_totals(into: dict, totals: dict) -> None:
    for name, value in totals.items():
        into[name] = into.get(name, 0) + value


def _per_layer(run: Run, totals: dict, units: int, extra: dict) -> None:
    from tracer import layer_metrics, per_layer_spec

    values = {**layer_metrics(totals, units), **extra}
    for name, unit, _ in per_layer_spec():
        run.metric(name, values.get(name, 0), unit)
    run.write_spans()


# --- cli-cold -------------------------------------------------------------------

def _cli_call(run: Run, golden: dict, call, traced: bool, totals: dict) -> float:
    """Run one CLI call, check its output and return its wall seconds."""
    kind, argv, key = call
    work = OUT_DIR / "cli"
    work.mkdir(exist_ok=True)
    if traced:
        run.units += 1
        out = OUT_DIR / f"cli-trace-{os.getpid()}-{run.units}.json"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "cli", "--out", str(out), "--", *argv]
    else:
        cmd = [sys.executable, "-m", "delpezzo", *argv]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=work, env=_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        code, stdout = proc.returncode, proc.stdout.decode(errors="replace")
    except subprocess.TimeoutExpired:
        code, stdout = None, ""
    seconds = time.perf_counter() - start
    run.attempted += 1
    if kind == corpus.CHECK_PAPER_KIND:
        stdout = corpus.mask_check_seconds(stdout)
    want = golden.get(key)
    if want is None or code != want["code"] or stdout != want["stdout"]:
        run.failures.append(f"cli {' '.join(argv)}: exit {code}, output differs from the golden corpus")
    if traced and out.is_file():
        _add_totals(totals, run.collect(out)["totals"])
    return seconds


def cli_cold(run: Run) -> None:
    args = run.args
    golden = corpus.load_golden("cli")
    setup = [_scaled(_timed_spawn, "import delpezzo") for _ in range(SETUP_REPEATS)]
    run.start = time.perf_counter()
    if args.trace:
        interp = statistics.median(_timed_spawn("pass") for _ in range(SETUP_REPEATS))
        imported = statistics.median(s for s, _ in setup)
        totals: dict = {}
        plain_s = traced_s = 0.0
        rounds = 0
        while run.more(rounds):
            calls = corpus.cli_round(args.seed, rounds, args.smoke)
            plain_s += sum(_cli_call(run, golden, c, False, totals) for c in calls)
            traced_s += sum(_cli_call(run, golden, c, True, totals) for c in calls)
            rounds += 1
        # each round makes one check-paper call, so the selfcheck layer's
        # per-round values are per run_all()
        _per_layer(run, totals, rounds, {
            "cli.interpreter_s": interp,
            "cli.import_s": imported - interp,
            "trace_overhead_ratio": traced_s / plain_s,
        })
        return
    samples: list[tuple[str, float, float]] = []  # kind, wall seconds, speed scale
    rounds = 0
    at_least = 1 if args.smoke else corpus.MIN_CLI_CALLS
    while run.more(len(samples), at_least):
        # more set-ups each round, so that setup_s samples the whole run
        setup += [_scaled(_timed_spawn, "import delpezzo") for _ in range(SETUPS_PER_ROUND)]
        for call in corpus.cli_round(args.seed, rounds, args.smoke):
            seconds, scale = _scaled(_cli_call, run, golden, call, False, {})
            samples.append((call[0], seconds, scale))
        rounds += 1

    def pick(kinds, scaled=True):
        return [s * c if scaled else s for kind, s, c in samples if kind in kinds]

    classify = corpus.CLASSIFY_KINDS
    plain = {kind for kind, _, _ in samples} - classify - {corpus.CHECK_PAPER_KIND}
    every = pick(classify | plain | {corpus.CHECK_PAPER_KIND})
    n = (f"n={len(every)}: {len(pick(classify))} classify, {len(pick(plain))} plain, "
         f"{len(pick({corpus.CHECK_PAPER_KIND}))} check-paper, {rounds} rounds")
    run.metric("setup_s", statistics.median(s * c for s, c in setup), "s", "setup_s",
               f"fresh `import delpezzo`, median of {len(setup)}")
    run.metric("primary_p50_s", statistics.median(pick(classify)), "s", "cli_classify_p50_s", n)
    run.metric("secondary_p50_s", statistics.median(pick(plain)), "s", "cli_plain_p50_s", n)
    run.metric("tail_s", percentile(every, 90), "s", "cli_p90_s", n)
    run.report("cli_check_paper_p50_s", statistics.median(pick({corpus.CHECK_PAPER_KIND})), "s", n)
    run.metric("ops_per_s", len(every) / sum(every), "1/s", "cli_calls_per_s", n)
    run.metric("peak_rss_mb", _peak_children_mb(), "MB", "peak_rss_mb",
               "maximum over the CLI children")
    _report_wall(run, {
        "setup_s": [s for s, _ in setup],
        "cli_classify_p50_s": pick(classify, False),
        "cli_plain_p50_s": pick(plain, False),
    }, statistics.median(c for _, _, c in samples))


# --- realize-sweep --------------------------------------------------------------

def realize_sweep(run: Run) -> None:
    args = run.args
    base = ["sweep", "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    if args.trace:
        totals: dict = {}
        plain_s = traced_s = 0.0
        passes = 0
        while run.more(passes):
            argv = base + ["--pass", str(passes)]
            plain = run.child(argv, f"pass {passes}")
            traced = run.child(argv + ["--trace"], f"traced pass {passes}")
            if plain and traced:
                plain_s += plain["setup_s"] + plain["loop_s"]
                traced_s += traced["setup_s"] + traced["loop_s"]
                _add_totals(totals, traced["totals"])
            passes += 1
        _per_layer(run, totals, passes, {"trace_overhead_ratio": traced_s / plain_s if plain_s else 0})
        return
    results = []
    while run.more(len(results)):
        data = run.child(base + ["--pass", str(len(results))], f"pass {len(results)}")
        results.append(data)
    results = [r for r in results if r]
    wall_realize = [s for r in results for s in r["realize_s"]]
    wall_verify = [s for r in results for s in r["verify_s"]]
    scales = [c for r in results for c in r["scales"]]
    setup = [r["setup_s"] * r["setup_scale"] for r in results]
    realize = [s * c for s, c in zip(wall_realize, scales)]
    verify = [s * c for s, c in zip(wall_verify, scales)]
    n = f"n={len(realize)} over {len(results)} passes"
    run.metric("setup_s", statistics.median(setup), "s", "setup_s",
               f"import + subgroup_classes(5), (6); median of {len(setup)} passes")
    run.metric("primary_p50_s", statistics.median(realize), "s", "realize_p50_s", n)
    run.metric("secondary_p50_s", statistics.median(verify), "s", "verify_p50_s", n)
    # p95 falls where per-operation times drop steeply with the seeded order,
    # so it jumps between runs; p90 lies in a flat stretch and is the gated tail
    run.metric("tail_s", percentile(realize, 90), "s", "realize_p90_s", n)
    run.report("realize_p95_s", percentile(realize, 95), "s", n)
    run.report("verify_p95_s", percentile(verify, 95), "s", n)
    run.metric("ops_per_s", len(realize) / (sum(realize) + sum(verify)), "1/s",
               "sweep_ops_per_s", "realize+verify pairs per second of their own time")
    run.metric("peak_rss_mb", max(r["peak_rss_mb"] for r in results), "MB", "peak_rss_mb",
               "largest pass")
    _report_wall(run, {
        "setup_s": [r["setup_s"] for r in results],
        "realize_p50_s": wall_realize,
        "verify_p50_s": wall_verify,
    }, statistics.median(scales))


# --- report ---------------------------------------------------------------------

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "delpezzo").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def env_stamp(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "note": NOTE,
    }


def run_workload(args) -> Run:
    run = Run(args)
    {"cli-cold": cli_cold, "realize-sweep": realize_sweep}[args.workload](run)
    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one unit of each workload on a tiny slice (for the smoke test)")
    args = parser.parse_args()
    if not (SRC / "delpezzo" / "__init__.py").is_file():
        print(f"error: no delpezzo sources under {SRC}", file=sys.stderr)
        return 2
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        run = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        failed = len(run.failures)
        attempted = max(run.attempted, 1)
        print("env " + json.dumps(env_stamp(run.args)))
        for line in run.lines:
            print(f"[{name}] {line}")
        print(f"[{name}] fail_ratio = {failed / attempted:.6g}  ({failed}/{attempted} operations)")
        for failure in run.failures[:20]:
            print(f"[{name}] FAIL {failure}")
        results[name] = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                         "metrics": run.metrics}
    sys.stdout.flush()
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
