"""Freeze the golden corpus that every benchmark operation is compared with.

    python3 perfbench/make_golden.py

Writes ``perfbench/golden/{realize_sweep,cli}.json`` from the
program in ``src/``.  Re-run it only when a change is meant to alter output;
a change that claims to keep behaviour must leave these files unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import corpus

sys.path.insert(0, str(corpus.SRC))

from delpezzo import cli, construct, fields  # noqa: E402


def realize_sweep() -> dict:
    out = {}
    for field, degree, label in corpus.sweep_ops():
        realize = construct.realize_dp5 if degree == 5 else construct.realize_dp6
        data = realize(fields.parse_field_literal(field), label).to_json()
        out[corpus.sweep_key(field, degree, label)] = {
            "json": json.dumps(data, indent=2),
            "verify": [list(c) for c in construct.verify_json(data)],
        }
    return out


def _run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return {"code": code, "stdout": buf.getvalue()}


def cli_outputs() -> dict:
    work = corpus.OUT_DIR / "golden-cli"
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    out = {}
    for argv in corpus.cli_pool():
        key = corpus.cli_key(argv)
        out[key] = _run_cli(argv)
        if argv == ("check-paper",):
            out[key]["stdout"] = corpus.mask_check_seconds(out[key]["stdout"])
        if "--output" in argv:
            out["verify " + key] = _run_cli(("verify", "--input", corpus.MODEL_FILE))
    return out


def main() -> None:
    corpus.save_golden("realize_sweep", realize_sweep())
    corpus.save_golden("cli", cli_outputs())


if __name__ == "__main__":
    main()
