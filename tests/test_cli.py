"""Command-line interface: output contracts, exit codes, JSON determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delpezzo
from delpezzo import selfcheck
from delpezzo.cli import main
from delpezzo.construct import verify_json

SRC = Path(delpezzo.__file__).resolve().parent.parent


def run(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# More digits than Python's int() converts from a string by default.
_LONG_CYCLE = "(1 " + "2" * 5000 + ")"


class TestClasses:
    def test_degree5_table(self):
        code, out = run("classes", "--degree", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 21  # header + rule + 19 rows
        assert lines[2].startswith("[e]")
        assert lines[-1].startswith("[GA(1,5)]")

    def test_degree5_json(self):
        code, out = run("classes", "--degree", "5", "--json")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 19
        assert entries[0] == {
            "label": "[e]", "order": 1, "cyclic": True, "representative": "()",
        }
        assert [e["order"] for e in entries] == [
            1, 2, 2, 4, 4, 3, 4, 5, 6, 8, 10, 6, 6, 12, 12, 60, 24, 120, 20,
        ]
        assert sum(e["cyclic"] for e in entries) == 7

    def test_degree6_json(self):
        code, out = run("classes", "--degree", "6", "--json")
        assert code == 0
        entries = json.loads(out)
        assert len(entries) == 10
        assert [e["order"] for e in entries] == [1, 2, 2, 2, 4, 3, 6, 6, 6, 12]
        assert sum(e["cyclic"] for e in entries) == 6

    def test_bad_degree_is_usage_error(self):
        code, _ = run("classes", "--degree", "7")
        assert code == 2


class TestAutTable:
    def test_rows(self):
        code, out = run("aut-table", "--json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 19
        assert rows[0] == {
            "type": "[e]", "aut_group": "S5", "order": 120,
            "generators": rows[0]["generators"],
        }
        assert [r["order"] for r in rows] == [
            120, 12, 8, 4, 4, 6, 6, 4, 5, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1,
        ]
        trivial = [r["type"] for r in rows if r["aut_group"] == "e"]
        assert trivial == ["[S5]", "[A5]", "[S4]", "[A4]", "[D5]", "[GA(1,5)]"]

    def test_text_has_all_types(self):
        code, out = run("aut-table")
        assert code == 0
        for name in ("[e]", "[Z/5Z]", "[GA(1,5)]"):
            assert name in out


class TestGraph:
    def test_summary(self):
        code, out = run("graph", "--degree", "5")
        assert code == 0
        assert "vertices (10)" in out
        assert "edges (15)" in out

    def test_dot(self):
        code, out = run("graph", "--degree", "5", "--dot")
        assert code == 0
        assert out.startswith("graph curves_degree5 {")
        assert out.count(" -- ") == 15

    def test_dot_degree6(self):
        code, out = run("graph", "--degree", "6", "--dot")
        assert code == 0
        assert out.count(" -- ") == 6

    def test_dot_orbit_coloring(self):
        code, out = run("graph", "--degree", "5", "--dot",
                        "--orbits", "(1 2 3 4 5)")
        assert code == 0
        assert out.count("fillcolor") == 10
        # a 5-cycle splits the ten vertices into two orbits of five
        assert len({
            line.split('fillcolor="')[1].split('"')[0]
            for line in out.splitlines() if "fillcolor" in line
        }) == 2

    def test_orbit_coloring_needs_degree5(self):
        code, out = run("graph", "--degree", "6", "--dot", "--orbits", "(1 2)")
        assert code == 1
        assert "degree-5" in json.loads(out)["error"]

    @pytest.mark.parametrize("degree", ["5", "6"])
    def test_orbits_without_dot_is_an_error_line(self, degree):
        # the plain summary has no colors to show the orbits with
        code, out = run("graph", "--degree", degree, "--orbits", "(1 2)")
        assert code == 1
        assert json.loads(out) == {"error": "orbit coloring (--orbits) needs --dot"}


class TestRealizeAndVerify:
    def test_json_output_is_deterministic(self):
        out1 = run("realize", "--field", "7", "--type", "[Z/5Z]", "--json")[1]
        out2 = run("realize", "--field", "7", "--type", "[Z/5Z]", "--json")[1]
        assert out1 == out2
        model = json.loads(out1)
        assert model["type"] == "[Z/5Z]"
        assert model["degree"] == 5
        assert model["construction"] == "conic5"
        assert model["on_conic"] is True
        assert len(model["points"]) == 5

    def test_text_output(self):
        code, out = run("realize", "--field", "2", "--type", "[Z/6Z]")
        assert code == 0
        assert "type [Z/6Z]" in out
        assert "frobenius: (1 2 3)(4 5)" in out

    def test_output_file_then_verify(self, tmp_path):
        path = tmp_path / "model.json"
        code, _ = run("realize", "--field", "3", "--type", "[Z/4Z]",
                      "--output", str(path))
        assert code == 0
        code, out = run("verify", "--input", str(path))
        assert code == 0
        assert "FAIL" not in out
        assert "PASS type matches" in out

    def test_degree6_model_verifies(self, tmp_path):
        path = tmp_path / "model6.json"
        code, out = run("realize", "--field", "2^2", "--degree", "6",
                        "--type", "[<(id,1)>]", "--json", "--output", str(path))
        assert code == 0
        model = json.loads(out)
        assert model["degree"] == 6
        assert model["construction"].endswith("_blowdown")
        assert sorted(model["blowdown_vertex"]) in ([1, 2], [1, 3], [1, 4],
                                                    [1, 5], [2, 3], [2, 4],
                                                    [2, 5], [3, 4], [3, 5],
                                                    [4, 5])
        code, out = run("verify", "--input", str(path))
        assert code == 0
        assert "PASS blow-down vertex invariant" in out

    def test_tampered_model_fails_verify(self, tmp_path):
        path = tmp_path / "model.json"
        run("realize", "--field", "7", "--type", "[Z/3Z]",
            "--output", str(path))
        data = json.loads(path.read_text())
        data["type"] = "[Z/5Z]"
        path.write_text(json.dumps(data))
        code, out = run("verify", "--input", str(path))
        assert code == 1
        assert "FAIL type matches" in out

    def test_non_cyclic_type_rejected(self):
        code, out = run("realize", "--field", "2^2", "--type", "[S4]")
        assert code == 1
        assert json.loads(out)["error"] == \
            "not realizable: H must be cyclic over a finite field"

    def test_non_cyclic_degree_6_type_rejected(self):
        code, out = run("realize", "--degree", "6", "--field", "7", "--type", "[S3xZ/2]")
        assert code == 1
        assert json.loads(out) == {"error": "not realizable: H must be cyclic over a finite field"}

    def test_unknown_type(self):
        code, out = run("realize", "--field", "2", "--type", "[Q8]")
        assert code == 1
        assert "unknown class label" in json.loads(out)["error"]

    def test_bad_field_literal(self):
        code, out = run("realize", "--field", "6", "--type", "[e]")
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("field", ["2^1_0", "+7", " 7", "\u0663", "2^", "^3"])
    def test_field_literal_is_ascii_digits(self, field):
        code, out = run("realize", "--field", field, "--type", "[e]")
        assert code == 1
        assert json.loads(out) == {"error": f"cannot parse field literal {field!r}"}

    @pytest.mark.parametrize("field", [
        "7" * 5000, "2^" + "1" * 5000, "2^2:base=" + "1" * 5000,
    ], ids=["p", "exponent", "base"])
    def test_field_literal_number_too_long(self, field):
        # more digits than int() converts: the parser's message, not Python's
        code, out = run("realize", "--field", field, "--type", "[e]")
        assert code == 1
        assert json.loads(out) == {
            "error": "a number in a field literal has more than 600 digits"}

    def test_zero_exponent_field_literal(self):
        code, out = run("realize", "--field", "3^0", "--type", "[e]")
        assert code == 1
        assert "at least 1" in json.loads(out)["error"]

    def test_base_degree_not_dividing_is_an_error_line(self):
        code, out = run("realize", "--field", "2^5:base=2", "--type", "[e]")
        assert code == 1
        assert json.loads(out) == {"error": "base degree must divide the absolute degree"}

    def test_f101_order_six_model_is_pinned(self):
        # byte-for-byte reproducible output, pinned by its SHA-256
        code, out = run("realize", "--field", "101", "--type", "[Z/6Z]", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "513dcbef2a782f2fb6a3dcc6ddfaa2af8332a471799223965aa8ec8848ef5f8a"

    def test_missing_input_file(self):
        code, out = run("verify", "--input", "/nonexistent/model.json")
        assert code == 1
        assert "error" in json.loads(out)

    def test_verify_requires_input_flag(self):
        code, _ = run("verify")
        assert code == 2


# Far deeper than the interpreter's default recursion limit of 1000.
_DEEP_JSON = "[" * 5000 + "]" * 5000


class TestVerifyMalformedInput:
    def test_deep_json_file_is_an_error_line(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(_DEEP_JSON)
        code, out = run("verify", "--input", str(path))
        assert code == 1
        assert json.loads(out) == {"error": "model JSON is nested too deeply"}

    def test_deep_json_on_stdin_is_an_error_line(self, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(_DEEP_JSON))
        code, out = run("verify", "--input", "-")
        assert code == 1
        assert json.loads(out) == {"error": "model JSON is nested too deeply"}

    def test_infinite_degree_is_a_fail_line(self, tmp_path):
        # Python's json module accepts the non-standard literal Infinity
        path = tmp_path / "model.json"
        run("realize", "--field", "3", "--type", "[Z/3Z]", "--output", str(path))
        path.write_text(path.read_text().replace('"degree": 5', '"degree": Infinity'))
        code, out = run("verify", "--input", str(path))
        assert code == 1
        assert out.startswith("FAIL model parses")

    @pytest.mark.parametrize("key, value, reason", [
        ("field", "7" * 5000, "a number in a field literal has more than 600 digits"),
        ("frobenius", _LONG_CYCLE, "a point in a permutation has more than 600 digits"),
    ], ids=["field", "frobenius"])
    def test_number_too_long_is_a_parse_fail(self, tmp_path, key, value, reason):
        path = tmp_path / "model.json"
        run("realize", "--field", "7", "--type", "[Z/4Z]", "--output", str(path))
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        code, out = run("verify", "--input", str(path))
        assert code == 1
        assert out == f"FAIL model parses ({reason})\n"

    @pytest.mark.parametrize("number", ["5" * 5000, "-" + "5" * 5000], ids=["positive", "negative"])
    @pytest.mark.parametrize("where", ["degree", "coordinate"])
    def test_json_integer_too_long_is_a_parse_fail(self, tmp_path, where, number):
        # int() refuses more than 4300 digits with Python's own text; the
        # bounded parse_int hook answers first, as a model parses FAIL
        path = tmp_path / "model.json"
        run("realize", "--field", "7", "--type", "[Z/4Z]", "--output", str(path))
        data = json.loads(path.read_text())
        if where == "degree":
            data["degree"] = "@"
        else:
            data["points"][1][1][0] = "@"
        path.write_text(json.dumps(data).replace('"@"', number))
        code, out = run("verify", "--input", str(path))
        assert code == 1
        assert out == "FAIL model parses (a number in the model JSON has more than 600 digits)\n"

    def test_json_integer_at_the_digit_bound_still_parses(self, tmp_path):
        path = tmp_path / "model.json"
        run("realize", "--field", "7", "--type", "[Z/4Z]", "--output", str(path))
        path.write_text(path.read_text().replace('"degree": 5', '"degree": ' + "5" * 600))
        code, out = run("verify", "--input", str(path))
        assert code == 1
        assert out.startswith("FAIL model parses (")
        assert "digits" not in out

    def test_input_over_the_cap_is_an_error_line(self, tmp_path):
        # a valid model padded past 1 MiB is refused before it is parsed
        path = tmp_path / "model.json"
        run("realize", "--field", "7", "--type", "[Z/4Z]", "--output", str(path))
        path.write_text(path.read_text() + " " * (1 << 20))
        code, out = run("verify", "--input", str(path))
        assert code == 1
        assert json.loads(out) == {"error": "model JSON is longer than 1048576 characters"}

    def test_endless_stdin_is_read_up_to_the_cap(self, monkeypatch):
        class Endless:
            def read(self, size=-1):
                if size < 0:
                    raise AssertionError("an unbounded read of an endless stream")
                return " " * size

        monkeypatch.setattr(sys, "stdin", Endless())
        code, out = run("verify", "--input", "-")
        assert code == 1
        assert json.loads(out) == {"error": "model JSON is longer than 1048576 characters"}

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    @pytest.mark.parametrize("via", ["file", "stdin"])
    def test_dev_zero_is_an_error_line(self, via):
        # the child's address space is capped, so an unbounded read ends in
        # a MemoryError traceback instead of growing without limit
        argv = ["verify", "--input", "/dev/zero" if via == "file" else "-"]
        with open("/dev/zero", "rb") as zero:
            code, out, err = run_address_limited(*argv, stdin=zero)
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "model JSON is longer than 1048576 characters"}

    def test_two_point_model_is_a_general_position_fail(self, tmp_path):
        path = tmp_path / "model.json"
        run("realize", "--field", "7", "--type", "[e]", "--output", str(path))
        data = json.loads(path.read_text())
        data["points"] = data["points"][:2]
        data["frobenius"] = "()"
        path.write_text(json.dumps(data))
        code, out = run("verify", "--input", str(path))
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "PASS model parses"
        assert "FAIL general position (general position needs at least three points)" in lines

    def test_seventy_thousand_points_fail_before_any_coordinate(self):
        # just under the input cap; each point is parsed only once the list
        # is known to be no longer than a model can be
        model = json.loads(_realized("7", "5", "[e]"))
        model["points"] = model["points"][:1] * 70000
        text = json.dumps(model, separators=(",", ":"))
        assert len(text) < 1 << 20
        start = time.perf_counter()
        code, out = run_on_stdin(text, "verify", "--input", "-")
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert out == "FAIL model parses (a model has at most 5 points, not 70000)\n"


def run_on_stdin(text, *argv):
    """The CLI in process, reading ``text`` as its standard input."""
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        return run(*argv)
    finally:
        sys.stdin = saved


@lru_cache(maxsize=None)
def _realized(field, degree, label):
    code, out = run("realize", "--field", field, "--degree", degree, "--type", label, "--json")
    assert code == 0
    return out


# At most nine check lines, each reason at most 200 characters of at most four
# UTF-8 bytes: whatever verify reads, it prints no more than this.
_VERIFY_OUTPUT_BYTES = 8192
_MODELS = [("7", "5", "[Z/4Z]"), ("2", "5", "[e]"), ("3", "6", "[Z/6]")]
# Up to 16 000 characters, past any cap on echoed text.
_LONG_TEXT = st.builds(lambda piece, n: piece * n,
                       st.text(min_size=1, max_size=8), st.integers(1, 2000))
_VALUE = st.none() | st.integers() | _LONG_TEXT | st.lists(_LONG_TEXT, max_size=3)


def _stdin_text(data):
    """Random text, or a realized model with one key set to a random value."""
    if data.draw(st.booleans()):
        return data.draw(st.text(max_size=64) | _LONG_TEXT)
    model = json.loads(_realized(*data.draw(st.sampled_from(_MODELS))))
    model[data.draw(st.sampled_from(sorted(model)))] = data.draw(_VALUE)
    return json.dumps(model)


class TestEchoedTextIsCapped:
    def test_megabyte_frobenius_is_cut_in_the_fail_line(self):
        model = json.loads(_realized("7", "5", "[Z/4Z]"))
        model["frobenius"] = "x" * 10**6
        code, out = run_on_stdin(json.dumps(model), "verify", "--input", "-")
        reason = f"cannot parse permutation {model['frobenius']!r}"
        assert code == 1
        assert out == f"FAIL model parses ({reason[:197]}...)\n"
        # the library call keeps the whole reason
        assert verify_json(model) == [("model parses", False, reason)]

    def test_input_one_character_over_the_cap_is_an_error_line(self):
        code, out = run_on_stdin(" " * ((1 << 20) + 1), "verify", "--input", "-")
        assert code == 1
        assert out == '{"error": "model JSON is longer than 1048576 characters"}\n'

    def test_long_field_literal_is_cut_in_the_error_line(self):
        field = "x" * 5000
        code, out = run("realize", "--field", field, "--type", "[e]")
        assert code == 1
        assert json.loads(out) == {"error": f"cannot parse field literal {field!r}"[:197] + "..."}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_any_stdin_gives_bounded_output(self, data):
        code, out = run_on_stdin(_stdin_text(data), "verify", "--input", "-")
        assert code in (0, 1)
        assert len(out.encode("utf-8")) <= _VERIFY_OUTPUT_BYTES


def run_bounded(*argv):
    """The CLI in a child process that must finish within 60 s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "delpezzo", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout


def run_address_limited(*argv, stdin=None):
    """The CLI in a child process whose address space alone is capped at 256 MiB."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))

    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "delpezzo", *argv], stdin=stdin,
                          preexec_fn=limit, capture_output=True, text=True, env=env,
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


class TestLargeFields:
    # Building a whole base field or cubic subfield here takes minutes; the
    # 60 s bound turns such a regression into a failure instead of a hang.
    @pytest.mark.parametrize("field, label", [
        ("2^40", "[e]"), ("2^8", "[Z/6Z]"), ("1009", "[Z/6Z]"), ("2^16", "[Z/6Z]"),
        ("65521", "[Z/6Z]"), ("65521^2", "[Z/6Z]"), ("3^25", "[Z/6Z]"), ("2^40", "[Z/6Z]"),
        ("2^40", "[Z/5Z]"), ("65519", "[Z/6Z]"), ("65519", "[Z/5Z]"), ("65519", "[Z/3Z]"),
        ("1009^4", "[Z/5Z]"),
    ])
    def test_realize_then_verify(self, tmp_path, field, label):
        path = tmp_path / "model.json"
        code, out = run_bounded("realize", "--field", field, "--type", label,
                                "--output", str(path))
        assert code == 0, out
        code, out = run_bounded("verify", "--input", str(path))
        assert code == 0 and "FAIL" not in out, out
        assert "PASS type matches" in out

    def test_oversized_characteristic_rejected_up_front(self):
        # trial division would stall on this prime; the ceiling answers first
        code, out = run_bounded("realize", "--field",
                                "1000000000000000000000000000057", "--type", "[e]")
        assert code == 1
        assert "below 2^16" in json.loads(out)["error"]


def run_with_stdio(*argv, stdout, close=(), **extra_env):
    """The CLI in a child process with the given stdout and the fds in ``close``
    closed; (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **extra_env)
    proc = subprocess.run([sys.executable, "-m", "delpezzo", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=60,
                          preexec_fn=(lambda: list(map(os.close, close))) if close else None)
    return proc.returncode, proc.stdout, proc.stderr


_STDOUT_COMMANDS = [
    ["classes", "--degree", "5"], ["aut-table"],
    ["realize", "--field", "7", "--type", "[e]", "--json"],
]
_HELP_COMMANDS = [["--help"], ["realize", "--help"]]


class TestStdioEdges:
    # a failed write to stdout is exit 1 with one error line on stderr, and a
    # closed stdin is an error line of its own; neither ends in a traceback
    @pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=lambda argv: argv[0])
    def test_pipe_without_reader(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts, so its first write fails
        try:
            code, _, err = run_with_stdio(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert code == 1, err
        assert json.loads(err) == {"error": "cannot write to stdout: [Errno 32] Broken pipe"}

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", _STDOUT_COMMANDS, ids=lambda argv: argv[0])
    def test_full_device(self, argv):
        with open("/dev/full", "wb") as full:
            code, _, err = run_with_stdio(*argv, stdout=full)
        assert code == 1, err
        assert json.loads(err) == {
            "error": "cannot write to stdout: [Errno 28] No space left on device"}

    # argparse drops a failed write of its own help text; the CLI's parser does not,
    # with stdout block-buffered (PYTHONUNBUFFERED empty) or unbuffered
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", _HELP_COMMANDS, ids=" ".join)
    def test_help_to_a_pipe_without_reader(self, argv, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, _, err = run_with_stdio(*argv, stdout=write_end, PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert code == 1, err
        assert json.loads(err) == {"error": "cannot write to stdout: [Errno 32] Broken pipe"}

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", _HELP_COMMANDS, ids=" ".join)
    def test_help_to_a_full_device(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            code, _, err = run_with_stdio(*argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
        assert code == 1, err
        assert json.loads(err) == {
            "error": "cannot write to stdout: [Errno 28] No space left on device"}

    def test_closed_stdin(self):
        code, out, err = run_with_stdio("verify", "--input", "-", stdout=subprocess.PIPE,
                                        close=(0,))
        assert (code, err) == (1, "")
        assert json.loads(out) == {"error": "--input - needs a stdin, and stdin is closed"}

    # with fd 1 closed sys.stdout is None, and every print would drop the result unseen
    @pytest.mark.parametrize("argv", [["classes", "--degree", "5"], ["--help"]], ids=" ".join)
    def test_closed_stdout(self, argv):
        code, _, err = run_with_stdio(*argv, stdout=None, close=(1,))
        assert code == 1, err
        assert json.loads(err) == {"error": "cannot write to stdout: stdout is closed"}

    def test_closed_stdout_writes_no_output_file(self, tmp_path):
        target = tmp_path / "model.json"
        code, _, err = run_with_stdio("realize", "--field", "7", "--type", "[e]",
                                      "--output", str(target), stdout=None, close=(1,))
        assert code == 1, err
        assert json.loads(err) == {"error": "cannot write to stdout: stdout is closed"}
        assert not target.exists()

    def test_closed_stdout_and_stderr(self):
        code, out, err = run_with_stdio("classes", "--degree", "5", stdout=subprocess.PIPE,
                                        close=(1, 2))
        assert (code, out, err) == (1, "", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_output_file_error_keeps_its_line_on_stdout(self):
        code, out = run("realize", "--field", "7", "--type", "[e]", "--output", "/dev/full")
        assert code == 1
        assert json.loads(out) == {"error": "[Errno 28] No space left on device"}


class TestMinimal:
    def test_order5_image_is_minimal(self):
        code, out = run("minimal", "--group", "()",
                        "--galois", "(1 2 3 4 5)", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["minimal"] is True
        assert data["delta_order"] == 5
        assert data["invariant_rank"] == 1

    def test_trivial_everything_not_minimal(self):
        code, out = run("minimal", "--group", "()", "--galois", "()", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["minimal"] is False
        assert data["invariant_rank"] == 5

    def test_empty_combined_generators_print_as_the_identity(self):
        # the same "()" that classes and aut-table print for a trivial group
        code, out = run("minimal", "--group", "", "--galois", "", "--json")
        assert code == 0
        assert json.loads(out)["delta_generators"] == "()"

    def test_group_contribution_counts(self):
        # even a trivial Galois action is minimal under an order-5 group
        code, out = run("minimal", "--group", "(1 2 3 4 5)",
                        "--galois", "()", "--json")
        assert code == 0
        assert json.loads(out)["minimal"] is True

    def test_non_commuting_rejected(self):
        code, out = run("minimal", "--group", "(1 2)",
                        "--galois", "(1 2 3 4 5)")
        assert code == 1
        assert json.loads(out)["error"] == "G must centralize the Galois image"


class TestBlowdown:
    def test_vertex_dependence(self):
        code, out = run("blowdown", "--subgroup", "(1 2)", "--vertex", "{4,5}")
        assert code == 0
        assert out.strip() == "[<((1,2),0)>]"
        code, out = run("blowdown", "--subgroup", "(1 2)", "--vertex", "{1,2}")
        assert code == 0
        assert out.strip() == "[<(id,1)>]"

    def test_json(self):
        code, out = run("blowdown", "--subgroup", "(4 5)",
                        "--vertex", "{4,5}", "--json")
        assert code == 0
        assert json.loads(out) == {"vertex": [4, 5], "type": "[<(id,1)>]"}

    def test_not_in_stabilizer(self):
        code, out = run("blowdown", "--subgroup", "(1 2 3 4 5)",
                        "--vertex", "{4,5}")
        assert code == 1
        assert json.loads(out)["error"] == "not in stabilizer"

    def test_bad_vertex_syntax(self):
        code, out = run("blowdown", "--subgroup", "()", "--vertex", "bogus")
        assert code == 1
        assert "cannot parse vertex" in json.loads(out)["error"]

    # ASCII digits and spaces only (not an ideographic space), both braces or neither
    @pytest.mark.parametrize("vertex", [
        "{\u0664,\u0665}", "{4,5}x", "{4,\u30005}", "{4,5", "4,5}",
    ])
    def test_vertex_is_ascii_digits(self, vertex):
        code, out = run("blowdown", "--subgroup", "()", "--vertex", vertex)
        assert code == 1
        assert json.loads(out) == {
            "error": f"cannot parse vertex {vertex!r}; expected {{i,j}}"}

    @pytest.mark.parametrize("gens", [
        "(+1 2)", "(\u0661 2 3 4 5)", "(1\u30002)", "\u3000(1 2)",
    ])
    def test_subgroup_points_are_ascii_digits(self, gens):
        code, out = run("blowdown", "--subgroup", gens, "--vertex", "{4,5}")
        assert code == 1
        assert json.loads(out) == {"error": f"cannot parse permutation {gens!r}"}

    @pytest.mark.parametrize("vertex", ["4,5", "{ 4 , 5 }", "{4,5}"])
    def test_vertex_spellings(self, vertex):
        assert run("blowdown", "--subgroup", "(1,2)", "--vertex", vertex) == (0, "[<((1,2),0)>]\n")


class TestGeneratorInput:
    def test_unicode_space_around_a_semicolon_is_an_error_line(self):
        code, out = run("minimal", "--group", "(1 2)\u3000;\u3000(3 4)", "--galois", "()")
        assert code == 1
        assert json.loads(out) == {"error": "cannot parse permutation '(1 2)\\u3000'"}

    @pytest.mark.parametrize("argv", [
        ("minimal", "--group", _LONG_CYCLE, "--galois", "()"),
        ("minimal", "--group", "()", "--galois", _LONG_CYCLE),
        ("graph", "--degree", "5", "--orbits", _LONG_CYCLE),
        ("blowdown", "--subgroup", _LONG_CYCLE, "--vertex", "{4,5}"),
    ], ids=["group", "galois", "orbits", "subgroup"])
    def test_point_too_long_is_an_error_line(self, argv):
        code, out = run(*argv)
        assert code == 1
        assert json.loads(out) == {
            "error": "a point in a permutation has more than 600 digits"}


class TestCheckPaper:
    def test_a_raising_check_is_a_fail_line(self, monkeypatch):
        def raises():
            raise RuntimeError("boom")

        monkeypatch.setattr(selfcheck, "_CHECKS", (
            ("passes", lambda: (True, "fine")), ("raises", raises)))
        code, out = run("check-paper")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("PASS passes (") and lines[0].endswith(" — fine")
        assert lines[1].startswith("FAIL raises (")
        assert lines[1].endswith(" — RuntimeError: boom")
        assert lines[2] == "1/2 checks passed"

    def test_every_check_passes_without_asserts(self):
        # -O strips assert statements, so no check may rely on one
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-O", "-m", "delpezzo", "check-paper"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stdout
        assert proc.stdout.splitlines()[-1] == "10/10 checks passed"


class TestLabelsWithoutEnumeration:
    def test_label_path_never_builds_the_lattice(self, tmp_path):
        # naming a class reads the census tables; only all_subgroups may
        # build the subgroup lattice, so none of these commands does
        script = (
            "import sys\n"
            "from delpezzo import cli, perms\n"
            "model = sys.argv[1]\n"
            "codes = [cli.main(argv) for argv in (\n"
            "    ['realize', '--field', '7', '--type', '[Z/5Z]', '--output', model],\n"
            "    ['verify', '--input', model],\n"
            "    ['realize', '--field', '3', '--degree', '6', '--type', '[Z/6]',\n"
            "     '--output', model],\n"
            "    ['verify', '--input', model],\n"
            "    ['classes', '--degree', '5'],\n"
            "    ['aut-table'],\n"
            ")]\n"
            "print(codes, perms.all_subgroups.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "m.json")],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] 0"


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        assert run()[0] == 2

    def test_unknown_command_is_usage_error(self):
        assert run("frobnicate")[0] == 2

    def test_help_exits_zero(self):
        assert run("--help")[0] == 0

    def test_module_entry_point(self):
        code, out = run_bounded("classes", "--degree", "6")
        assert code == 0
        assert "[S3xZ/2]" in out


# The parser's own vocabulary: each command's options, with values drawn from
# sample values or junk.  check-paper and --output are left out (slow; writes
# files), and --input always names a real model file.
_MODEL = "<model file>"
_DEGREES = ["5", "6"]
_GENS = ["(1 2 3 4 5)", "(1 2)", "(4 5)", "(1 2)(3 4); (1 3)(2 4)", "()"]
_COMMANDS = {
    "classes": {"--degree": _DEGREES, "--json": None},
    "aut-table": {"--json": None},
    "graph": {"--degree": _DEGREES, "--dot": None, "--orbits": _GENS},
    "realize": {"--field": ["2", "7", "3^2", "2^2:base=1"], "--degree": _DEGREES,
                "--type": ["[e]", "[Z/5Z]", "[Z/6Z]", "[S4]", "[<(id,1)>]"],
                "--json": None},
    "verify": {"--input": [_MODEL]},
    "minimal": {"--group": _GENS, "--galois": _GENS, "--json": None},
    "blowdown": {"--subgroup": _GENS, "--vertex": ["{4,5}", "{1,2}"],
                 "--json": None},
}
# Junk never starts with "-", so it cannot abbreviate --output or --input.
_JUNK = st.text(max_size=8).filter(lambda t: not t.startswith("-"))


def _option(name, values):
    if values is None:
        return st.just([name])
    if name == "--input":
        return st.just([name, _MODEL])
    return st.tuples(st.just(name), st.sampled_from(values) | _JUNK).map(list)


def _command_argv(command):
    options = _COMMANDS[command]
    return st.builds(
        lambda chosen, stray: [command] + [t for o in chosen for t in o] + stray,
        st.lists(st.one_of([_option(k, v) for k, v in options.items()]),
                 max_size=len(options) + 1),
        st.lists(st.sampled_from(["--help", "-h", "frobnicate"]) | _JUNK,
                 max_size=1),
    )


_ARGV = st.sampled_from(sorted(_COMMANDS)).flatmap(_command_argv)


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    assert run("realize", "--field", "7", "--type", "[Z/5Z]",
               "--output", str(path))[0] == 0
    return str(path)


class TestParserReuse:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(calls=st.lists(_ARGV, min_size=1, max_size=6))
    def test_any_call_sequence_leaves_no_state(self, model_file, calls):
        before = run("classes", "--degree", "6", "--json")
        for argv in calls:
            argv = [model_file if t == _MODEL else t for t in argv]
            with redirect_stderr(io.StringIO()):
                code, _ = run(*argv)
            assert code in (0, 1, 2), argv
        assert run("classes", "--degree", "6", "--json") == before


# The package modules each command loads, besides delpezzo and delpezzo.cli:
# a cold call imports (and, without a bytecode cache, compiles) only these.
_MODULES_LOADED = [
    (["frobnicate"], set()),
    (["--help"], set()),
    (["classes", "--degree", "5"], {"perms"}),
    (["graph", "--degree", "6", "--orbits", "(1 2)"], {"curvegraphs", "perms"}),
    (["blowdown", "--subgroup", "(1 2)", "--vertex", "{4,5}"], {"curvegraphs", "perms"}),
    (["minimal", "--group", "(1 2 3)", "--galois", "(4 5)"], {"perms", "picard"}),
    (["aut-table"], {"classify", "perms"}),
    (["realize", "--field", "7", "--type", "[Z/5Z]"],
     {"construct", "curvegraphs", "fields", "perms"}),
    (["verify", "--input", _MODEL], {"construct", "curvegraphs", "fields", "perms"}),
    (["check-paper"], {"classify", "construct", "curvegraphs", "fields", "perms", "picard",
                       "selfcheck"}),
]
# Standard-library modules no cold call may load: dataclasses imports
# inspect, which imports ast, dis and tokenize.
_HEAVY_STDLIB = ("ast", "dataclasses", "dis", "inspect", "tokenize")
_LOADED_SCRIPT = (
    "import sys\n"
    "{call}\n"
    "print(' '.join(sorted(m for m in sys.modules\n"
    "                      if m == 'delpezzo' or m.startswith('delpezzo.')\n"
    f"                      or m in {_HEAVY_STDLIB!r})))\n"
)
_CLI_CALL = "from delpezzo import cli\ncli.main(sys.argv[1:])"


@lru_cache(maxsize=None)
def _loaded_after(call, *argv):
    """The delpezzo and _HEAVY_STDLIB modules a fresh interpreter holds after ``call``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT.format(call=call), *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return frozenset(proc.stdout.splitlines()[-1].split())


def _package_modules(loaded):
    return {m for m in loaded if m not in _HEAVY_STDLIB}


class TestColdImports:
    def test_bare_import_loads_no_submodule(self):
        assert _package_modules(_loaded_after("import delpezzo")) == {"delpezzo"}

    @pytest.mark.parametrize("argv,modules", _MODULES_LOADED,
                             ids=[argv[0] for argv, _ in _MODULES_LOADED])
    def test_command_loads_only_the_modules_it_runs(self, model_file, argv, modules):
        argv = [model_file if t == _MODEL else t for t in argv]
        loaded = _package_modules(_loaded_after(_CLI_CALL, *argv))
        assert loaded == {"delpezzo", "delpezzo.cli"} | {f"delpezzo.{m}" for m in modules}

    @pytest.mark.parametrize("argv", [None] + [argv for argv, _ in _MODULES_LOADED],
                             ids=["import"] + [argv[0] for argv, _ in _MODULES_LOADED])
    def test_no_cold_call_loads_dataclasses_or_inspect(self, model_file, argv):
        # shares each interpreter run with the two tests above (cached)
        if argv is None:
            loaded = _loaded_after("import delpezzo")
        else:
            loaded = _loaded_after(_CLI_CALL, *[model_file if t == _MODEL else t for t in argv])
        assert loaded & set(_HEAVY_STDLIB) == set()
