"""Print one sha256 over the package's user-visible output, to compare checkouts.

The digest covers, in this order, each output with its exit code:
1. the stdout of every script in demos/;
2. `check-paper` stdout with each check's seconds masked, plain and under
   `python -O`;
3. `classes`, `aut-table` and `graph`, as tables, JSON and DOT;
4. `realize --json` for every type of both degrees (19 + 10) over each field
   of FIELDS, 435 calls in one process; a refused type adds its error line;
5. the generators, elements and hash of each of the 172 subgroups of the
   lattice (156 of S5, 16 of the hexagon group), and the generators of the
   centralizer of each of the 156;
6. each (-1)-class of both degrees with its Kneser label, its string and its
   coords, the five conic classes, and the matrix of the lattice action of
   each of the 120 elements of S5.
Parts 1 and 2 run in fresh interpreters, parts 3 and 4 through `cli.main`,
part 5 through `perms` and part 6 through `picard`.
Two checkouts whose digests match print the same bytes for all of it.  The
script takes about 4 s; tests/test_output_identity.py pins its digest.

    PYTHONPATH=src python tests/output_identity.py
"""

import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import delpezzo
from delpezzo import cli, perms, picard

SRC = Path(delpezzo.__file__).resolve().parent.parent
DEMOS = SRC.parent / "demos"
CHECK_SECONDS = re.compile(r"\(\d+\.\d\ds\)")
FIELDS = ("2", "3", "2^2", "7", "3^2", "13", "7^2", "65521", "2^40", "3^25",
          "67^4", "127^5", "8191^3", "65519", "1009^4")
LISTINGS = (
    ["classes", "--degree", "5"], ["classes", "--degree", "6"],
    ["classes", "--degree", "5", "--json"], ["classes", "--degree", "6", "--json"],
    ["aut-table"], ["aut-table", "--json"],
    ["graph", "--degree", "5"], ["graph", "--degree", "6"],
    ["graph", "--degree", "5", "--dot"], ["graph", "--degree", "6", "--dot"],
    ["graph", "--degree", "5", "--dot", "--orbits", "(1 2 3 4 5)"],
)


def child(*args):
    """Exit code and stdout of a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=600)
    return proc.returncode, proc.stdout


def in_process(argv):
    """Exit code and stdout of one cli.main call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def outputs():
    """(name, exit code, stdout) of every output the digest covers, in order."""
    for script in sorted(DEMOS.glob("*.py")):
        yield (script.name, *child(str(script)))
    for flags in ([], ["-O"]):
        code, out = child(*flags, "-m", "delpezzo", "check-paper")
        yield (" ".join(flags + ["check-paper"]), code, CHECK_SECONDS.sub("(-s)", out))
    for argv in LISTINGS:
        yield (" ".join(argv), *in_process(argv))
    for degree in (5, 6):
        for label in perms.class_names(degree):
            for field in FIELDS:
                argv = ["realize", "--field", field, "--degree", str(degree),
                        "--type", label, "--json"]
                yield (" ".join(argv), *in_process(argv))
    for degree in (5, 6):
        for sub in perms.all_subgroups(degree):
            yield (f"subgroup of degree {degree}", 0,
                   f"{cycles(sub.generators)} | {cycles(sub.elements)} | {hash(sub)}")
    for sub in perms.all_subgroups(5):
        yield (f"centralizer of {cycles(sub.generators)}", 0,
               cycles(perms.centralizer(sub).generators))
    for degree in (5, 6):
        for cls, label in picard.minus_one_classes(degree):
            yield (f"(-1)-class of degree {degree}", 0, f"{sorted(label)} | {cls} | {cls.coords}")
    for cls in picard.conic_classes():
        yield ("conic class", 0, f"{cls} | {cls.coords}")
    for sigma in perms.symmetric_group_elements(5):
        yield (f"lattice action of {sigma.cycle_string()}", 0,
               str(picard.induced_lattice_action(sigma).matrix))


def cycles(elements):
    """The permutations in cycle notation, one space apart."""
    return " ".join(g.cycle_string() for g in elements)


def digest():
    """(outputs, outputs with a nonzero exit code, sha256 hex digest of them all)."""
    sha = hashlib.sha256()
    calls = failures = 0
    for name, code, out in outputs():
        sha.update(f"{name}\0{code}\0{out}\0".encode())
        calls += 1
        failures += code != 0
    return calls, failures, sha.hexdigest()


def main():
    calls, failures, hexdigest = digest()
    print(f"{calls} outputs, {failures} with a nonzero exit code")
    print(f"output sha256 {hexdigest}")


if __name__ == "__main__":
    main()
