"""Command-line front end: classification, construction, verification.

Every command is deterministic given its flags and writes to stdout.  Exit
codes: 0 on success, 1 on domain errors (with a machine-readable error
JSON), 2 on usage errors.  Each handler imports the package modules it
runs, so a cold call loads (and, without a bytecode cache, compiles) only those.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import lru_cache, partial


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: check-paper calls main often."""
    parser = argparse.ArgumentParser(
        prog="delpezzo",
        description="Exact classification and construction of degree-5 and "
                    "degree-6 del Pezzo surfaces by Galois type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="list the type labels with representatives")
    p.add_argument("--degree", type=int, required=True, choices=(5, 6))
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("aut-table", help="automorphism group of each degree-5 type")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("graph", help="the (-1)-curve intersection graph")
    p.add_argument("--degree", type=int, required=True, choices=(5, 6))
    p.add_argument("--dot", action="store_true", help="emit DOT instead of a summary")
    p.add_argument("--orbits", metavar="GENS",
                   help="color vertex orbits of the subgroup generated by "
                        "';'-separated cycles")

    p = sub.add_parser("realize", help="construct a surface of a given type")
    p.add_argument("--field", required=True, metavar="p^e",
                   help="base field literal, e.g. 2 or 3^2")
    p.add_argument("--degree", type=int, default=5, choices=(5, 6))
    p.add_argument("--type", required=True, dest="label", metavar="LABEL")
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", metavar="FILE", help="also write the model JSON here")

    p = sub.add_parser("verify", help="re-check a serialized surface model")
    p.add_argument("--input", required=True, metavar="FILE",
                   help="model JSON file, or - for stdin")

    p = sub.add_parser("minimal", help="minimality of a combined group action")
    p.add_argument("--group", required=True, metavar="GENS",
                   help="acting subgroup of S5, ';'-separated cycles")
    p.add_argument("--galois", required=True, metavar="GENS",
                   help="Galois image in S5, ';'-separated cycles")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("blowdown", help="degree-6 type induced at an invariant vertex")
    p.add_argument("--subgroup", required=True, metavar="GENS")
    p.add_argument("--vertex", required=True, metavar="{i,j}")
    p.add_argument("--json", action="store_true")

    sub.add_parser("check-paper", help="run the full self-verification suite")

    return parser


def _print_table(rows: list[tuple[str, ...]], header: tuple[str, ...]) -> None:
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _generator_list(group) -> str:
    """A group's generators in cycle notation, "; "-separated; "()" if there are none."""
    return "; ".join(g.cycle_string() for g in group.generators) or "()"


def _cmd_classes(args) -> int:
    from .perms import class_names, class_representative

    entries = []
    for name in class_names(args.degree):
        rep = class_representative(name, args.degree)
        entries.append({
            "label": name,
            "order": rep.order,
            "cyclic": rep.is_cyclic,
            "representative": _generator_list(rep),
        })
    if args.json:
        print(json.dumps(entries, indent=2))
    else:
        _print_table(
            [(e["label"], str(e["order"]), "yes" if e["cyclic"] else "no",
              e["representative"]) for e in entries],
            ("type", "order", "cyclic", "representative"),
        )
    return 0


def _cmd_aut_table(args) -> int:
    from .classify import aut_table

    rows = aut_table()
    if args.json:
        print(json.dumps([
            {
                "type": r.label.name,
                "aut_group": r.group_name,
                "order": r.aut_group.order,
                "generators": _generator_list(r.aut_group),
            }
            for r in rows
        ], indent=2))
    else:
        _print_table(
            [(r.label.name, r.group_name, str(r.aut_group.order)) for r in rows],
            ("type", "aut group", "order"),
        )
    return 0


def _cmd_graph(args) -> int:
    from .curvegraphs import curve_graph, to_dot
    from .perms import generate, parse_generators

    graph = curve_graph(args.degree)
    orbit_group = None
    if args.orbits:
        orbit_group = generate(parse_generators(args.orbits, 5), degree=5)
        if not args.dot:
            raise ValueError("orbit coloring (--orbits) needs --dot")
    if args.dot:
        print(to_dot(graph, orbit_group))
    else:
        names = ["{" + ",".join(map(str, sorted(v))) + "}" for v in graph.vertices]
        print(f"vertices ({graph.n}):", " ".join(names))
        print(f"edges ({len(graph.edges())}):", " ".join(
            f"{names[i - 1]}-{names[j - 1]}" for i, j in graph.edges()
        ))
    return 0


def _cmd_realize(args) -> int:
    from .construct import realize_dp5, realize_dp6
    from .fields import parse_field_literal

    base = parse_field_literal(args.field)
    model = realize_dp5(base, args.label) if args.degree == 5 else \
        realize_dp6(base, args.label)
    data = model.to_json()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(f"degree {model.degree} surface of type {model.type_label.name} "
              f"over F_{base.q} (construction: {model.construction})")
        print(f"working field: {data['field']}")
        for i, point in enumerate(model.config.points, start=1):
            print(f"  P{i} = {point}")
        print(f"frobenius: {data['frobenius']}")
        if model.blowdown_vertex is not None:
            print("blow-down vertex: {%s}" % ",".join(
                map(str, sorted(model.blowdown_vertex))))
    return 0


# About 40x the largest model realize writes (24.7 KB, [Z/6Z] over 65521^2);
# counted in characters, so a read holds at most 4 MiB of UTF-8.
_MAX_MODEL_CHARS = 1 << 20


class _NumberTooLong(ValueError):
    pass


def _bounded_int(max_digits: int, text: str) -> int:
    """json's parse_int hook: refuse what int() would refuse, with our own message."""
    if len(text.lstrip("-")) > max_digits:
        raise _NumberTooLong(f"a number in the model JSON has more than {max_digits} digits")
    return int(text)


# Longer than any message the package writes itself, so only echoed user
# text (a frobenius string, a file name, a field literal) is ever cut.
_MAX_REASON_CHARS = 200


def _clip(text: str) -> str:
    """``text`` cut to at most _MAX_REASON_CHARS characters, ending in "..." if cut."""
    if len(text) <= _MAX_REASON_CHARS:
        return text
    return text[:_MAX_REASON_CHARS - 3] + "..."


def _cmd_verify(args) -> int:
    from .construct import verify_json
    from .perms import _MAX_DIGITS

    if args.input == "-":
        text = sys.stdin.read(_MAX_MODEL_CHARS + 1)
    else:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read(_MAX_MODEL_CHARS + 1)
    if len(text) > _MAX_MODEL_CHARS:
        raise ValueError(f"model JSON is longer than {_MAX_MODEL_CHARS} characters")
    try:
        data = json.loads(text, parse_int=partial(_bounded_int, _MAX_DIGITS))
    except RecursionError:
        raise ValueError("model JSON is nested too deeply") from None
    except _NumberTooLong as err:
        checks = [("model parses", False, str(err))]
    else:
        checks = verify_json(data)
    for name, ok, detail in checks:
        suffix = f" ({_clip(detail)})" if detail else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}{suffix}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def _cmd_minimal(args) -> int:
    from .perms import generate, parse_generators
    from .picard import invariant_rank, is_g_minimal

    group = generate(parse_generators(args.group, 5), degree=5)
    image = generate(parse_generators(args.galois, 5), degree=5)
    minimal = is_g_minimal(group, image)
    delta = generate(group.generators + image.generators, degree=5)
    rank = invariant_rank(delta)
    if args.json:
        print(json.dumps({
            "minimal": minimal,
            "delta_order": delta.order,
            "delta_generators": _generator_list(delta),
            "invariant_rank": rank,
        }, indent=2))
    else:
        print(f"minimal: {'yes' if minimal else 'no'}")
        print(f"combined group order: {delta.order}")
        print(f"invariant Picard rank: {rank}")
    return 0


# "{i,j}" or "i,j": the closing brace is required exactly when the opening one is there
_VERTEX_RE = re.compile(r"(\{)?\s*([0-9])\s*,\s*([0-9])\s*(?(1)\})", re.ASCII)


def _cmd_blowdown(args) -> int:
    from .curvegraphs import blowdown_action
    from .perms import generate, parse_generators

    match = _VERTEX_RE.fullmatch(args.vertex)
    if not match:
        raise ValueError(f"cannot parse vertex {args.vertex!r}; expected {{i,j}}")
    vertex = frozenset(int(g) for g in match.group(2, 3))
    group = generate(parse_generators(args.subgroup, 5), degree=5)
    _, label = blowdown_action(group, vertex)
    if args.json:
        print(json.dumps({"vertex": sorted(vertex), "type": label.name}, indent=2))
    else:
        print(label.name)
    return 0


def _cmd_check_paper(_args) -> int:
    from .selfcheck import run_all

    results = run_all()
    for result in results:
        status = "PASS" if result.ok else "FAIL"
        detail = f" — {result.detail}" if result.detail else ""
        print(f"{status} {result.name} ({result.seconds:.2f}s){detail}")
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1


_HANDLERS = {
    "classes": _cmd_classes,
    "aut-table": _cmd_aut_table,
    "graph": _cmd_graph,
    "realize": _cmd_realize,
    "verify": _cmd_verify,
    "minimal": _cmd_minimal,
    "blowdown": _cmd_blowdown,
    "check-paper": _cmd_check_paper,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(json.dumps({"error": _clip(str(err))}))
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
