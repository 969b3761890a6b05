"""Command-line entry point: root dumps, joins, sweeps, and DOT export.

Exit codes: 0 all checks hold, 1 a sweep found a failing pair, 2 bad usage
(unparsable input, an unreadable file, an unsupported request), 3 the
group/root construction failed (caps, non-finite input, an inconsistent
table), 4 an internal error: a bug, reported with its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from .bruhat import check_conjecture_H, to_dot
from .coxeter import (
    CoxeterError,
    CoxeterGraph,
    CoxeterSystem,
    GroupElement,
    RootSubset,
    build_system,
)
from .verify import _CONJECTURES, UsageError, sweep

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2
EXIT_CONSTRUCTION = 3
EXIT_INTERNAL = 4


def _graph_from_args(args: argparse.Namespace) -> CoxeterGraph:
    if bool(args.type) == bool(args.matrix):
        raise UsageError("exactly one of --type and --matrix is required")
    if args.type:
        try:
            return CoxeterGraph.from_name(args.type)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    with open(args.matrix, encoding="utf-8") as fh:
        try:
            return CoxeterGraph.from_json(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"bad matrix file {args.matrix}: {exc}") from exc


def _build(args: argparse.Namespace) -> CoxeterSystem:
    graph = _graph_from_args(args)
    if args.cap is None:
        return build_system(graph)
    return build_system(graph, cap=args.cap, element_cap=args.cap)


def parse_element(system: CoxeterSystem, text: str) -> GroupElement:
    """Either a generator word ("2 1 2", "e") or type-A one-line notation.

    Tokens that are all valid generator indices parse as a word; otherwise,
    in type A, a digit string that permutes 1..rank+1 parses as one-line
    notation.  Anything else raises UsageError.
    """
    text = text.strip()
    if text in ("e", ""):
        return system.identity
    tokens = text.replace(",", " ").split()
    rank = system.graph.rank
    if all(tok.isdigit() and 1 <= int(tok) <= rank for tok in tokens):
        return system.element_from_word(int(tok) for tok in tokens)
    if len(tokens) == 1 and tokens[0].isdigit():
        line = [int(ch) for ch in tokens[0]]
    else:
        line = [int(tok) for tok in tokens if tok.isdigit()]
        if len(line) != len(tokens):
            raise UsageError(f"cannot parse element {text!r}")
    if system.is_type_a() and sorted(line) == list(range(1, rank + 2)):
        return system.element_of_permutation(line)
    raise UsageError(
        f"cannot parse element {text!r}: neither a generator word nor a "
        f"permutation of 1..{rank + 1}"
    )


def _scalar_json(value) -> dict:
    return {
        "coeffs": [str(c) for c in value.coeffs],
        "approx": round(value.to_float(), 12),
    }


def _root_json(system: CoxeterSystem, index: int) -> dict:
    root = system.table.roots[index]
    return {
        "index": index,
        "name": root.render(),
        "coords": [_scalar_json(c) for c in root.coords],
        "depth": root.depth,
    }


def _subset_json(system: CoxeterSystem, bits: int) -> dict:
    indices = list(RootSubset(system.table, bits).indices())
    return {
        "indices": indices,
        "roots": [system.table.roots[r].render() for r in indices],
    }


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_roots(args: argparse.Namespace) -> int:
    system = _build(args)
    payload = {
        "schema": 1,
        "type": system.graph.display_name,
        "count": system.table.n_roots,
        "roots": [_root_json(system, r) for r in range(system.table.n_roots)],
    }
    lines = [f"{system.table.n_roots} positive roots"]
    lines += [
        f"  [{r}] {system.table.roots[r].render()}"
        for r in range(system.table.n_roots)
    ]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_join(args: argparse.Namespace) -> int:
    system = _build(args)
    u = parse_element(system, args.u)
    v = parse_element(system, args.v)
    verdict = check_conjecture_H(u, v)
    join = verdict.join
    payload = {
        "schema": 1,
        "type": system.graph.display_name,
        "u": u.word_str(),
        "v": v.word_str(),
        "join": join.word_str(),
        "join_inversions": _subset_json(system, join.inversion_bits),
        "reachable_reflections": _subset_json(system, verdict.rhs.bits),
        "holds": verdict.holds,
    }
    lines = [
        f"u    = {u.word_str()}",
        f"v    = {v.word_str()}",
        f"join = {join.word_str()}  (length {join.length})",
    ]
    if system.is_type_a():
        perms = (system.permutation_of(x) for x in (u, v, join))
        one_line = ["".join(str(i) for i in p) for p in perms]
        payload["one_line"] = {"u": one_line[0], "v": one_line[1], "join": one_line[2]}
        lines.append("one-line: %s v %s = %s" % tuple(one_line))
    lines.append(
        "join inversions: " + ", ".join(payload["join_inversions"]["roots"])
    )
    lines.append(
        "reachable reflections: "
        + ", ".join(payload["reachable_reflections"]["roots"])
    )
    lines.append("verdict: " + ("holds" if verdict.holds else "FAILS"))
    _emit(args, payload, "\n".join(lines))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(u, v))
    return EXIT_OK if verdict.holds else EXIT_FAILURES


def cmd_verify(args: argparse.Namespace) -> int:
    system = _build(args)
    report = sweep(
        system,
        args.conjecture,
        sample=args.sample,
        seed=args.seed,
        workers=args.workers,
    )
    body = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(body + "\n")
    if args.format == "json" or not args.report:
        print(body)
    else:
        print(
            f"{report.type} {report.conjecture}: {report.pairs_checked} pairs, "
            f"{report.failure_count} failures ({report.wall_time_ms} ms)"
        )
    return EXIT_OK if report.ok else EXIT_FAILURES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakorder",
        description="Finite Coxeter groups: roots, weak-order joins, and "
        "Bruhat-graph sweeps over exact algebraic coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--type", help='named type, e.g. "A3", "B4", "H3", "I2(7)"')
        p.add_argument("--matrix", help="path to a JSON Coxeter-matrix file")
        p.add_argument("--cap", type=int, default=None,
                       help="abort construction beyond this many roots/elements")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_roots = sub.add_parser("roots", help="list the positive roots")
    common(p_roots)
    p_roots.set_defaults(func=cmd_roots)

    p_join = sub.add_parser("join", help="weak-order join of two elements")
    common(p_join)
    p_join.add_argument("--u", required=True, help='word "2 1 2", "e", or one-line "3124"')
    p_join.add_argument("--v", required=True)
    p_join.add_argument("--dot", help="also write the reachable Bruhat graph as DOT")
    p_join.set_defaults(func=cmd_join)

    p_verify = sub.add_parser("verify", help="sweep a conjecture over all pairs")
    common(p_verify)
    p_verify.add_argument("--conjecture", choices=_CONJECTURES, default="H")
    p_verify.add_argument("--sample", type=int, default=None,
                          help="check this many seeded-random pairs instead of all")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--workers", type=int, default=None,
                          help="parallel workers (default: WEAKORDER_WORKERS or 1)")
    p_verify.add_argument("--report", help="write the JSON report to this file")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CoxeterError as exc:
        print(f"construction error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
