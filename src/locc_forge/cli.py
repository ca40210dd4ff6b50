"""Command-line interface.

Exit codes: 0 protocol found / checks pass, 2 impossibility certified,
3 inconclusive search, 4 input refused or a tree that fails verification,
64 usage error.  Every command that reads a measurement, from a file or a
tree's ``measurement_ref``, refuses one that is not positive and complete
at load, with the location the constructor names (exit 4), before any
analysis runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import io
from .catalog import CATALOG
from .engine import (
    Certificate,
    Verdict,
    check_root,
    impossible_at_root,
    leaf_outcome,
    synthesize,
)
from .errors import LoccForgeError, TreeStructureError
from .tolerances import RANK_FACTOR, RESIDUAL_TOL
from .verify import simulate, verify_tree

EXIT_OK = 0
EXIT_IMPOSSIBLE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INVALID = 4
EXIT_USAGE = 64

# the method's fixed tolerances, recorded by check --json and synth --json
_TOLERANCES = {"rank_factor": RANK_FACTOR, "residual": RESIDUAL_TOL}

_VERDICT_CODES = {
    Verdict.PROTOCOL_FOUND: EXIT_OK,
    Verdict.IMPOSSIBLE_AT_ROOT: EXIT_IMPOSSIBLE,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"          # argparse names it in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="locc-forge",
                     description="Synthesize and certify LOCC protocols for "
                                 "separable multipartite measurements.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_check = sub.add_parser("check", help="per-party first-measurement analysis")
    p_check.add_argument("measurement")
    p_check.add_argument("--json", action="store_true", dest="as_json")

    p_synth = sub.add_parser("synth", help="search for an LOCC protocol tree")
    p_synth.add_argument("measurement")
    p_synth.add_argument("--out", default=None, help="write the tree as JSON")
    p_synth.add_argument("--json", action="store_true", dest="as_json")

    p_verify = sub.add_parser("verify", help="verify a protocol tree")
    p_verify.add_argument("tree")
    p_verify.add_argument("--measurement", default=None)
    p_verify.add_argument("--json", action="store_true", dest="as_json")

    p_sim = sub.add_parser("simulate", help="leaf statistics on a state")
    p_sim.add_argument("tree")
    p_sim.add_argument("--measurement", default=None)
    p_sim.add_argument("--state", default="maximally-mixed",
                       help="'maximally-mixed' or a JSON matrix file")
    p_sim.add_argument("--trials", type=_int_at_least(0), default=0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--json", action="store_true", dest="as_json")

    p_cat = sub.add_parser("catalog", help="emit a built-in measurement")
    p_cat.add_argument("name", nargs="?", default=None)
    p_cat.add_argument("--theta", type=float, nargs=4, default=None,
                       metavar=("T2", "T4", "T6", "T8"))
    p_cat.add_argument("--seed", type=int, default=None)
    p_cat.add_argument("--out", default=None)
    p_cat.add_argument("--list", action="store_true", dest="list_entries")
    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


class _CliError(Exception):
    pass


def _cmd_check(args) -> int:
    m = io.load_measurement(args.measurement)
    roots = check_root(m)
    impossible = impossible_at_root(m, roots)
    single = leaf_outcome(m.weights) is not None     # needs no measurement
    if args.as_json:
        doc = {
            "parties": [
                {
                    "name": p.name,
                    "nullspace_dim": r.nullspace_dim,
                    "marginal_rank": r.marginal_rank,
                    "certified": r.certified,
                    "extreme_rays": [[float(x) for x in ray]
                                     for ray in r.extreme_rays],
                }
                for p, r in zip(m.parties, roots)
            ],
            "impossible_at_root": impossible,
            "single_outcome_root": single,
            "tolerances": _TOLERANCES,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"measurement: {m.n_outcomes} outcomes, parties "
              + " x ".join(f"{p.name}({p.dim})" for p in m.parties))
        for p, r in zip(m.parties, roots):
            verdictish = "" if r.nullspace_dim > 1 or single else "  (cannot measure first)"
            marginal = "  (rank decided near the cutoff)" if r.marginal_rank else ""
            print(f"party {p.name}: root nullspace dim {r.nullspace_dim}"
                  f"{verdictish}{marginal}")
            for ray in r.extreme_rays:
                print("  ray:", np.array2string(ray, precision=6,
                                                suppress_small=True))
        if single:
            print("verdict: the root is a single outcome; it needs no measurement")
        elif impossible:
            print("verdict: no party can measure first; "
                  "measurement is not LOCC-implementable")
    return EXIT_IMPOSSIBLE if impossible else EXIT_OK


def _tree_summary(cert: Certificate, m) -> list[str]:
    lines = []
    if cert.tree is None:
        return lines
    labels = m.labels()

    def fmt(node, indent):
        who = "root" if node.acting_party is None \
            else f"{m.parties[node.acting_party].name}"
        desc = f"{'  ' * indent}[{who}] c=" + np.array2string(
            np.asarray(node.coeffs), precision=6, suppress_small=True)
        if node.leaf_outcome is not None:
            j, s = node.leaf_outcome
            desc += f"  -> outcome {labels[j]!r} (scale {s:g})"
        lines.append(desc)
        for child in node.children:
            fmt(child, indent + 1)

    fmt(cert.tree, 0)
    return lines


def _cmd_synth(args) -> int:
    m = io.load_measurement(args.measurement)
    cert = synthesize(m)
    if args.as_json:
        doc = {
            "verdict": cert.verdict.value,
            "root_dims": list(cert.root_dims),
            "stats": dataclasses.asdict(cert.search_stats),
            "tolerances": _TOLERANCES,
        }
        if cert.tree is not None:
            doc["tree"] = io.tree_to_dict(cert.tree, m,
                                          measurement_ref=args.measurement)
        print(json.dumps(doc, indent=2))
    else:
        print(f"verdict: {cert.verdict.value}")
        print("root nullspace dims:",
              ", ".join(f"{p.name}={d}" for p, d in zip(m.parties, cert.root_dims)))
        stats = cert.search_stats
        print(f"search: {stats.nodes_expanded} nodes expanded, {stats.dead_ends} dead ends, "
              f"{stats.cones_built} cones built, {stats.parties_skipped} parties skipped, "
              f"{stats.orthants} orthants, {stats.final_splits} final splits, "
              f"{stats.planar_splits} planar splits, {stats.wall_time:.3f}s")
        if cert.tree is not None:
            print(f"protocol tree ({cert.tree.depth()} rounds):")
            for line in _tree_summary(cert, m):
                print(line)
    if args.out and cert.tree is not None:
        io.save_tree(cert.tree, m, args.out, measurement_ref=args.measurement)
        if not args.as_json:
            print(f"tree written to {args.out}")
    return _VERDICT_CODES[cert.verdict]


def _cmd_verify(args) -> int:
    m = io.load_measurement(args.measurement) if args.measurement else None
    try:
        tree, m = io.load_tree(args.tree, m)
        report = verify_tree(tree, m)
    except TreeStructureError as exc:
        return _fail(f"malformed tree: {exc}")
    if args.as_json:
        doc = {
            "passed": report.passed,
            "checks": {
                name: {"passed": c.passed, "worst_residual": c.worst_residual,
                       "detail": c.detail}
                for name, c in report.checks.items()
            },
        }
        print(json.dumps(doc, indent=2))
    else:
        for line in report.lines():
            print(line)
        print("overall:", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_INVALID


def _load_state(choice: str, dim: int) -> np.ndarray:
    if choice == "maximally-mixed":
        return np.eye(dim, dtype=complex) / dim
    data = io._read_json(choice)
    return io.complex_matrix_from_json(data, choice)


def _cmd_simulate(args) -> int:
    m = io.load_measurement(args.measurement) if args.measurement else None
    tree, m = io.load_tree(args.tree, m)
    state = _load_state(args.state, m.total_dim)
    rng = np.random.default_rng(args.seed)
    try:
        result = simulate(tree, m, state, trials=args.trials, rng=rng)
    except ValueError as exc:
        return _fail(str(exc))
    if args.as_json:
        doc = {
            "leaves": [
                {"path": l.path, "outcome": l.label, "probability": l.probability,
                 "count": l.count}
                for l in result.leaves
            ],
            "outcome_probabilities": [float(x) for x in result.outcome_probabilities],
            "direct_probabilities": [float(x) for x in result.direct_probabilities],
            "total_probability": result.total_probability,
            "trials": result.trials,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"{'leaf':28s} {'outcome':10s} {'probability':>12s}"
              + (f" {'count':>8s}" if args.trials else ""))
        for leaf in result.leaves:
            row = f"{leaf.path:28s} {leaf.label:10s} {leaf.probability:12.8f}"
            if args.trials:
                row += f" {leaf.count:8d}"
            print(row)
        print(f"total probability: {result.total_probability:.10f}")
        worst = float(np.abs(result.outcome_probabilities
                             - result.direct_probabilities).max())
        print(f"max deviation from direct outcome probabilities: {worst:.3e}")
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.list_entries or args.name is None:
        for name, (_, option, params) in CATALOG.items():
            print(f"{name:24s} {option or ''} {params}".rstrip())
        return EXIT_OK if args.list_entries else EXIT_USAGE
    if args.name not in CATALOG:
        raise _CliError(f"unknown catalog entry {args.name!r}; "
                        f"try 'locc-forge catalog --list'")
    factory, takes, _ = CATALOG[args.name]
    for option, value in (("--theta", args.theta), ("--seed", args.seed)):
        if value is not None and option != takes:
            print(f"locc-forge catalog: error: {args.name} takes no {option} option",
                  file=sys.stderr)
            return EXIT_USAGE
    if args.theta is not None:
        m = factory(*args.theta)
    elif args.seed is not None:
        m = factory(args.seed)
    else:
        m = factory()
    doc = io.measurement_to_dict(m)
    if args.out:
        io._write_json(doc, args.out)
        print(f"measurement written to {args.out}")
    else:
        print(json.dumps(doc, indent=2))
    return EXIT_OK


_COMMANDS = {
    "check": _cmd_check,
    "synth": _cmd_synth,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (_CliError, LoccForgeError, OSError, ValueError) as exc:
        return _fail(str(exc))


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
