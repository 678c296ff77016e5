"""Command-line interface.

Exit codes: 0 success, 1 domain or usage error (the message names the
violated precondition or the usage), 2 verification mismatch in verify mode.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from plethyra import coefficients, diagrams, partitions, schur_weyl, symfunc, verify
from plethyra.coefficients import DomainError
from plethyra.schur_weyl import BudgetError


def parse_partition(text: str) -> tuple:
    """Accept "[3,2,1]", "3,2,1", "[]" or the empty-set glyph."""
    text = text.strip()
    if text in ("", "[]", "()", "∅"):
        return ()
    inner = text.strip("[]()")
    if not inner:
        return ()
    try:
        parts = [int(x) for x in inner.split(",")]
    except ValueError:
        raise ValueError(
            f"a partition is written as integers like [3,2,1], got {text!r}") from None
    return partitions.as_partition(parts)


def format_partition(lam) -> str:
    return "[" + ",".join(str(x) for x in lam) + "]"


def schur_pairs(poly: symfunc.SchurPoly) -> list:
    return [
        {"partition": list(lam), "coefficient": c} for lam, c in poly.to_pairs()
    ]


def emit(report: dict, fmt: str, elapsed_ms: float):
    report = dict(report)
    report["elapsed_ms"] = round(elapsed_ms, 3)
    if fmt == "json":
        print(json.dumps(report, sort_keys=True))
    elif fmt == "csv":
        keys = sorted(report)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys)
        writer.writerow(json.dumps(report[k]) if isinstance(report[k], (list, dict))
                        else str(report[k]) for k in keys)
    else:
        for key in sorted(report):
            print(f"{key}: {report[key]}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise, so that ``run`` reports a usage error on one line, exit 1."""
        raise ValueError(f"{message}; {' '.join(self.format_usage().split())}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plethyra",
        description="Exact plethysm and ramified branching coefficients",
    )
    parser.add_argument("--format", "-f", dest="format_global",
                        choices=("text", "json", "csv"), default=None,
                        help="output format")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", "-f", choices=("text", "json", "csv"),
                        default=None, help="output format")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _Parser(parents=[common], **kw))

    p = sub.add_parser("plethysm", help="<s_nu o s_mu, s_lam> or the full expansion")
    p.add_argument("--nu", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--lam")
    p.add_argument("--max-degree", type=int, default=None)

    p = sub.add_parser("lr", help="Littlewood-Richardson coefficient c^lam_{mu,nu}")
    p.add_argument("--lam", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)

    p = sub.add_parser("rc", help="ramified branching coefficient rc(alpha^beta, kappa)")
    p.add_argument("--alpha", default="[]")
    p.add_argument("--beta", required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--kappa")
    target.add_argument("--r", type=int, help="every kappa of size R, as a table")

    p = sub.add_parser("stable", help="stable plethysm p(beta[n], (m), kappa[mn])")
    p.add_argument("--beta", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", required=True)
    p.add_argument("--max-degree", type=int, default=None)

    p = sub.add_parser("marked", help="count (or list) b-marked partitions of r")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--distinct", action="store_true")
    p.add_argument("--list", action="store_true", dest="list_all")

    p = sub.add_parser("gf", help="marked-partition generating function prefix")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("tableaux-oracle",
                       help="bounded-entry tableaux counts and their difference")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("diagram", help="diagram arithmetic")
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--compose", nargs=2, metavar="D")
    action.add_argument("--ramified-compose", nargs=2, metavar="R")
    action.add_argument("--prop-data", metavar="D")
    action.add_argument("--prop-index", metavar="R")
    action.add_argument("--orbit-expand", metavar="D")

    p = sub.add_parser("theta", help="the poset of propagating indices")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--bound", type=int, default=diagrams.DEFAULT_THETA_BOUND)

    p = sub.add_parser("dq-check", help="depth-quotient dimension consistency")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--beta", required=True)

    p = sub.add_parser("schur-weyl", help="tensor-space checks")
    action = p.add_mutually_exclusive_group(required=True)
    action.add_argument("--commute", nargs=3, type=int, metavar=("M", "N", "R"))
    action.add_argument("--negative-control", nargs=3, type=int, metavar=("M", "N", "R"))
    action.add_argument("--rank", nargs=2, type=int, metavar=("D", "R"))
    p.add_argument("--max-entries", type=int, default=schur_weyl.DEFAULT_ENTRY_CAP)

    p = sub.add_parser("verify", help="run a self-verification suite")
    p.add_argument("--suite", choices=sorted(verify.SUITES), default="examples")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        start = time.perf_counter()
        report = dispatch(args)
    except (DomainError, BudgetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "verify":
        return report  # already printed line by line
    fmt = args.format or args.format_global or "text"
    emit(report, fmt, (time.perf_counter() - start) * 1000)
    return 0


def report(query, value, route, bounds_met=None, **extra) -> dict:
    """One result record: the query, its value, the route that computed it,
    whether the stability bounds held, and any command-specific fields."""
    return {"query": query, "value": value, "route": route,
            "bounds_met": bounds_met, **extra}


def dispatch(args):
    cmd = args.command
    if getattr(args, "max_degree", None) is not None and args.max_degree < 0:
        raise DomainError(f"{cmd} requires --max-degree >= 0, got {args.max_degree}")
    if cmd == "plethysm":
        nu, mu = parse_partition(args.nu), parse_partition(args.mu)
        if args.lam is not None:
            lam = parse_partition(args.lam)
            return report(
                f"p({format_partition(nu)},{format_partition(mu)},{format_partition(lam)})",
                coefficients.plethysm_coefficient(nu, mu, lam, args.max_degree),
                route="brute_force")
        poly = coefficients.expand_plethysm(nu, mu, args.max_degree)
        return report(f"expand s{format_partition(nu)} o s{format_partition(mu)}",
                      schur_pairs(poly), route="brute_force")
    if cmd == "lr":
        lam, mu, nu = (parse_partition(args.lam), parse_partition(args.mu),
                       parse_partition(args.nu))
        return report(
            f"c^{format_partition(lam)}_{format_partition(mu)},{format_partition(nu)}",
            symfunc.lr_coefficient(lam, mu, nu), route="lr_fillings")
    if cmd == "rc":
        alpha, beta = parse_partition(args.alpha), parse_partition(args.beta)
        prefix = f"rc({format_partition(alpha)}^{format_partition(beta)},"
        if args.r is not None:
            if args.r < 0:
                raise DomainError(f"rc requires --r >= 0, got {args.r}")
            branching = coefficients._branching_function(alpha, beta, args.r)
            table = [
                {"partition": list(kappa), "coefficient": branching.coefficient(kappa)}
                for kappa in partitions.partitions_of(args.r)
            ]
            return report(f"{prefix}kappa|-{args.r})", table, route="branching_function")
        kappa = parse_partition(args.kappa)
        return report(f"{prefix}{format_partition(kappa)})",
                      coefficients.ramified_branching(alpha, beta, kappa),
                      route="branching_function")
    if cmd == "stable":
        beta, kappa = parse_partition(args.beta), parse_partition(args.kappa)
        rep = coefficients.stable_plethysm(beta, args.m, args.n, kappa,
                                           max_degree=args.max_degree)
        return report(
            (f"stable beta={format_partition(beta)} m={args.m} n={args.n} "
             f"kappa={format_partition(kappa)}"),
            rep.value, route=rep.route, bounds_met=rep.bounds_met)
    if cmd == "marked":
        if args.distinct:
            found = partitions.marked_partitions_distinct(args.b, args.r, args.cap)
        else:
            found = partitions.marked_partitions(args.b, args.r, args.cap)
        extra = {}
        if args.list_all:
            extra["elements"] = [
                {"gamma": list(mp.gamma), "epsilon": list(mp.epsilon)} for mp in found
            ]
        return report(
            f"marked b={args.b} r={args.r} cap={args.cap} distinct={args.distinct}",
            len(found), route="enumeration", **extra)
    if cmd == "gf":
        return report(f"gf b={args.b} upto={args.n}",
                      partitions.stable_two_row_gf(args.b, args.n), route="closed_form")
    if cmd == "tableaux-oracle":
        if args.r < 0:
            raise DomainError(f"tableaux-oracle requires --r >= 0, got {args.r}")
        upper = partitions.cayley_tableaux_count(args.m, args.n, args.k, args.r)
        lower = partitions.cayley_tableaux_count(args.m, args.n, args.k, args.r - 1)
        return report(f"T(m={args.m},n={args.n},k={args.k},r={args.r})",
                      upper - lower, route="hook_content",
                      count_r=upper, count_r_minus_1=lower)
    if cmd == "diagram":
        return dispatch_diagram(args)
    if cmd == "theta":
        if args.bound < 0:
            raise DomainError(f"theta requires --bound >= 0, got {args.bound}")
        elements, below = diagrams.theta_poset(args.r, args.bound)
        return report(
            f"theta r={args.r}", [list(t) for t in elements], route="closed_form",
            relations={
                str(list(t)): sorted(str(list(u)) for u in lows)
                for t, lows in below.items() if lows
            })
    if cmd == "dq-check":
        if args.r < 0:
            raise DomainError(f"dq-check requires --r >= 0, got {args.r}")
        beta = parse_partition(args.beta)
        diag_dim, formula_dim = diagrams.dq_dimension_check(args.r, beta)
        return report(f"dq-check r={args.r} beta={format_partition(beta)}",
                      [diag_dim, formula_dim], route="branching_function",
                      match=diag_dim == formula_dim)
    if cmd == "schur-weyl":
        return dispatch_schur_weyl(args)
    if cmd == "verify":
        results = verify.run_suite(args.suite)
        return 0 if all(r.passed for r in results) else 2
    raise ValueError(f"unknown command {cmd}")


def dispatch_diagram(args):
    if args.compose is not None:
        d1 = diagrams.PartitionDiagram.parse(args.compose[0])
        d2 = diagrams.PartitionDiagram.parse(args.compose[1])
        sc = diagrams.compose(d1, d2)
        return report(f"compose {d1.format()} * {d2.format()}", sc.diagram.format(),
                      route="closed_form", delta_exponent=sc.exp_out)
    if args.ramified_compose is not None:
        r1 = diagrams.RamifiedDiagram.parse(args.ramified_compose[0])
        r2 = diagrams.RamifiedDiagram.parse(args.ramified_compose[1])
        sc = diagrams.ramified_compose(r1, r2)
        return report(f"ramified compose {r1.format()} * {r2.format()}",
                      sc.diagram.format(), route="closed_form",
                      delta_in_exponent=sc.exp_in, delta_out_exponent=sc.exp_out)
    if args.prop_data is not None:
        d = diagrams.PartitionDiagram.parse(args.prop_data)
        count, perm = d.propagating_data()
        return report(f"prop-data {d.format()}", count, route="closed_form",
                      permutation=list(perm))
    if args.prop_index is not None:
        rd = diagrams.RamifiedDiagram.parse(args.prop_index)
        return report(f"prop-index {rd.format()}", list(diagrams.propagating_index(rd)),
                      route="closed_form")
    d = diagrams.PartitionDiagram.parse(args.orbit_expand)
    expansion = diagrams.orbit_expand(d)
    return report(f"orbit-expand {d.format()}",
                  sorted(x.format() for x in expansion), route="closed_form")


def dispatch_schur_weyl(args):
    cap = args.max_entries
    if cap < 0:
        raise DomainError(f"schur-weyl requires --max-entries >= 0, got {cap}")
    if args.commute:
        m, n, r = args.commute
        return report(f"commute m={m} n={n} r={r}",
                      schur_weyl.check_commute(m, n, r, cap=cap),
                      route="generator_invariance")
    if args.negative_control:
        m, n, r = args.negative_control
        return report(f"negative-control m={m} n={n} r={r}",
                      schur_weyl.check_commute(m, n, r, cap=cap, swap_roles=True),
                      route="generator_invariance")
    d, r = args.rank
    return report(f"rank d={d} r={r}", schur_weyl.faithfulness_rank(d, r, cap=cap),
                  route="gf2_column_count")


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe; as the Python docs advise for SIGPIPE,
        # point stdout at devnull so that the flush at exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
