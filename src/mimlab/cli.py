"""Command line interface.

Subcommands: gen, width, traces, obdd, verify, export.  Exit codes:
0 success, 1 exact check failure, 2 usage error, 3 budget exhaustion
(under `verify --strict`, a skipped row also exits 3).  `--budget`, a
positive integer (anything else exits 2), is read only by `traces`
(trace-family entries, default 2^24), exact `width` (prefix sets tested,
2^22), `obdd --minimize dp` (trace-family entries, unbounded) and `width
--heuristic` (orderings evaluated, 200); for the first three a missing
`--budget` falls back to MIMLAB_BUDGET, checked the same way, and then
to the engine's default.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing

from . import generators
from .errors import BudgetExceededError
from .graph import (
    format_edge_list,
    is_independent_mask,
    mask_of,
    max_induced_cut_matching,
    read_edge_list,
    vertices_of,
)
from .harness import (
    CHECK_NAMES,
    ExperimentSpec,
    ReportRow,
    any_failures,
    any_skipped,
    export,
    verify,
)
from .obdd import (
    build_obdd,
    cnf_of_graph,
    count_accepting,
    count_satisfying,
    exhaustive_equiv_check,
    min_obdd_size_exact,
    obdd_to_dot,
    write_dimacs,
)
from .traces import _cut_bound_report, trace_masks
from .width import (
    DEFAULT_HEURISTIC_BUDGET,
    WidthVariant,
    exact_width,
    heuristic_width_upper,
    width_of_ordering,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _positive_int(raw: str) -> int:
    """The type of --budget (also applied to MIMLAB_BUDGET), --corpus-n
    and --pair-n."""
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {raw!r}")
    return int(raw)


def _nonnegative_int(raw: str) -> int:
    """The type of --random-count."""
    if not raw.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {raw!r}")
    return int(raw)


def _budget(args) -> int | None:
    """--budget, else MIMLAB_BUDGET, else None (the engine's default)."""
    if args.budget is not None:
        return args.budget
    raw = os.environ.get("MIMLAB_BUDGET")
    try:
        return _positive_int(raw) if raw else None
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"MIMLAB_BUDGET {exc}") from None


def _out(args, text: str) -> None:
    if args.output and args.output != "-":
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each `gen` family: its parameters (integer options, except a fixture's
# name), the constructor they are passed to, and the rule for the comment
# lines (None: the standard `meta family` line over the parameters).
_GEN_FAMILIES = {
    "skew": (("q",), generators.skew, None),
    "skew-path": (("p", "q"),
                  lambda p, q: generators.skew_path(p, q)[0], None),
    "skew-grid": (("p", "q", "r"),
                  lambda p, q, r: generators.skew_grid(p, q, r)[0],
                  lambda p, q, r: generators.skew_grid_comments(
                      generators.SkewGridMeta(p, q, r))),
    "cliquethread": (("r",), generators.clique_thread, None),
    "grid": (("p", "r"), generators.grid, None),
    "corona": (("k",), generators.clique_corona, None),
    "pmatch": (("k",), generators.perfect_matching_graph, None),
    "fixture": (("name",), lambda name: generators.fixtures()[name], None),
}


def _cmd_gen(args) -> int:
    params, make, comment_rule = _GEN_FAMILIES[args.family]
    kw = {o: getattr(args, o) for o in params}
    g = make(**kw)
    comments = (comment_rule(**kw) if comment_rule
                else generators.generator_comments(args.family, **kw))
    _out(args, format_edge_list(g, comments))
    return EXIT_OK


def _parse_vertices(raw: str, n: int) -> list[int]:
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            v = int(part) - 1
        except ValueError:
            raise ValueError(f"vertex {part!r} is not an integer") from None
        if not 0 <= v < n:
            raise ValueError(f"vertex {part} out of range")
        out.append(v)
    return out


def _cmd_width(args) -> int:
    g = read_edge_list(args.input)
    variant = WidthVariant(args.variant)
    if args.heuristic:
        value, witness = heuristic_width_upper(
            g, variant, seed=args.seed, budget=args.budget,
        )
        _, per_prefix = width_of_ordering(g, witness, variant)
        mode = "heuristic"
    else:
        report = exact_width(g, variant, budget=_budget(args))
        value, witness, per_prefix = report.value, report.witness, report.per_prefix
        mode = "exact"
    payload = {
        "variant": variant.value,
        "mode": mode,
        "value": value,
        "ordering": [v + 1 for v in witness],
        "per_prefix": list(per_prefix),
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"variant: {variant.value}")
        print(f"mode: {mode}")
        print(f"value: {value}")
        print("ordering:", ",".join(str(v + 1) for v in witness))
        print("per-prefix widths:", ",".join(str(w) for w in per_prefix))
    return EXIT_OK


def _cmd_traces(args) -> int:
    g = read_edge_list(args.input)
    side = _parse_vertices(args.side, g.n)
    budget = _budget(args)
    umask = mask_of(side, g.n)
    family = trace_masks(g, umask, budget=budget)
    r, witness = max_induced_cut_matching(g, side)
    bound = None
    bound_err = None
    if is_independent_mask(g, g.full_mask() & ~umask):
        bound = _cut_bound_report(g, umask, family, r, budget=budget)
    else:
        bound_err = "complement side is not independent"
    members = sorted([v + 1 for v in vertices_of(t)] for t in family)
    labels = [v + 1 for v in vertices_of(umask)]
    if args.json:
        payload = {
            "side": labels,
            "traces": members,
            "trace_count": len(family),
            "matching_size": r,
            "matching_witness": [[a + 1, b + 1] for a, b in witness],
        }
        if bound:
            payload["bound_check"] = {
                "binomial_bound": bound.binomial_bound,
                "power_bound": bound.power_bound,
                "within_binomial": bound.within_binomial,
                "within_power": bound.within_power,
                "small_sets_generate_all": bound.small_sets_generate_all,
            }
        else:
            payload["bound_check"] = None
            payload["bound_check_error"] = bound_err
        print(json.dumps(payload, indent=2))
    else:
        print(f"side: {','.join(map(str, labels))}")
        print(f"trace family ({len(family)} members):")
        for tr in members:
            print("  {" + ",".join(str(v) for v in tr) + "}")
        print(f"matching size: {r}")
        if bound:
            print(
                "bound check: "
                f"count={bound.trace_count} binomial={bound.binomial_bound} "
                f"power={bound.power_bound} ok={bound.all_ok}"
            )
        else:
            print(f"bound check: not applicable ({bound_err})")
    return EXIT_OK


def _cmd_obdd(args) -> int:
    g = read_edge_list(args.input)
    cnf = cnf_of_graph(g)
    if args.dimacs:
        write_dimacs(cnf, args.dimacs)
    if args.minimize:
        report = min_obdd_size_exact(
            g, method="enum" if args.minimize == "exact" else "dp",
            budget=_budget(args),
        )
        order = report.order_quasi
        print(f"minimal quasi-reduced size: {report.size_quasi}")
        print(f"minimal reduced size: {report.size_total}")
        print(
            "quasi order:",
            ",".join(str(v + 1) for v in report.order_quasi),
        )
        print(
            "reduced order:",
            ",".join(str(v + 1) for v in report.order_total),
        )
    elif args.order:
        order = _parse_vertices(args.order, g.n)
    else:
        order = list(range(g.n))
    z = build_obdd(g, order)
    ok = exhaustive_equiv_check(z, g)
    print(f"order: {','.join(str(v + 1) for v in z.order)}")
    print(f"size total (reduced): {z.size_total}")
    print(f"size quasi-reduced: {z.size_quasi}")
    print(f"accepting assignments: {count_accepting(z)}")
    print(f"satisfying assignments: {count_satisfying(g)}")
    print(f"equivalence check: {'pass' if ok else 'FAIL'}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(obdd_to_dot(z))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    params = {}
    if args.corpus_n is not None:
        params["corpus_max_n"] = args.corpus_n
    if args.pair_n is not None:
        params["pair_max_n"] = args.pair_n
    if args.random_count is not None:
        params["random_count"] = args.random_count
    try:
        spec = ExperimentSpec(
            checks=checks,
            seed=args.seed,
            params=params,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = verify(spec)
    if not rows:
        print("error: the checks and parameters select no instance",
              file=sys.stderr)
        return EXIT_USAGE
    for row in rows:
        status = "SKIP" if row.skipped else ("pass" if row.passed else "FAIL")
        print(f"[{row.check}] {row.instance}: {status}"
              + (f" ({row.detail})" if row.detail and status != "pass" else ""))
    if args.csv:
        export(rows, "csv", args.csv, include_timing=args.timing)
    if args.json_out:
        export(rows, "json", args.json_out, include_timing=args.timing)
    failed = any_failures(rows)
    skipped = any_skipped(rows)
    total = len(rows)
    print(
        f"rows={total} failed={sum(1 for r in rows if r.passed is False)} "
        f"skipped={sum(1 for r in rows if r.skipped)}"
    )
    if failed:
        return EXIT_CHECK_FAILED
    if skipped and args.strict:
        return EXIT_BUDGET
    return EXIT_OK


# The export columns with their types: every field of ReportRow.
_ROW_TYPES = typing.get_type_hints(ReportRow)


def _cmd_export(args) -> int:
    with open(args.rows, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{args.rows}: expected a JSON list of rows, "
                         f"got {type(data).__name__}")
    rows = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"{args.rows}: row {i} is not a JSON "
                             f"object: {entry!r}")
        for key, value in entry.items():
            if key not in _ROW_TYPES:
                raise ValueError(f"{args.rows}: row {i} has unknown key "
                                 f"{key!r}")
            allowed = typing.get_args(_ROW_TYPES[key]) or (_ROW_TYPES[key],)
            # Types match exactly, so true is no int; an integer is a float.
            if not (type(value) in allowed
                    or type(value) is int and float in allowed):
                kinds = " or ".join(
                    "null" if t is type(None) else t.__name__ for t in allowed)
                raise ValueError(f"{args.rows}: row {i} has {key!r} = "
                                 f"{json.dumps(value)}, not {kinds}")
        for key in ("check", "instance"):
            if key not in entry:
                raise ValueError(f"{args.rows}: row {i} has no {key!r}")
        rows.append(ReportRow(**{"n": 0, "m": 0, **entry}))
    export(rows, args.format, args.out, include_timing=args.timing)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimlab",
        description=(
            "Width parameters from induced matchings across vertex-order "
            "cuts, OBDD compilation of edge CNFs, and exact verification "
            "suites."
        ),
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument(
        "--budget", type=_positive_int, default=None,
        help="a positive integer: trace-family entries `traces` may "
             "process (default: MIMLAB_BUDGET, else 2^24), prefix sets "
             "exact `width` may test (default: MIMLAB_BUDGET, else 2^22), "
             "trace-family entries `obdd --minimize dp` may process "
             "(default: MIMLAB_BUDGET, else unbounded) and number of "
             "orderings evaluated by `width --heuristic` (default "
             f"{DEFAULT_HEURISTIC_BUDGET}); the other subcommands ignore it",
    )
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output when supported")
    # The same flags are accepted after the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=_positive_int,
                        default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit a generated graph as an edge list")
    gensub = gen.add_subparsers(dest="family", required=True)
    for fam, (params, _, _) in _GEN_FAMILIES.items():
        p = gensub.add_parser(fam, parents=[common])
        for o in params:
            if o == "name":
                p.add_argument("name", choices=sorted(generators.fixtures()))
            else:
                p.add_argument(f"--{o}", type=int, required=True)
        p.add_argument("-o", "--output", default="-")
        p.set_defaults(func=_cmd_gen)

    width = sub.add_parser("width", parents=[common],
                           help="width of a graph under a variant")
    width.add_argument("--variant", choices=[v.value for v in WidthVariant],
                       required=True)
    width.add_argument("--input", required=True)
    mode = width.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=True)
    mode.add_argument("--heuristic", action="store_true")
    width.set_defaults(func=_cmd_width)

    tr = sub.add_parser("traces", parents=[common],
                        help="trace family of a cut")
    tr.add_argument("--input", required=True)
    tr.add_argument("--side", required=True,
                    help="comma separated 1-based vertex list")
    tr.set_defaults(func=_cmd_traces)

    ob = sub.add_parser("obdd", parents=[common],
                        help="compile the edge CNF to an OBDD")
    ob.add_argument("--input", required=True)
    ob.add_argument("--order", help="comma separated 1-based variable order")
    ob.add_argument("--minimize", choices=["exact", "dp"])
    ob.add_argument("--dot", help="write GraphViz rendering here")
    ob.add_argument("--dimacs", help="write DIMACS CNF here")
    ob.set_defaults(func=_cmd_obdd)

    ver = sub.add_parser("verify", parents=[common],
                         help="run verification suites")
    ver.add_argument("--checks", default=",".join(CHECK_NAMES),
                     help="comma separated check names")
    ver.add_argument("--corpus-n", type=_positive_int, default=None)
    ver.add_argument("--pair-n", type=_positive_int, default=None)
    ver.add_argument("--random-count", type=_nonnegative_int, default=None)
    ver.add_argument("--csv", help="export rows as CSV here")
    ver.add_argument("--json-out", help="export rows as JSON here")
    ver.add_argument("--strict", action="store_true",
                     help="exit 3 when any row was skipped on budget")
    ver.add_argument("--timing", action="store_true",
                     help="include wall time in exports")
    ver.set_defaults(func=_cmd_verify)

    ex = sub.add_parser("export", parents=[common],
                        help="re-format a JSON rows dump")
    ex.add_argument("--rows", required=True)
    ex.add_argument("--format", choices=["csv", "json"], required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--timing", action="store_true")
    ex.set_defaults(func=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
