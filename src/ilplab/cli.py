"""Command-line front end: generate, verify, measure, sweep, fuzz, bounds.

Exit codes are a stable contract: 0 success, 1 check/verification failure,
2 budget exceeded, 3 usage error.  All JSON output has sorted keys and
canonical rational strings, so byte-identical reruns are expected.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from itertools import combinations, product

from .errors import BudgetExceededError, ClaimFalsifiedError, EmbeddingError, UnboundedSearchError
from .exactla import dot
from .hull import VERDICT_INCONCLUSIVE, VERDICT_POLYTOPISH, integer_points_in_hull
from .ilp import enumerate_integral_optima
from .instances import (
    FAMILIES,
    KIND_PROX,
    KIND_SENS,
    Family,
    IlpInstance,
    doc_dumps,
    instance_from_doc,
    instance_to_doc,
    p_q_constants,
)
from .lp import StandardLp, is_feasible_point
from .measures import (
    CSV_HEADER,
    NORM_LINF,
    NORMS,
    norm_floor,
    cook_bounds,
    csv_error_row,
    fuzz_cook,
    measure_proximity_lb,
    measure_sensitivity,
)
from .petersen import build_matching_system

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3

#: the families by the name ``gen`` and ``sweep`` take
_BY_CLI_NAME = {family.cli_name: family for family in FAMILIES.values()}

_MEASURES = {KIND_SENS: measure_sensitivity, KIND_PROX: measure_proximity_lb}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 3
        self.print_usage(sys.stderr)
        print(f"{_EXIT_LABELS[EXIT_USAGE]}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _budget(text: str) -> int:
    """The argparse type of every budget flag: a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a budget is at least 0, got {value}")
    return value


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _load_instance(path: str) -> IlpInstance:
    try:
        with open(path, encoding="utf-8") as fh:
            return instance_from_doc(json.load(fh))
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise _UsageError(f"cannot read instance {path!r}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path!r}: {exc}") from exc


def _cmd_gen(args) -> int:
    inst = _BY_CLI_NAME[args.family].generate(args.delta, args.d)
    doc = doc_dumps(instance_to_doc(inst))
    summary = (
        f"{inst.family}: {inst.lp.d}x{inst.lp.n} matrix, max entry {inst.lp.a.max_abs()}"
    )
    if args.out:
        _write(args.out, doc)
        print(f"wrote {args.out} ({summary})")
    else:
        print(summary, file=sys.stderr)
        sys.stdout.write(doc)
    return EXIT_OK


def _verify_polytopish(inst: IlpInstance, lp_budget: int) -> tuple[bool, dict]:
    report = integer_points_in_hull(inst.lp.a.cols(), lp_budget=lp_budget)
    if report.verdict == VERDICT_INCONCLUSIVE:
        raise BudgetExceededError("hull walk exceeded the LP-call budget")
    return report.verdict == VERDICT_POLYTOPISH, report.to_json()


def _sensitivity_claims(inst: IlpInstance, family: Family, node_budget: int) -> tuple[bool, dict]:
    sols = enumerate_integral_optima(inst.lp, node_budget=node_budget)
    sols2 = enumerate_integral_optima(StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c), node_budget=node_budget)
    details: dict = {"family": inst.family, "optima_counts": [len(sols), len(sols2)]}
    ok = len(sols) == 1 and len(sols2) == 1
    if family.expected_pair is not None and ok:
        ok = (sols[0], sols2[0]) == family.expected_pair(inst.delta, inst.d)
        details["matches_forward_substitution"] = ok
    return ok, details


def _proximity_claims(inst: IlpInstance, family: Family, node_budget: int) -> tuple[bool, dict]:
    details: dict = {"family": inst.family}
    z_ok = is_feasible_point(inst.lp, family.certificate(inst.delta, inst.d))
    sols = enumerate_integral_optima(inst.lp, node_budget=node_budget)
    p, q = p_q_constants(inst.delta, inst.d)
    floors = [str(norm_floor(inst, sol)) for sol in sols]
    details.update(
        {
            "certificate_feasible": z_ok,
            "optima_count": len(sols),
            "p": p,
            "q": q,
            "norm_floors": floors,
        }
    )
    return z_ok and len(sols) == 7, details


_CLAIMS = {KIND_SENS: _sensitivity_claims, KIND_PROX: _proximity_claims}


def _verify_claims(inst: IlpInstance, node_budget: int) -> tuple[bool, dict]:
    family = FAMILIES.get(inst.family)
    if family is None:
        raise _UsageError(f"no claims check for family {inst.family!r}")
    return _CLAIMS[family.kind](inst, family, node_budget)


def _cmd_verify(args) -> int:
    if args.check == "matchings":
        inc = build_matching_system().incidence  # raises unless the structure holds
        cols = inc.cols()
        ok, report = True, {
            "matchings": len(cols),
            "row_sums": [sum(row) for row in inc.rows],
            "column_sums": [sum(col) for col in cols],
            "pairwise_shared_edges": sorted(int(dot(u, v)) for u, v in combinations(cols, 2)),
        }
    else:
        if not args.input:
            raise _UsageError(f"--check {args.check} needs --in INSTANCE")
        inst = _load_instance(args.input)
        if args.check == "polytopish":
            ok, report = _verify_polytopish(inst, args.budget)
        else:
            ok, report = _verify_claims(inst, args.node_budget)
    _emit({"check": args.check, "passed": ok, "report": report})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_measure(args) -> int:
    inst = _load_instance(args.input)
    report = _MEASURES[args.kind](
        inst, node_budget=args.node_budget, subdet_budget=args.subdet_budget
    )
    if args.csv:
        print(report.csv_row(args.norm))
    else:
        _emit(report.to_json())
    return EXIT_OK


def _sweep_cell(name: str, delta: int, d: int, args) -> tuple[str, int, str]:
    """One sweep cell: its CSV row, exit code and message for stderr."""
    family = FAMILIES[name]
    try:
        inst = family.generate(delta, d)
        report = _MEASURES[family.kind](inst, node_budget=args.node_budget, subdet_budget=args.subdet_budget)
        return report.csv_row(args.norm), EXIT_OK, ""
    except Exception as exc:  # per-cell failures land in the row, sweep continues
        row = csv_error_row(name, delta, d, args.norm, type(exc).__name__)
        code = _exit_code(exc)
        if isinstance(exc, _CONTRACT_ERRORS):
            message = f"{_EXIT_LABELS[code]}: {exc}"
        else:  # a defect: keep its traceback
            message = traceback.format_exc()
        return row, code, message


def _parse_int_list(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


def _cmd_sweep(args) -> int:
    name = _BY_CLI_NAME[args.family].name
    deltas = _parse_int_list(args.delta)
    ds = _parse_int_list(args.d)
    for axis, text, values in (("--delta", args.delta, deltas), ("--d", args.d, ds)):
        if not values:
            raise _UsageError(f"{axis} {text!r} gives no values, so the grid is empty")
    # one cell after another in (delta, d) order, the order of the rows and of the failures reported
    cells = [(delta, d, *_sweep_cell(name, delta, d, args)) for delta, d in sorted(product(deltas, ds))]
    text = "\n".join([CSV_HEADER] + [row for _, _, row, _, _ in cells]) + "\n"
    if args.out and args.out != "-":
        _write(args.out, text)
        print(f"wrote {args.out} ({len(cells)} rows)")
    else:
        sys.stdout.write(text)
    failed = [(delta, d, code, message) for delta, d, _, code, message in cells if code != EXIT_OK]
    for delta, d, _, message in failed:
        print(f"cell delta={delta} d={d}: {message.rstrip()}", file=sys.stderr)
    return failed[0][2] if failed else EXIT_OK


def _cmd_fuzz(args) -> int:
    t0 = time.perf_counter()
    report = fuzz_cook(args.seed, trials=args.trials)
    _emit(
        {
            "seed": args.seed,
            "trials": report.trials,
            "skipped": report.skipped,
            "checks": report.checks,
            "violations": list(report.violations),
            "runtime_ms": int((time.perf_counter() - t0) * 1000),
        }
    )
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def _cmd_bounds(args) -> int:
    inst = _load_instance(args.input)
    bounds = cook_bounds(inst.lp, inst.alt_rhs, subdet_budget=args.subdet_budget)
    _emit(
        {
            "family": inst.family,
            "delta": inst.delta,
            "d": inst.d,
            "subdet": str(bounds.subdet) if bounds.subdet is not None else None,
            "hadamard": str(bounds.hadamard),
            "prox_upper": str(bounds.prox_upper),
            "sens_upper": str(bounds.sens_upper) if bounds.sens_upper is not None else None,
            "via_hadamard": bounds.via_hadamard,
        }
    )
    return EXIT_OK


_NODE_BUDGET_HELP = (
    "the most nodes the enumeration's LP search may visit; the right-hand-side DP"
    " runs only when its work bound is within it"
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ilplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("family", choices=sorted(_BY_CLI_NAME))
    p_gen.add_argument("--delta", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--out", help="output path (default: JSON to stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="run a structural check")
    p_verify.add_argument("--check", choices=("polytopish", "matchings", "claims"), required=True)
    p_verify.add_argument("--in", dest="input", help="instance file (not needed for matchings)")
    p_verify.add_argument("--budget", type=_budget, default=1_000_000, help="LP-call budget for the hull walk")
    p_verify.add_argument("--node-budget", type=_budget, default=10_000_000, help=_NODE_BUDGET_HELP)
    p_verify.set_defaults(func=_cmd_verify)

    p_measure = sub.add_parser("measure", help="measure sensitivity or proximity")
    p_measure.add_argument("kind", choices=tuple(_MEASURES))
    p_measure.add_argument("--in", dest="input", required=True)
    p_measure.add_argument("--norm", choices=NORMS, default=NORM_LINF)
    p_measure.add_argument("--csv", action="store_true", help="print one CSV row instead of JSON")
    p_measure.add_argument("--node-budget", type=_budget, default=10_000_000, help=_NODE_BUDGET_HELP)
    p_measure.add_argument("--subdet-budget", type=_budget, default=10_000_000)
    p_measure.set_defaults(func=_cmd_measure)

    p_sweep = sub.add_parser("sweep", help="measure a parameter grid into a CSV table, cells in order in one process")
    p_sweep.add_argument("family", choices=sorted(_BY_CLI_NAME))
    p_sweep.add_argument("--delta", required=True, help="range a:b or comma list")
    p_sweep.add_argument("--d", required=True, help="range a:b or comma list")
    p_sweep.add_argument("--out", help="CSV path (default stdout)")
    p_sweep.add_argument("--norm", choices=NORMS, default=NORM_LINF)
    p_sweep.add_argument("--node-budget", type=_budget, default=10_000_000, help=_NODE_BUDGET_HELP)
    p_sweep.add_argument("--subdet-budget", type=_budget, default=10_000_000)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fuzz = sub.add_parser("fuzz", help="randomized validation of the upper bounds")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--trials", type=int, default=200)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_bounds = sub.add_parser("bounds", help="subdeterminant and upper bounds of an instance")
    p_bounds.add_argument("--in", dest="input", required=True)
    p_bounds.add_argument("--subdet-budget", type=_budget, default=10_000_000)
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


#: Exceptions the exit-code contract maps to a code; see ``_exit_code``.
_CONTRACT_ERRORS = (
    _UsageError,
    BudgetExceededError,
    UnboundedSearchError,
    ClaimFalsifiedError,
    EmbeddingError,
    ValueError,
)

_EXIT_LABELS = {
    EXIT_CHECK_FAILED: "check failed",
    EXIT_BUDGET: "budget exceeded",
    EXIT_USAGE: "usage error",
}


def _exit_code(exc: BaseException) -> int:
    """The exit code for an exception: budget 2, claim/embedding 1, usage 3.

    Any other exception is a defect, not an outcome the contract names; it
    gets 1, the code an uncaught exception exits with.
    """
    if isinstance(exc, BudgetExceededError):
        return EXIT_BUDGET
    if isinstance(exc, (_UsageError, UnboundedSearchError, ValueError)):
        return EXIT_USAGE
    return EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONTRACT_ERRORS as exc:
        code = _exit_code(exc)
        print(f"{_EXIT_LABELS[code]}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
