"""Command-line front end: generate, verify, measure, sweep, fuzz, bounds.

Exit codes are a stable contract: 0 success, 1 check/verification failure,
2 budget exceeded, 3 usage error.  All JSON output has sorted keys and
canonical rational strings, so byte-identical reruns are expected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from .errors import BudgetExceededError, ClaimFalsifiedError, EmbeddingError, UnboundedSearchError
from .hull import VERDICT_INCONCLUSIVE, VERDICT_POLYTOPISH, integer_points_in_hull
from .ilp import enumerate_integral_optima
from .instances import (
    FAMILY_BINPACK_PROX,
    FAMILY_BINPACK_SENS,
    FAMILY_PROXIMITY,
    FAMILY_SENSITIVITY,
    IlpInstance,
    binpack_ilp_instance,
    doc_dumps,
    expected_sensitivity_pair,
    fractional_certificate,
    gen_binpack_proximity,
    gen_binpack_sensitivity,
    gen_proximity,
    gen_sensitivity,
    instance_from_doc,
    instance_to_doc,
    p_q_constants,
)
from .lp import is_feasible_point
from .measures import (
    CSV_HEADER,
    NORM_LINF,
    NORMS,
    norm_floor,
    cook_bounds,
    fuzz_cook,
    measure_proximity_lb,
    measure_sensitivity,
)
from .petersen import build_matching_system

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3

_GEN_FAMILIES = {
    "sensitivity": FAMILY_SENSITIVITY,
    "proximity": FAMILY_PROXIMITY,
    "binpack-sens": FAMILY_BINPACK_SENS,
    "binpack-prox": FAMILY_BINPACK_PROX,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 3
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _load_instance(path: str) -> IlpInstance:
    try:
        with open(path, encoding="utf-8") as fh:
            return instance_from_doc(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise _UsageError(f"cannot read instance {path!r}: {exc}") from exc


def _generate(family: str, delta: int, d: int) -> IlpInstance:
    if family == FAMILY_SENSITIVITY:
        return gen_sensitivity(delta, d)
    if family == FAMILY_PROXIMITY:
        return gen_proximity(delta, d)
    if family == FAMILY_BINPACK_SENS:
        return binpack_ilp_instance(*gen_binpack_sensitivity(delta, d), FAMILY_BINPACK_SENS, delta, d)
    if family == FAMILY_BINPACK_PROX:
        return binpack_ilp_instance(*gen_binpack_proximity(delta, d), FAMILY_BINPACK_PROX, delta, d)
    raise _UsageError(f"unknown family {family!r}")


def _cmd_gen(args) -> int:
    family = _GEN_FAMILIES[args.family]
    try:
        inst = _generate(family, args.delta, args.d)
    except (ValueError, EmbeddingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ValueError) else EXIT_CHECK_FAILED
    doc = doc_dumps(instance_to_doc(inst))
    summary = (
        f"{family}: {inst.lp.d}x{inst.lp.n} matrix, max entry {inst.lp.a.max_abs()}"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc)
        print(f"wrote {args.out} ({summary})")
    else:
        print(summary, file=sys.stderr)
        sys.stdout.write(doc)
    return EXIT_OK


def _verify_matchings() -> tuple[bool, dict]:
    ms = build_matching_system()
    inc = ms.incidence
    row_sums = [int(sum(r)) for r in inc.rows]
    col_sums = [int(sum(inc.col(j))) for j in range(6)]
    overlaps = sorted(
        int(sum(a * b for a, b in zip(inc.col(i), inc.col(j))))
        for i in range(6)
        for j in range(i + 1, 6)
    )
    report = {
        "matchings": len(ms.matchings),
        "row_sums": row_sums,
        "column_sums": col_sums,
        "pairwise_shared_edges": overlaps,
    }
    ok = (
        len(ms.matchings) == 6
        and set(row_sums) == {2}
        and set(col_sums) == {5}
        and set(overlaps) == {1}
    )
    return ok, report


def _verify_polytopish(inst: IlpInstance, lp_budget: int) -> tuple[bool, dict]:
    report = integer_points_in_hull(inst.lp.a.cols(), lp_budget=lp_budget)
    if report.verdict == VERDICT_INCONCLUSIVE:
        raise BudgetExceededError("hull walk exceeded the LP-call budget")
    return report.verdict == VERDICT_POLYTOPISH, report.to_json()


def _verify_claims(inst: IlpInstance, node_budget: int) -> tuple[bool, dict]:
    details: dict = {"family": inst.family}
    if inst.family in (FAMILY_SENSITIVITY, FAMILY_BINPACK_SENS):
        if inst.alt_rhs is None:
            raise _UsageError("claims check needs the alternate right-hand side")
        sols = enumerate_integral_optima(inst.lp, node_budget=node_budget)
        sols2 = enumerate_integral_optima(inst.with_rhs(inst.alt_rhs).lp, node_budget=node_budget)
        details["optima_counts"] = [len(sols), len(sols2)]
        ok = len(sols) == 1 and len(sols2) == 1
        if inst.family == FAMILY_SENSITIVITY and ok:
            x, x2 = expected_sensitivity_pair(inst.delta, inst.d)
            ok = sols.solutions[0] == tuple(int(v) for v in x) and sols2.solutions[
                0
            ] == tuple(int(v) for v in x2)
            details["matches_forward_substitution"] = ok
        return ok, details
    if inst.family in (FAMILY_PROXIMITY, FAMILY_BINPACK_PROX):
        z = fractional_certificate(inst.delta, inst.d)
        z_ok = is_feasible_point(inst.lp, z)
        sols = enumerate_integral_optima(inst.lp, node_budget=node_budget)
        p, q = p_q_constants(inst.delta, inst.d)
        floors = []
        floor_ok = True
        for sol in sols.solutions:
            try:
                floors.append(str(norm_floor(inst, sol)))
            except ClaimFalsifiedError as exc:
                floor_ok = False
                details["falsified"] = str(exc)
                break
        details.update(
            {
                "certificate_feasible": z_ok,
                "optima_count": len(sols),
                "p": p,
                "q": q,
                "norm_floors": floors,
            }
        )
        return z_ok and floor_ok and len(sols) == 7, details
    raise _UsageError(f"no claims check for family {inst.family!r}")


def _cmd_verify(args) -> int:
    if args.check == "matchings":
        ok, report = _verify_matchings()
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
    if args.kind == "sens":
        if inst.alt_rhs is None:
            raise _UsageError("instance has no alternate right-hand side")
        report = measure_sensitivity(
            inst, node_budget=args.node_budget, subdet_budget=args.subdet_budget
        )
    else:
        if inst.family not in (FAMILY_PROXIMITY, FAMILY_BINPACK_PROX):
            raise _UsageError(
                "no canonical fractional certificate for this family; use the API "
                "to pass an explicit one"
            )
        report = measure_proximity_lb(
            inst, node_budget=args.node_budget, subdet_budget=args.subdet_budget
        )
    if args.csv:
        print(report.csv_row(args.norm))
    else:
        _emit(report.to_json())
    return EXIT_OK


def _sweep_cell(job: tuple) -> tuple[int, int, str, int, str]:
    """One sweep cell: (delta, d, CSV row, exit code, message for stderr)."""
    family, delta, d, norm, node_budget, subdet_budget = job
    try:
        inst = _generate(family, delta, d)
        if family in (FAMILY_SENSITIVITY, FAMILY_BINPACK_SENS):
            report = measure_sensitivity(inst, node_budget=node_budget, subdet_budget=subdet_budget)
        else:
            report = measure_proximity_lb(inst, node_budget=node_budget, subdet_budget=subdet_budget)
        return delta, d, report.csv_row(norm), EXIT_OK, ""
    except Exception as exc:  # per-cell failures land in the row, sweep continues
        row = f"{family},{delta},{d},{norm},,,,,,error:{type(exc).__name__}"
        code = _exit_code(exc)
        if isinstance(exc, _CONTRACT_ERRORS):
            message = f"{_EXIT_LABELS[code]}: {exc}"
        else:  # a defect: keep its traceback
            message = traceback.format_exc()
        return delta, d, row, code, message


def _parse_int_list(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


def _sweep_workers(jobs: int, cells: int) -> int:
    """Worker processes for a sweep: no more than the cells or the CPUs."""
    return min(jobs, cells, os.cpu_count() or 1)


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    family = _GEN_FAMILIES[args.family]
    deltas = _parse_int_list(args.delta)
    ds = _parse_int_list(args.d)
    for axis, text, values in (("--delta", args.delta, deltas), ("--d", args.d, ds)):
        if not values:
            raise _UsageError(f"{axis} {text!r} gives no values, so the grid is empty")
    jobs = [
        (family, delta, d, args.norm, args.node_budget, args.subdet_budget)
        for delta in deltas
        for d in ds
    ]
    workers = _sweep_workers(args.jobs, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, jobs))
    else:
        results = [_sweep_cell(job) for job in jobs]
    results.sort(key=lambda item: (item[0], item[1]))
    lines = [CSV_HEADER] + [row for _, _, row, _, _ in results]
    text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(results)} rows)")
    else:
        sys.stdout.write(text)
    failed = [(delta, d, code, message) for delta, d, _, code, message in results if code != EXIT_OK]
    for delta, d, _, message in failed:
        print(f"cell delta={delta} d={d}: {message.rstrip()}", file=sys.stderr)
    # the first failing cell in (delta, d) order, whatever the worker count
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
    bounds = cook_bounds(
        inst,
        subdet_budget=args.subdet_budget,
        allow_hadamard_fallback=not args.no_hadamard_fallback,
    )
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ilplab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("family", choices=sorted(_GEN_FAMILIES))
    p_gen.add_argument("--delta", type=int, required=True)
    p_gen.add_argument("--d", type=int, required=True)
    p_gen.add_argument("--out", help="output path (default: JSON to stdout)")
    p_gen.set_defaults(func=_cmd_gen)

    p_verify = sub.add_parser("verify", help="run a structural check")
    p_verify.add_argument("--check", choices=("polytopish", "matchings", "claims"), required=True)
    p_verify.add_argument("--in", dest="input", help="instance file (not needed for matchings)")
    p_verify.add_argument("--budget", type=int, default=1_000_000, help="LP-call budget for the hull walk")
    p_verify.add_argument("--node-budget", type=int, default=10_000_000)
    p_verify.set_defaults(func=_cmd_verify)

    p_measure = sub.add_parser("measure", help="measure sensitivity or proximity")
    p_measure.add_argument("kind", choices=("sens", "prox"))
    p_measure.add_argument("--in", dest="input", required=True)
    p_measure.add_argument("--norm", choices=NORMS, default=NORM_LINF)
    p_measure.add_argument("--csv", action="store_true", help="print one CSV row instead of JSON")
    p_measure.add_argument("--node-budget", type=int, default=10_000_000)
    p_measure.add_argument("--subdet-budget", type=int, default=10_000_000)
    p_measure.set_defaults(func=_cmd_measure)

    p_sweep = sub.add_parser("sweep", help="measure a parameter grid into a CSV table")
    p_sweep.add_argument("family", choices=sorted(_GEN_FAMILIES))
    p_sweep.add_argument("--delta", required=True, help="range a:b or comma list")
    p_sweep.add_argument("--d", required=True, help="range a:b or comma list")
    p_sweep.add_argument("--out", help="CSV path (default stdout)")
    p_sweep.add_argument("--norm", choices=NORMS, default=NORM_LINF)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--node-budget", type=int, default=10_000_000)
    p_sweep.add_argument("--subdet-budget", type=int, default=10_000_000)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fuzz = sub.add_parser("fuzz", help="randomized validation of the upper bounds")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--trials", type=int, default=200)
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_bounds = sub.add_parser("bounds", help="subdeterminant and upper bounds of an instance")
    p_bounds.add_argument("--in", dest="input", required=True)
    p_bounds.add_argument("--subdet-budget", type=int, default=10_000_000)
    p_bounds.add_argument("--no-hadamard-fallback", action="store_true")
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
