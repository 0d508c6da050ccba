"""Distance measures, sensitivity/proximity measurement, and upper-bound checks.

Sensitivity of a system under a right-hand-side change b -> b' is the
max-min distance between the two sets of optimal integral solutions;
proximity is measured here as a certified lower bound: the exact distance
from one certified optimal fractional point to the set of optimal integral
solutions (the true proximity maximizes over all optimal fractional points,
so it can only be larger).  Both the l1 and the l-infinity value are always
computed side by side.

Measured values are compared against the classical upper bounds
n*subdet(A) (proximity) and (||b-b'||_inf + 2)*n*subdet(A) (sensitivity),
with subdet the maximum |det| over all square submatrices.  When the
subdeterminant enumeration is over budget, the Hadamard closed form stands
in, flagged as an upper bound of an upper bound.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, ClaimFalsifiedError
from .exactla import Matrix, Vec, dot, hadamard_bound, max_subdet_all, vec, vec_str
from .ilp import enumerate_integral_optima
from .instances import (
    FAMILY_BINPACK_PROX,
    FAMILY_BINPACK_SENS,
    FAMILY_PROXIMITY,
    FAMILY_SENSITIVITY,
    IlpInstance,
    fractional_certificate,
    p_q_constants,
)
from .lp import OPTIMAL, StandardLp, is_feasible_point, lp_solve

NORM_L1 = "l1"
NORM_LINF = "linf"
NORMS = (NORM_L1, NORM_LINF)

CSV_HEADER = "family,delta,d,norm,measured,reference_lower,cook_upper,hadamard_upper,runtime_ms,status"


def vec_dist(x: Sequence, y: Sequence, norm: str) -> Fraction:
    if len(x) != len(y):
        raise ValueError(f"distance of length {len(x)} vs {len(y)}")
    diffs = (abs(Fraction(a) - Fraction(b)) for a, b in zip(x, y))
    if norm == NORM_L1:
        return sum(diffs, Fraction(0))
    if norm == NORM_LINF:
        return max(diffs, default=Fraction(0))
    raise ValueError(f"unknown norm {norm!r}")


def dist_point_set(x: Sequence, points: Sequence[Sequence], norm: str) -> tuple[Fraction, tuple]:
    """Exact min distance from x to a finite set, with a minimizing witness."""
    if not points:
        raise ValueError("distance to an empty set is undefined")
    best = None
    witness = None
    for p in points:
        d = vec_dist(x, p, norm)
        if best is None or d < best:
            best, witness = d, tuple(p)
    return best, witness


def dist_set_set(
    xs: Sequence[Sequence], ys: Sequence[Sequence], norm: str
) -> tuple[Fraction, tuple[tuple, tuple]]:
    """Exact max over xs of the min distance to ys (asymmetric), with witnesses."""
    if not xs or not ys:
        raise ValueError("distance between sets needs both non-empty")
    best = None
    pair = None
    for x in xs:
        d, w = dist_point_set(x, ys, norm)
        if best is None or d > best:
            best, pair = d, (tuple(x), w)
    return best, pair


# ---------------------------------------------------------------------------
# classical upper bounds


@dataclass(frozen=True)
class CookBounds:
    """n*subdet and (||b-b'||_inf+2)*n*subdet, plus the Hadamard closed form.

    When ``via_hadamard`` is set the subdeterminant enumeration was over
    budget and the closed form replaced it, so the bounds are upper bounds
    of upper bounds.
    """

    subdet: Fraction | None
    hadamard: Fraction
    prox_upper: Fraction
    sens_upper: Fraction | None
    via_hadamard: bool


def cook_bounds(
    inst: IlpInstance,
    subdet_budget: int = 10_000_000,
    allow_hadamard_fallback: bool = True,
) -> CookBounds:
    """Cook et al.'s bounds for ``inst``; they hold for integral A only."""
    a = inst.lp.a
    if any(x.denominator != 1 for row in a.rows for x in row):
        raise ValueError("the Cook bounds hold for an integral matrix A only")
    had = hadamard_bound(a, a.nrows).closed_form
    subdet: Fraction | None
    try:
        subdet = max_subdet_all(a, budget=subdet_budget).value
        base = subdet
        via_hadamard = False
    except BudgetExceededError:
        if not allow_hadamard_fallback:
            raise
        subdet = None
        base = had
        via_hadamard = True
    n = Fraction(inst.lp.n)
    prox_upper = n * base
    sens_upper = None
    if inst.alt_rhs is not None:
        gap = max(
            (abs(u - v) for u, v in zip(inst.lp.b, inst.alt_rhs)), default=Fraction(0)
        )
        sens_upper = (gap + 2) * n * base
    return CookBounds(subdet, had, prox_upper, sens_upper, via_hadamard)


# ---------------------------------------------------------------------------
# measurement reports


@dataclass(frozen=True)
class MeasureReport:
    kind: str  # "sensitivity" | "proximity_lb"
    family: str
    delta: int
    d: int
    measured: dict[str, Fraction]
    witness: dict[str, tuple]
    reference_lower: dict[str, Fraction | None]
    cook_upper: Fraction | None
    cook_via_hadamard: bool
    subdet: Fraction | None
    hadamard_upper: Fraction
    solution_counts: dict[str, int]
    runtime_ms: int
    notes: str = ""

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "delta": self.delta,
            "d": self.d,
            "measured": {k: str(v) for k, v in self.measured.items()},
            "witness": {
                k: [vec_str(side) for side in pair] for k, pair in self.witness.items()
            },
            "reference_lower": {
                k: (str(v) if v is not None else None)
                for k, v in self.reference_lower.items()
            },
            "cook_upper": str(self.cook_upper) if self.cook_upper is not None else None,
            "cook_via_hadamard": self.cook_via_hadamard,
            "subdet": str(self.subdet) if self.subdet is not None else None,
            "hadamard_upper": str(self.hadamard_upper),
            "solution_counts": dict(self.solution_counts),
            "runtime_ms": self.runtime_ms,
            "notes": self.notes,
        }

    def csv_row(self, norm: str) -> str:
        ref = self.reference_lower.get(norm)
        cells = [
            self.family,
            str(self.delta),
            str(self.d),
            norm,
            str(self.measured[norm]),
            str(ref) if ref is not None else "",
            str(self.cook_upper) if self.cook_upper is not None else "",
            str(self.hadamard_upper),
            str(self.runtime_ms),
            "ok",
        ]
        return ",".join(cells)


def _sensitivity_reference(inst: IlpInstance) -> dict[str, Fraction | None]:
    if inst.family in (FAMILY_SENSITIVITY, FAMILY_BINPACK_SENS):
        return {
            NORM_LINF: Fraction(inst.delta ** (inst.d - 1)),
            NORM_L1: Fraction(sum(inst.delta**j for j in range(inst.d))),
        }
    return {NORM_LINF: None, NORM_L1: None}


def _proximity_reference(inst: IlpInstance) -> dict[str, Fraction | None]:
    if inst.family in (FAMILY_PROXIMITY, FAMILY_BINPACK_PROX):
        p, _ = p_q_constants(inst.delta, inst.d)
        return {NORM_L1: Fraction(13 * inst.delta * p), NORM_LINF: None}
    return {NORM_L1: None, NORM_LINF: None}


def measure_sensitivity(
    inst: IlpInstance,
    node_budget: int = 10_000_000,
    subdet_budget: int = 10_000_000,
) -> MeasureReport:
    """Exact sensitivity via complete enumeration of both optimal sets."""
    if inst.alt_rhs is None:
        raise ValueError("sensitivity needs an alternate right-hand side")
    t0 = time.perf_counter()
    sols_b = enumerate_integral_optima(inst.lp, node_budget=node_budget)
    sols_b2 = enumerate_integral_optima(
        inst.with_rhs(inst.alt_rhs).lp, node_budget=node_budget
    )
    if not sols_b.solutions or not sols_b2.solutions:
        raise ValueError("sensitivity is undefined: an optimal set is empty")
    measured: dict[str, Fraction] = {}
    witness: dict[str, tuple] = {}
    for norm in NORMS:
        measured[norm], witness[norm] = dist_set_set(
            sols_b.solutions, sols_b2.solutions, norm
        )
    bounds = cook_bounds(inst, subdet_budget=subdet_budget)
    if measured[NORM_LINF] > bounds.sens_upper:
        raise ClaimFalsifiedError(
            f"measured sensitivity {measured[NORM_LINF]} exceeds the upper bound "
            f"{bounds.sens_upper}",
            witness=witness[NORM_LINF],
        )
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return MeasureReport(
        kind="sensitivity",
        family=inst.family,
        delta=inst.delta,
        d=inst.d,
        measured=measured,
        witness=witness,
        reference_lower=_sensitivity_reference(inst),
        cook_upper=bounds.sens_upper,
        cook_via_hadamard=bounds.via_hadamard,
        subdet=bounds.subdet,
        hadamard_upper=bounds.hadamard,
        solution_counts={"b": len(sols_b), "b_prime": len(sols_b2)},
        runtime_ms=runtime_ms,
        notes=inst.notes,
    )


def certificate_for(inst: IlpInstance) -> Vec:
    """The canonical optimal fractional point for the proximity families."""
    if inst.family not in (FAMILY_PROXIMITY, FAMILY_BINPACK_PROX):
        raise ValueError(f"no canonical certificate for family {inst.family!r}")
    return fractional_certificate(inst.delta, inst.d)


def measure_proximity_lb(
    inst: IlpInstance,
    z: Sequence | None = None,
    node_budget: int = 10_000_000,
    subdet_budget: int = 10_000_000,
) -> MeasureReport:
    """Certified proximity lower bound: exact distance from z to the optima.

    ``z`` must be feasible and attain the LP optimum (this is checked
    exactly and rejected otherwise); for the proximity families it defaults
    to the canonical half-matchings certificate.
    """
    t0 = time.perf_counter()
    zt = vec(z) if z is not None else certificate_for(inst)
    if not is_feasible_point(inst.lp, zt):
        raise ValueError("rejected certificate: not a feasible point")
    relax = lp_solve(inst.lp)
    if relax.status != OPTIMAL:
        raise ValueError(f"rejected certificate: LP relaxation is {relax.status}")
    if dot(inst.lp.c, zt) != relax.objective:
        raise ValueError(
            f"rejected certificate: objective {dot(inst.lp.c, zt)} differs from the "
            f"LP optimum {relax.objective}"
        )
    sols = enumerate_integral_optima(inst.lp, node_budget=node_budget)
    if not sols.solutions:
        raise ValueError("proximity is undefined: no integral optimum")
    measured: dict[str, Fraction] = {}
    witness: dict[str, tuple] = {}
    for norm in NORMS:
        dist, w = dist_point_set(zt, sols.solutions, norm)
        measured[norm] = dist
        witness[norm] = (zt, w)
    bounds = cook_bounds(inst, subdet_budget=subdet_budget)
    if measured[NORM_LINF] > bounds.prox_upper:
        raise ClaimFalsifiedError(
            f"measured proximity {measured[NORM_LINF]} exceeds the upper bound "
            f"{bounds.prox_upper}",
            witness=witness[NORM_LINF],
        )
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return MeasureReport(
        kind="proximity_lb",
        family=inst.family,
        delta=inst.delta,
        d=inst.d,
        measured=measured,
        witness=witness,
        reference_lower=_proximity_reference(inst),
        cook_upper=bounds.prox_upper,
        cook_via_hadamard=bounds.via_hadamard,
        subdet=bounds.subdet,
        hadamard_upper=bounds.hadamard,
        solution_counts={"integral_optima": len(sols)},
        runtime_ms=runtime_ms,
        notes=inst.notes,
    )


def norm_floor(inst: IlpInstance, x: Sequence) -> Fraction:
    """l1-norm floor for feasible points of the proximity families.

    With y the six leading (matching) coordinates and a the per-edge
    coverage a = M.y, feasibility forces the entire tail of x, whose norm is
    exactly (15 - ||a||_1)*q + ||a||_1*p.  Since q = delta*p + 1, this gives

        ||x||_1 >= ||y||_1 + (15 - ||a||_1)*delta*p + ||a||_1*p,

    which is the floor evaluated and asserted here.  (Stating the floor with
    ||y||_1 in place of ||a||_1 looks tempting but is falsified at delta = 3
    by the one-matching optima, so the coverage form is used.)  A violation
    is reported as a falsification with the witness attached.
    """
    if inst.family not in (FAMILY_PROXIMITY, FAMILY_BINPACK_PROX):
        raise ValueError("the norm floor applies to the proximity families only")
    xt = vec(x)
    if not is_feasible_point(inst.lp, xt):
        raise ValueError("point is not feasible for the instance")
    p, q = p_q_constants(inst.delta, inst.d)
    y = xt[:6]
    ny = sum(y, Fraction(0))
    coverage = sum(
        (inst.lp.a.rows[e][j] * y[j] for e in range(15) for j in range(6) if y[j]),
        Fraction(0),
    )
    nx = sum(xt, Fraction(0))
    # feasibility pins the tail, so the norm identity must hold exactly
    if nx != ny + (15 - coverage) * q + coverage * p:
        raise AssertionError("forced-tail identity failed")
    bound = ny + (15 - coverage) * inst.delta * p + coverage * p
    if nx < bound:
        raise ClaimFalsifiedError(
            f"norm floor falsified: ||x||_1 = {nx} < {bound}", witness=tuple(xt)
        )
    return bound


# ---------------------------------------------------------------------------
# randomized upper-bound validation


@dataclass(frozen=True)
class FuzzReport:
    trials: int
    skipped: int
    checks: int
    violations: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.violations


def _row_rank(m: Matrix) -> int:
    rows = [list(r) for r in m.rows]
    rank = 0
    for j in range(m.ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] / prow[j]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def fuzz_cook(
    seed: int,
    trials: int = 200,
    max_dim: int = 3,
    max_cols: int = 5,
    max_entry: int = 3,
    trial_node_budget: int = 200_000,
) -> FuzzReport:
    """Validate the upper bounds on random feasible systems.

    Instances are feasible by construction (b = A x* for a random integral
    x* >= 0) and full row rank; checked per trial, all exactly:

      * the distance from the computed optimal fractional vertex to the set
        of optimal integral solutions is at most n*subdet;
      * the max-min distance between the optimal integral sets for b and a
        perturbed b' (both directions) is at most (||b-b'||_inf+2)*n*subdet.

    Trials whose enumeration exceeds the per-trial node budget are redrawn
    (counted in ``skipped``); violations are returned, never raised.
    """
    if trials < 1:
        raise ValueError(f"fuzzing needs at least 1 trial, got {trials}")
    rng = random.Random(seed)
    done = 0
    skipped = 0
    checks = 0
    violations: list[dict] = []
    while done < trials:
        d = rng.randint(1, max_dim)
        n = rng.randint(d, max_cols)
        grid = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(d)]
        a = Matrix.from_rows(grid)
        if any(all(grid[i][j] == 0 for i in range(d)) for j in range(n)):
            continue  # a zero column has no derivable bound
        if _row_rank(a) < d:
            continue
        x_star = [rng.randint(0, 2) for _ in range(n)]
        x_star2 = [rng.randint(0, 2) for _ in range(n)]
        c = vec([rng.randint(-1, 2) for _ in range(n)])
        b = a.mul_vec(vec(x_star))
        b2 = a.mul_vec(vec(x_star2))
        lp = StandardLp(a, b, c)
        lp2 = StandardLp(a, b2, c)
        try:
            sols = enumerate_integral_optima(lp, node_budget=trial_node_budget)
            sols2 = enumerate_integral_optima(lp2, node_budget=trial_node_budget)
        except BudgetExceededError:
            skipped += 1
            continue
        done += 1
        frac = lp_solve(lp)
        if frac.status != OPTIMAL:
            raise AssertionError("bounded feasible system must solve")
        subdet = max_subdet_all(a).value
        n_sub = Fraction(n) * subdet
        prox_dist, _ = dist_point_set(frac.solution, sols.solutions, NORM_LINF)
        checks += 1
        if prox_dist > n_sub:
            violations.append(
                {"kind": "proximity", "matrix": a.to_json(), "b": vec_str(b),
                 "c": vec_str(c), "distance": str(prox_dist), "bound": str(n_sub)}
            )
        gap = max((abs(u - v) for u, v in zip(b, b2)), default=Fraction(0))
        sens_bound = (gap + 2) * n_sub
        for xs, ys, tag in ((sols, sols2, "forward"), (sols2, sols, "backward")):
            dist, _ = dist_set_set(xs.solutions, ys.solutions, NORM_LINF)
            checks += 1
            if dist > sens_bound:
                violations.append(
                    {"kind": f"sensitivity_{tag}", "matrix": a.to_json(),
                     "b": vec_str(b), "b_prime": vec_str(b2), "c": vec_str(c),
                     "distance": str(dist), "bound": str(sens_bound)}
                )
    return FuzzReport(done, skipped, checks, tuple(violations))
