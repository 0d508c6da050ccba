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
with subdet the maximum |det| over all square submatrices, by
``cook_bounds``, the one place that computes them for both measures and the
fuzzer.  When the subdeterminant enumeration is over budget, the Hadamard
closed form stands in, flagged as an upper bound of an upper bound.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceededError, ClaimFalsifiedError
from .exactla import Matrix, _ints, det, dot, hadamard_bound, max_subdet_all, vec, vec_str
from .ilp import enumerate_integral_optima
from .instances import FAMILIES, KIND_PROX, KIND_SENS, IlpInstance, p_q_constants
from .lp import OPTIMAL, StandardLp, is_feasible_point, lp_solve

NORM_L1 = "l1"
NORM_LINF = "linf"
NORMS = (NORM_L1, NORM_LINF)

CSV_HEADER = "family,delta,d,norm,measured,reference_lower,cook_upper,hadamard_upper,runtime_ms,status"


def vec_dist(x: Sequence, y: Sequence, norm: str) -> Fraction | int:
    if len(x) != len(y):
        raise ValueError(f"distance of length {len(x)} vs {len(y)}")
    diffs = (abs(a - b) for a, b in zip(x, y))
    if norm == NORM_L1:
        return sum(diffs)
    if norm == NORM_LINF:
        return max(diffs, default=0)
    raise ValueError(f"unknown norm {norm!r}")


def dist_set_set(
    xs: Sequence[Sequence], ys: Sequence[Sequence], norm: str
) -> tuple[Fraction, tuple[tuple, tuple]]:
    """Exact max over xs of the min distance to ys (asymmetric), with witnesses.

    A point of xs that occurs in ys is measured against its first equal y
    alone, at distance 0.  Every point's scan stops at the first y no
    farther than the max so far, as the point's min cannot then raise it.
    The max and its pair change only on a strict increase, so the witnesses
    are those of a full scan: the first point reaching the max, and its
    first nearest y.
    """
    if not xs or not ys:
        raise ValueError("distance between sets needs both non-empty")
    first: dict[tuple, Sequence] = {}
    for y in ys:
        first.setdefault(tuple(y), y)
    best = None
    pair = None
    for x in xs:
        w = first.get(tuple(x))
        d = None
        for y in ys if w is None else (w,):
            dy = vec_dist(x, y, norm)
            if best is not None and dy <= best:
                break
            if d is None or dy < d:
                d, w = dy, y
        else:
            best, pair = d, (tuple(x), tuple(w))
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

    subdet: int | None
    hadamard: int
    prox_upper: int
    sens_upper: int | None
    via_hadamard: bool


def cook_bounds(
    lp: StandardLp,
    alt_rhs: Sequence | None = None,
    subdet_budget: int = 10_000_000,
) -> CookBounds:
    """Cook et al.'s bounds for ``lp`` and b' = ``alt_rhs``.

    They hold for integral data: every ``Matrix`` and b is integral (see
    ``exactla``), and b' is read by ``exactla._ints`` too, so a rational b'
    is a ``ValueError`` naming 'b_prime'.  The Hadamard closed form is
    ``hadamard_bound(A)`` over A's rows; it replaces the subdeterminant when
    the scan is over ``subdet_budget``.
    """
    a = lp.a
    had = hadamard_bound(a)
    subdet: int | None
    try:
        subdet = max_subdet_all(a, budget=subdet_budget).value
    except BudgetExceededError:
        subdet = None
    via_hadamard = subdet is None
    base = had if via_hadamard else subdet
    prox_upper = lp.n * base
    sens_upper = None
    if alt_rhs is not None:
        gap = max((abs(u - v) for u, v in zip(lp.b, _ints(alt_rhs, "b_prime"), strict=True)), default=0)
        sens_upper = (gap + 2) * lp.n * base
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
    cook_upper: int
    cook_via_hadamard: bool
    subdet: int | None
    hadamard_upper: int
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
            "cook_upper": str(self.cook_upper),
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
            str(self.cook_upper),
            str(self.hadamard_upper),
            str(self.runtime_ms),
            "ok",
        ]
        return ",".join(cells)


def csv_error_row(family: str, delta: int, d: int, norm: str, error: str) -> str:
    """The ``CSV_HEADER`` row of a cell that failed: its key, ``error:`` and the error's name as status."""
    header = CSV_HEADER.split(",")
    cells = dict.fromkeys(header, "")
    cells.update(family=family, delta=str(delta), d=str(d), norm=norm, status=f"error:{error}")
    return ",".join(cells[name] for name in header)


def _checked_report(
    inst: IlpInstance,
    kind: str,
    xs: Sequence[Sequence],
    ys: Sequence[Sequence],
    solution_counts: dict[str, int],
    t0: float,
    subdet_budget: int,
) -> MeasureReport:
    """The ``kind`` measure dist(xs, ys) in both norms, checked against its Cook bound."""
    measured: dict[str, Fraction] = {}
    witness: dict[str, tuple] = {}
    for norm in NORMS:
        measured[norm], witness[norm] = dist_set_set(xs, ys, norm)
    bounds = cook_bounds(inst.lp, inst.alt_rhs, subdet_budget=subdet_budget)
    if kind == KIND_SENS:
        report_kind, quantity, upper = "sensitivity", "sensitivity", bounds.sens_upper
    else:
        report_kind, quantity, upper = "proximity_lb", "proximity", bounds.prox_upper
    if measured[NORM_LINF] > upper:
        raise ClaimFalsifiedError(
            f"measured {quantity} {measured[NORM_LINF]} exceeds the upper bound {upper}",
            witness=witness[NORM_LINF],
        )
    reference = (None, None)
    family = FAMILIES.get(inst.family)
    if family is not None and family.kind == kind:
        reference = family.reference(inst.delta, inst.d)
    return MeasureReport(
        kind=report_kind,
        family=inst.family,
        delta=inst.delta,
        d=inst.d,
        measured=measured,
        witness=witness,
        reference_lower=dict(zip(NORMS, reference)),
        cook_upper=upper,
        cook_via_hadamard=bounds.via_hadamard,
        subdet=bounds.subdet,
        hadamard_upper=bounds.hadamard,
        solution_counts=solution_counts,
        runtime_ms=int((time.perf_counter() - t0) * 1000),
        notes=inst.notes,
    )


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
        StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c), node_budget=node_budget
    )
    if not sols_b or not sols_b2:
        raise ValueError("sensitivity is undefined: an optimal set is empty")
    counts = {"b": len(sols_b), "b_prime": len(sols_b2)}
    return _checked_report(inst, KIND_SENS, sols_b, sols_b2, counts, t0, subdet_budget)


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
    family = FAMILIES.get(inst.family)
    t0 = time.perf_counter()
    if z is None:
        if family is None or family.certificate is None:
            raise ValueError(
                f"family {inst.family!r} has no canonical proximity certificate: the CLI "
                "measures proximity on the proximity families only, and API callers pass z"
            )
        z = family.certificate(inst.delta, inst.d)
    zt = vec(z)
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
    if not sols:
        raise ValueError("proximity is undefined: no integral optimum")
    counts = {"integral_optima": len(sols)}
    return _checked_report(inst, KIND_PROX, [zt], sols, counts, t0, subdet_budget)


def norm_floor(inst: IlpInstance, x: Sequence) -> Fraction:
    """l1-norm floor for feasible points of the proximity families.

    With y the six leading (matching) coordinates and a the per-edge
    coverage a = M.y, feasibility forces the entire tail of x, whose norm is
    exactly (15 - ||a||_1)*q + ||a||_1*p.  Since q = delta*p + 1, this gives

        ||x||_1 = ||y||_1 + (15 - ||a||_1)*delta*p + ||a||_1*p + (15 - ||a||_1),

    and the floor is this sum without its last term.  (Stating the floor with
    ||y||_1 in place of ||a||_1 looks tempting but is falsified at delta = 3
    by the one-matching optima, so the coverage form is used.)

    The forced-tail identity is checked first.  It reads the instance's
    delta and d through p and q, so a point of a matrix that the labels do
    not describe fails it with a ``ValueError``.  On the family, row e of the
    first block reads a_e + x_(6+e) = 1 with x_(6+e) >= 0, so ||a||_1 <= 15
    on every feasible point and the floor never exceeds ||x||_1; a coverage
    above 15 therefore also means the matrix is not the family's, and is
    refused with the same ``ValueError``.  So whenever a floor is returned it
    is ||x||_1 - (15 - ||a||_1) <= ||x||_1, whatever the labels say.
    """
    if inst.family not in FAMILIES or FAMILIES[inst.family].kind != KIND_PROX:
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
    if coverage > 15 or nx != ny + (15 - coverage) * q + coverage * p:
        raise ValueError(
            f"the forced-tail identity fails: the labels delta={inst.delta}, d={inst.d} "
            f"or the matrix do not describe the {inst.family} family"
        )
    return ny + (15 - coverage) * inst.delta * p + coverage * p


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


_FUZZ_MAX_DIM = 3
_FUZZ_MAX_COLS = 5
_FUZZ_MAX_ENTRY = 3
_FUZZ_NODE_BUDGET = 200_000


def fuzz_cook(seed: int, trials: int = 200) -> FuzzReport:
    """Validate the upper bounds on random feasible systems.

    Instances are feasible by construction (b = A x* for a random integral
    x* >= 0) and of full row rank, tested as det(A A^T) != 0; checked per
    trial, all exactly:

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
        d = rng.randint(1, _FUZZ_MAX_DIM)
        n = rng.randint(d, _FUZZ_MAX_COLS)
        grid = [[rng.randint(0, _FUZZ_MAX_ENTRY) for _ in range(n)] for _ in range(d)]
        a = Matrix(grid)
        if any(all(grid[i][j] == 0 for i in range(d)) for j in range(n)):
            continue  # a zero column has no derivable bound
        gram = [[sum(u * v for u, v in zip(ri, rj)) for rj in grid] for ri in grid]
        if det(Matrix(gram)) == 0:
            continue  # rank(A) < d exactly when A A^T is singular
        x_star = [rng.randint(0, 2) for _ in range(n)]
        x_star2 = [rng.randint(0, 2) for _ in range(n)]
        c = tuple(rng.randint(-1, 2) for _ in range(n))
        lp = StandardLp(a, a.mul_vec(x_star), c)
        lp2 = StandardLp(a, a.mul_vec(x_star2), c)
        # solved first, so that when the search serves the first enumeration
        # its root reuses this preparation (the DP prepares nothing)
        frac = lp_solve(lp)
        if frac.status != OPTIMAL:
            raise AssertionError("bounded feasible system must solve")
        try:
            sols = enumerate_integral_optima(lp, node_budget=_FUZZ_NODE_BUDGET)
            sols2 = enumerate_integral_optima(lp2, node_budget=_FUZZ_NODE_BUDGET)
        except BudgetExceededError:
            skipped += 1
            continue
        done += 1
        bounds = cook_bounds(lp, lp2.b)
        for kind, xs, ys, bound, b_prime in (
            ("proximity", [frac.solution], sols, bounds.prox_upper, None),
            ("sensitivity_forward", sols, sols2, bounds.sens_upper, lp2.b),
            ("sensitivity_backward", sols2, sols, bounds.sens_upper, lp2.b),
        ):
            dist, _ = dist_set_set(xs, ys, NORM_LINF)
            checks += 1
            if dist > bound:
                violation = {"kind": kind, "matrix": a.to_json(), "b": vec_str(lp.b), "c": vec_str(c),
                             "distance": str(dist), "bound": str(bound)}
                if b_prime is not None:
                    violation["b_prime"] = vec_str(b_prime)
                violations.append(violation)
    return FuzzReport(done, skipped, checks, tuple(violations))
