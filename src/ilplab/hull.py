"""Integer points of the convex hull of a column set.

A column system is *polytopish* when the integer points of the convex hull
of its columns are exactly the columns themselves.  The verifier walks the
point coordinate by coordinate: at depth i it bounds coordinate i over the
hull intersected with the fixed prefix (an exact LP over the convex weights)
and branches on every integer in that range.  The LPs nest: the weights are
the only variables, and depth i+1's system is depth i's with the row that
pins coordinate i appended, so the LP layer prepares a depth by growing the
preparation of the depth above.  The staircase structure of the systems
verified here collapses almost every coordinate to a single value once a
short prefix is fixed, so the walk stays desk-scale even in Z^45: once the
prefix fixes every weight, a deeper depth's appended row is only evaluated
at the fixed weights and reuses the preparation above, and a node reads
only the two optimal values of its coordinate, not an optimal solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exactla import Matrix, Vec, _ints, vec
from .lp import OPTIMAL, StandardLp, coord_range, lp_solve

VERDICT_POLYTOPISH = "polytopish"
VERDICT_NOT_POLYTOPISH = "not_polytopish"
VERDICT_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class HullReport:
    verdict: str
    hull_integer_points: tuple[tuple[int, ...], ...]
    extra_points: tuple[tuple[int, ...], ...]
    budget_exhausted: bool
    lp_calls: int
    #: convex weights witnessing each extra point (columns witness themselves)
    extra_certificates: tuple[Vec, ...] = ()

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "hull_integer_points": [list(p) for p in self.hull_integer_points],
            "extra_points": [list(p) for p in self.extra_points],
            "extra_certificates": [[str(w) for w in lam] for lam in self.extra_certificates],
            "budget_exhausted": self.budget_exhausted,
            "lp_calls": self.lp_calls,
        }


def _as_int_columns(columns: Sequence[Sequence[int | Fraction]]) -> list[tuple[int, ...]]:
    if not columns:
        raise ValueError("need at least one column")
    out = [_ints(col, "columns") for col in columns]
    if any(len(col) != len(out[0]) for col in out):
        raise ValueError("columns have inconsistent dimensions")
    return out


def hull_membership(
    columns: Sequence[Sequence[int | Fraction]], p: Sequence[int | str | Fraction]
) -> tuple[bool, Vec | None]:
    """Exact test for the integer point p in conv(columns); returns the convex weights on success.

    The columns and p must be integral (a ``ValueError`` otherwise), as the
    membership LP's matrix and right-hand side are.
    """
    point = _ints(vec(p), "point")
    cols = _as_int_columns(columns)
    dim = len(cols[0])
    if len(point) != dim:
        raise ValueError("dimension mismatch between columns and point")
    n = len(cols)
    rows = [tuple(c[i] for c in cols) for i in range(dim)]
    rows.append((1,) * n)
    lp = StandardLp(Matrix(tuple(rows)), point + (1,), (0,) * n)
    res = lp_solve(lp)
    if res.status != OPTIMAL:
        return False, None
    return True, res.solution


def integer_points_in_hull(
    columns: Sequence[Sequence[int | Fraction]], lp_budget: int = 1_000_000
) -> HullReport:
    """Complete set of integer points of conv(columns), compared to the columns."""
    cols = _as_int_columns(columns)
    dim = len(cols[0])
    n = len(cols)
    # Shift so all coordinates are non-negative; hull points shift with the
    # columns.  Every coordinate row then has non-negative entries, and a
    # coordinate pinned at its least value, 0, is a row with a zero
    # right-hand side that presolve settles at once.
    offset = [min(c[i] for c in cols) for i in range(dim)]
    shifted = [tuple(c[i] - offset[i] for i in range(dim)) for c in cols]

    # Variables: the convex weights alone.  Depth k bounds coordinate k, the
    # objective coordinate row k, over the weights summing to 1 (the weight
    # row) with coordinates 0..k-1 pinned to the prefix (coordinate rows
    # 0..k-1): its matrix is the weight row and coordinate rows 0..k-1, its
    # right-hand side (1, *prefix).  So depth k+1's system is depth k's with
    # one row appended, and the LP layer grows the parent depth's
    # preparation by that row (see ``lp._prepare_system``).  Each depth's
    # matrix is built once per walk from row tuples shared by all depths;
    # the LP layer reads only its dense rows, so none builds its pattern.
    coord_rows = [tuple(c[i] for c in shifted) for i in range(dim)]
    weight_row = (1,) * n
    depth_matrices = [Matrix((weight_row, *coord_rows[:k])) for k in range(dim)]

    # Depth first, values in increasing order.  The walk is one loop over an
    # explicit stack of (k, values of coordinate k left) of each depth on the
    # path, so no dimension is bounded by the interpreter's recursion limit.
    found: list[tuple[int, ...]] = []
    lp_calls = 0
    exhausted = False
    stack: list[tuple[int, Iterator[int]]] = []
    prefix: list[int] = []
    k = 0
    while True:
        if k == dim:
            found.append(tuple(prefix[i] + offset[i] for i in range(dim)))
        elif lp_calls + 2 > lp_budget:
            exhausted = True
            break
        else:
            lp_calls += 2
            span = coord_range(depth_matrices[k], (1, *prefix), coord_rows[k])
            if span is not None:
                lo, hi = span
                if lo is None or hi is None:
                    raise AssertionError("hull coordinates are bounded")
                stack.append((k, iter(range(math.ceil(lo), math.floor(hi) + 1))))
        # the next value of the deepest depth that has one left
        while stack:
            k, values = stack[-1]
            v = next(values, None)
            if v is not None:
                break
            stack.pop()
        else:
            break
        del prefix[k:]
        prefix.append(v)
        k += 1

    found.sort()
    column_set = set(cols)
    extras = tuple(sorted(set(found) - column_set))
    if exhausted:
        verdict = VERDICT_INCONCLUSIVE
    elif extras:
        verdict = VERDICT_NOT_POLYTOPISH
    else:
        missing = column_set - set(found)
        if missing:  # columns are hull points by definition; this is a bug
            raise RuntimeError(f"walk missed columns {sorted(missing)}")
        verdict = VERDICT_POLYTOPISH
    certificates = []
    for p in extras:
        ok, lam = hull_membership(cols, p)
        if not ok or lam is None:
            raise AssertionError("walk produced a point outside the hull")
        certificates.append(lam)
    return HullReport(verdict, tuple(found), extras, exhausted, lp_calls, tuple(certificates))
