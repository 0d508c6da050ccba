"""Integer points of the convex hull of a column set.

A column system is *polytopish* when the integer points of the convex hull
of its columns are exactly the columns themselves.  The verifier walks the
point coordinate by coordinate: at depth i it bounds coordinate i over the
hull intersected with the fixed prefix (an exact LP over the convex weights)
and branches on every integer in that range.  The staircase structure of the
systems verified here collapses almost every coordinate to a single value
once a short prefix is fixed, so the walk stays desk-scale even in Z^45.
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
    # columns, so the search can treat each coordinate as an LP variable.
    offset = [min(c[i] for c in cols) for i in range(dim)]
    shifted = [tuple(c[i] - offset[i] for i in range(dim)) for c in cols]

    found: list[tuple[int, ...]] = []
    lp_calls = 0
    exhausted = False
    prefix: list[int] = []

    # Variables: the next coordinate value, then the convex weights.  Depth k
    # bounds coordinate k (head row k) with coordinates 0..k-1 pinned to the
    # prefix (coordinate rows 0..k-1) and the weights summing to 1.  Only the
    # right-hand side depends on the prefix, so depth k's matrix, and with it
    # its sparse pattern, is built once per walk from rows shared by all depths.
    head_rows = [(1,) + tuple(-c[k] for c in shifted) for k in range(dim)]
    coord_rows = [(0,) + tuple(c[i] for c in shifted) for i in range(dim)]
    weight_row = (0,) + (1,) * n
    no_cost = (0,) * (n + 1)
    depth_matrices: list[Matrix | None] = [None] * dim

    def depth_lp(k: int) -> StandardLp:
        a = depth_matrices[k]
        if a is None:
            a = depth_matrices[k] = Matrix((head_rows[k], *coord_rows[:k], weight_row))
        return StandardLp(a, (0, *prefix, 1), no_cost)

    def walk() -> bool:
        """Depth first, values in increasing order; returns False when the LP budget ran out.

        The values each depth on the path has left sit on an explicit
        stack, so no dimension is bounded by the interpreter's recursion
        limit.
        """
        nonlocal lp_calls
        stack: list[Iterator[int]] = []
        while True:
            k = len(prefix)
            if k == dim:
                found.append(tuple(prefix[i] + offset[i] for i in range(dim)))
            else:
                if lp_calls + 2 > lp_budget:
                    return False
                lp_calls += 2
                cr = coord_range(depth_lp(k))
                if not cr.empty:
                    if cr.hi is None:
                        raise AssertionError("hull coordinates are bounded")
                    stack.append(iter(range(math.ceil(cr.lo), math.floor(cr.hi) + 1)))
            # the next value of the deepest depth that has one left
            while stack:
                del prefix[len(stack) - 1:]
                v = next(stack[-1], None)
                if v is not None:
                    prefix.append(v)
                    break
                stack.pop()
            else:
                return True

    completed = walk()
    found.sort()
    column_set = set(cols)
    extras = tuple(sorted(set(found) - column_set))
    if not completed:
        verdict = VERDICT_INCONCLUSIVE
        exhausted = True
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
