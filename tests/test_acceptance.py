"""Acceptance gate: one test per criterion, each printing a pass line.

Every assertion is exact (tolerance zero); runtime ceilings are asserted
where stated.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import math
import random
import time
from fractions import Fraction as F
import pytest

from ilplab.exactla import dot, vec
from ilplab.hull import VERDICT_POLYTOPISH, integer_points_in_hull
from ilplab.ilp import enumerate_integral_optima
from ilplab.instances import (
    FAMILIES,
    FAMILY_PROXIMITY,
    expected_sensitivity_pair,
    gen_binpack_proximity,
    gen_binpack_sensitivity,
    gen_proximity,
    gen_sensitivity,
    p_q_constants,
)
from ilplab.lp import StandardLp, is_feasible_point
from ilplab.measures import (
    NORM_L1,
    NORM_LINF,
    norm_floor,
    fuzz_cook,
    measure_proximity_lb,
    measure_sensitivity,
)
from ilplab.petersen import build_matching_system

from oracles import brute_force_optima, hull_box_oracle, oracle_box, random_feasible_ilp

SENS_GRID = [(delta, d) for delta in (1, 2, 3, 4, 5) for d in (2, 4, 6)]


def report(line: str):
    print(line, flush=True)


@pytest.fixture(scope="module")
def sensitivity_grid():
    t0 = time.perf_counter()
    cells = {}
    for delta, d in SENS_GRID:
        inst = gen_sensitivity(delta, d)
        oracle_pair = expected_sensitivity_pair(delta, d)
        sols = enumerate_integral_optima(inst.lp)
        sols_alt = enumerate_integral_optima(
            StandardLp(inst.lp.a, inst.alt_rhs, inst.lp.c)
        )
        measured = measure_sensitivity(inst)
        cells[(delta, d)] = (inst, oracle_pair, sols, sols_alt, measured)
    return time.perf_counter() - t0, cells


def test_criterion_1_sensitivity_exactness(sensitivity_grid):
    elapsed, cells = sensitivity_grid
    for (delta, d), (inst, (x, x_alt), sols, sols_alt, rep) in cells.items():
        assert sols == (tuple(int(v) for v in x),)
        assert sols_alt == (tuple(int(v) for v in x_alt),)
        assert rep.measured[NORM_LINF] == delta ** (d - 1)
        assert rep.measured[NORM_L1] == sum(delta**j for j in range(d))
    assert elapsed < 60
    report(
        f"[criterion 1] PASS sensitivity exactness on {len(cells)} instances "
        f"(singleton optima = forward substitution; linf = delta**(d-1), "
        f"l1 = sum delta**j) in {elapsed:.1f}s < 60s"
    )


def test_criterion_2_upper_bound_sandwich(sensitivity_grid):
    _, cells = sensitivity_grid
    for (delta, d), (inst, _, _, _, rep) in cells.items():
        assert not rep.cook_via_hadamard  # subdeterminants by full enumeration
        assert rep.measured[NORM_LINF] <= rep.cook_upper
        assert rep.measured[NORM_L1] <= rep.cook_upper
        gap = max(abs(u - v) for u, v in zip(inst.lp.b, inst.alt_rhs))
        assert rep.cook_upper == (gap + 2) * inst.lp.n * rep.subdet
    report(
        f"[criterion 2] PASS measured sensitivity <= (||b-b'||_inf+2)*n*subdet "
        f"on all {len(cells)} instances, zero violations"
    )


def test_criterion_3_matching_structure():
    t0 = time.perf_counter()
    ms = build_matching_system()
    inc = ms.incidence
    assert len(ms.matchings) == 6
    assert all(sum(row) == 2 for row in inc.rows)
    assert all(sum(inc.col(j)) == 5 for j in range(6))
    for i in range(6):
        for j in range(i + 1, 6):
            assert sum(a * b for a, b in zip(inc.col(i), inc.col(j))) == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1
    report(
        f"[criterion 3] PASS matching structure (6 matchings, row sums 2, "
        f"column sums 5, pairwise overlap 1) in {elapsed:.2f}s < 1s"
    )


def test_criterion_4_proximity_lower_bound():
    t0 = time.perf_counter()
    frozen_l1 = {2: F(73), 3: F(133)}  # values pinned by the enumeration oracle
    for delta in (2, 3):
        inst = gen_proximity(delta, 3)
        z = FAMILIES[FAMILY_PROXIMITY].certificate(delta, 3)
        assert is_feasible_point(inst.lp, z)
        assert inst.lp.a.mul_vec(z) == tuple(inst.lp.b)
        sols = enumerate_integral_optima(inst.lp)
        assert len(sols) == 7
        oracle_l1 = min(
            sum(abs(a - b) for a, b in zip(z, vec(sol))) for sol in sols
        )
        rep = measure_proximity_lb(inst)
        assert rep.measured[NORM_L1] == oracle_l1 == frozen_l1[delta]
        p, _ = p_q_constants(delta, 3)
        assert p == delta
        assert rep.measured[NORM_L1] >= 13 * delta * p
        for sol in sols:
            norm_floor(inst, sol)  # raises on a violated floor
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(
        f"[criterion 4] PASS proximity lower bound (7 optima, l1 = 73 >= 52 at "
        f"delta 2 and 133 >= 117 at delta 3, norm floor on all optima) in "
        f"{elapsed:.1f}s < 120s"
    )


def test_criterion_5_hull_equals_columns():
    t0 = time.perf_counter()
    cross_checked = 0
    for delta in (1, 2, 3, 4):
        for d in (2, 4, 6):
            cols = gen_sensitivity(delta, d).lp.a.cols()
            rep = integer_points_in_hull(cols)
            assert rep.verdict == VERDICT_POLYTOPISH
            column_points = {tuple(int(v) for v in c) for c in cols}
            assert set(rep.hull_integer_points) == column_points
            box = math.prod(
                int(max(c[i] for c in cols)) - int(min(c[i] for c in cols)) + 1
                for i in range(d)
            )
            if box <= 10**6:
                assert rep.hull_integer_points == hull_box_oracle(cols)
                cross_checked += 1
    inst = gen_proximity(2, 3)
    rep = integer_points_in_hull(inst.lp.a.cols())
    assert rep.verdict == VERDICT_POLYTOPISH
    assert set(rep.hull_integer_points) == {
        tuple(int(v) for v in c) for c in inst.lp.a.cols()
    }
    elapsed = time.perf_counter() - t0
    report(
        f"[criterion 5] PASS integer hull = columns on 12 staircase instances "
        f"({cross_checked} cross-checked against box brute force) and the "
        f"45-dimensional block system, in {elapsed:.1f}s"
    )


def test_criterion_6_bin_packing_embeddings():
    t0 = time.perf_counter()

    # sensitivity embedding, delta=2, d=4
    packed = gen_binpack_sensitivity(2, 4)
    general = gen_sensitivity(2, 4)
    for idx in packed.c1_indices:
        load = sum(k * s for k, s in zip(packed.lp.a.col(idx), packed.sizes))
        assert load <= 1
    for j in range(4):  # restriction reproduces the general matrix
        assert packed.lp.a.col(j) == general.lp.a.col(j)
    optima = enumerate_integral_optima(packed.lp)
    assert optima and all(dot(packed.lp.c, vec(x)) == 0 for x in optima)
    rep_packed = measure_sensitivity(packed)
    rep_general = measure_sensitivity(general)
    assert rep_packed.measured == rep_general.measured

    # proximity embedding, delta=2, d=3
    packedp = gen_binpack_proximity(2, 3)
    generalp = gen_proximity(2, 3)
    for k in packedp.lp.a.cols():
        assert sum(ki * s for ki, s in zip(k, packedp.sizes)) <= 1
    for j, k in enumerate(packedp.lp.a.cols()):
        assert k == generalp.lp.a.col(j)
    # the zero-cost columns alone reach objective 0, and every other
    # configuration costs 1, so 0 is the optimum of the full system too
    optima_p = enumerate_integral_optima(packedp.lp)
    assert optima_p and all(dot(packedp.lp.c, vec(x)) == 0 for x in optima_p)
    rep_packedp = measure_proximity_lb(packedp)
    rep_generalp = measure_proximity_lb(generalp)
    assert rep_packedp.measured == rep_generalp.measured

    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(
        f"[criterion 6] PASS bin-packing embeddings (columns fit exactly, "
        f"optimum 0, restriction = general matrices, measured values "
        f"identical) in {elapsed:.1f}s < 120s"
    )


def test_criterion_7_fuzzed_upper_bounds():
    t0 = time.perf_counter()
    result = fuzz_cook(seed=7, trials=200)
    elapsed = time.perf_counter() - t0
    assert result.trials == 200
    assert result.violations == ()
    assert elapsed < 120
    report(
        f"[criterion 7] PASS fuzzed upper bounds: 200 instances, "
        f"{result.checks} checks, 0 violations in {elapsed:.1f}s < 120s"
    )


def test_criterion_8_oracle_equivalence():
    rng = random.Random(1234)
    ilp_checked = 0
    hull_checked = 0
    for _ in range(100):
        lp, _ = random_feasible_ilp(rng, max_dim=3, max_cols=4, max_entry=3)
        assert enumerate_integral_optima(lp) == brute_force_optima(lp, oracle_box(lp))
        ilp_checked += 1

        dim = rng.randint(1, 3)
        ncols = rng.randint(1, 4)
        cols = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(ncols)]
        rep = integer_points_in_hull(cols)
        assert rep.hull_integer_points == hull_box_oracle(cols)
        hull_checked += 1
    report(
        f"[criterion 8] PASS oracle equivalence: {ilp_checked} enumerations vs "
        f"box brute force and {hull_checked} hull walks vs box+membership, "
        f"zero discrepancies"
    )
