import ast
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ilplab.measures
from ilplab.errors import BudgetExceededError, ClaimFalsifiedError
from ilplab.exactla import Matrix, SubdetResult, max_subdet_all, vec
from ilplab.ilp import enumerate_integral_optima
from ilplab.instances import (
    FAMILY_CUSTOM,
    FAMILIES,
    FAMILY_PROXIMITY,
    IlpInstance,
    expected_sensitivity_pair,
    gen_binpack_sensitivity,
    gen_proximity,
    gen_sensitivity,
)
from ilplab.lp import StandardLp, is_feasible_point
from ilplab.measures import (
    CSV_HEADER,
    NORM_L1,
    NORM_LINF,
    norm_floor,
    cook_bounds,
    dist_set_set,
    fuzz_cook,
    measure_proximity_lb,
    measure_sensitivity,
    vec_dist,
)


class TestDistances:
    # a point's distance to a set is dist_set_set from the one-point set,
    # as measure_proximity_lb measures its certificate

    def test_member_distance_zero(self):
        d, w = dist_set_set([(1, 2)], [(0, 0), (1, 2)], NORM_LINF)
        assert d == 0 and w == ((1, 2), (1, 2))

    def test_point_set_example(self):
        d, w = dist_set_set([(0, 0)], [(1, 0), (3, 3)], NORM_LINF)
        assert d == 1 and w == ((0, 0), (1, 0))

    def test_set_set_examples(self):
        d, _ = dist_set_set([(0, 0)], [(1, 0), (0, 2)], NORM_L1)
        assert d == 1
        same = [(1, 2), (3, 4)]
        assert dist_set_set(same, same, NORM_LINF)[0] == 0

    def test_set_set_is_asymmetric_max_min(self):
        xs = [(0,), (10,)]
        ys = [(0,)]
        assert dist_set_set(xs, ys, NORM_LINF)[0] == 10
        assert dist_set_set(ys, xs, NORM_LINF)[0] == 0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            dist_set_set([(0,)], [], NORM_L1)

    def test_equal_sets_take_linear_work(self, monkeypatch):
        # each point is measured against its first equal y alone: a full scan
        # of the 300 ys for each of the 300 points would be 90,000 distances
        calls = [0]
        dist = ilplab.measures.vec_dist

        def counted(*args):
            calls[0] += 1
            return dist(*args)

        monkeypatch.setattr(ilplab.measures, "vec_dist", counted)
        units = [tuple(int(i == j) for j in range(300)) for i in range(300)]
        assert dist_set_set(units, units, NORM_L1) == (0, (units[0], units[0]))
        assert calls[0] <= 600

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 3), st.sampled_from([NORM_L1, NORM_LINF]))
    def test_set_set_matches_full_scan(self, data, n, norm):
        # the max over xs of the first nearest y, the first x to reach it kept
        points = st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=6)
        xs, ys = data.draw(points), data.draw(points)
        best = pair = None
        for x in xs:
            dists = [vec_dist(x, y, norm) for y in ys]
            d = min(dists)
            if best is None or d > best:
                best, pair = d, (x, ys[dists.index(d)])
        assert dist_set_set(xs, ys, norm) == (best, pair)

    def test_max_consistency(self):
        xs = [(0, 0), (2, 2), (5, 1)]
        ys = [(1, 1), (4, 4)]
        dmax, _ = dist_set_set(xs, ys, NORM_L1)
        for x in xs:
            assert min(vec_dist(x, y, NORM_L1) for y in ys) <= dmax

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    )
    def test_norm_sandwich(self, xs, ys):
        n = min(len(xs), len(ys))
        x, y = xs[:n], ys[:n]
        linf = vec_dist(x, y, NORM_LINF)
        l1 = vec_dist(x, y, NORM_L1)
        assert linf <= l1 <= n * linf


class TestSensitivityMeasurement:
    def test_staircase_2_4(self):
        rep = measure_sensitivity(gen_sensitivity(2, 4))
        assert rep.measured[NORM_LINF] == 8
        assert rep.measured[NORM_L1] == 15
        assert rep.reference_lower[NORM_LINF] == 8
        assert rep.subdet == 8 and rep.cook_upper == 96
        assert not rep.cook_via_hadamard
        assert rep.solution_counts == {"b": 1, "b_prime": 1}

    @pytest.mark.parametrize("delta, d", [(2, 4), (3, 6)])
    def test_b_and_b_prime_keep_their_own_optima(self, delta, d, monkeypatch):
        # both enumerations prepare one matrix object, so the preparation
        # remembered for b must not be reused for b'
        inst = gen_sensitivity(delta, d)
        systems = []
        enumerate_ = ilplab.measures.enumerate_integral_optima
        monkeypatch.setattr(
            ilplab.measures, "enumerate_integral_optima", lambda lp, **kw: systems.append(lp) or enumerate_(lp, **kw)
        )
        rep = measure_sensitivity(inst)
        assert [lp.b for lp in systems] == [inst.lp.b, inst.alt_rhs]
        assert all(lp.a is inst.lp.a for lp in systems)
        assert rep.witness[NORM_LINF] == expected_sensitivity_pair(delta, d)
        assert rep.solution_counts == {"b": 1, "b_prime": 1}

    def test_staircase_3_12_subdet_is_exact(self):
        rep = measure_sensitivity(gen_sensitivity(3, 12))
        assert rep.subdet == 177147 == 3**11
        assert not rep.cook_via_hadamard

    def test_delta_one(self):
        rep = measure_sensitivity(gen_sensitivity(1, 2))
        assert rep.measured[NORM_LINF] == 1

    def test_l1_value(self):
        rep = measure_sensitivity(gen_sensitivity(3, 4))
        assert rep.measured[NORM_L1] == 1 + 3 + 9 + 27

    def test_identical_rhs_measures_zero(self):
        base = gen_sensitivity(2, 2)
        inst = IlpInstance(base.lp, FAMILY_CUSTOM, 2, 2, alt_rhs=base.lp.b)
        rep = measure_sensitivity(inst)
        assert rep.measured[NORM_LINF] == 0
        assert rep.cook_upper == 2 * 2 * 2  # gap 0 -> (0+2)*n*subdet

    def test_requires_alternate_rhs(self):
        with pytest.raises(ValueError):
            measure_sensitivity(gen_proximity(2, 1))

    def test_csv_row_shape(self):
        rep = measure_sensitivity(gen_sensitivity(2, 2))
        row = rep.csv_row(NORM_LINF)
        cells = row.split(",")
        assert len(cells) == len(CSV_HEADER.split(","))
        assert cells[0] == "sensitivity" and cells[4] == "2" and cells[-1] == "ok"


class TestProximityMeasurement:
    def test_block_2_3(self):
        rep = measure_proximity_lb(gen_proximity(2, 3))
        # nearest optimum is a one-matching solution; value fixed by the
        # enumeration oracle in the acceptance suite
        assert rep.measured[NORM_L1] == 73
        assert rep.measured[NORM_LINF] == 4
        assert rep.reference_lower[NORM_L1] == 52
        assert rep.measured[NORM_L1] >= rep.reference_lower[NORM_L1]
        assert rep.cook_via_hadamard  # 45x51 subdeterminant enumeration is over budget
        assert rep.solution_counts == {"integral_optima": 7}

    def test_single_block(self):
        rep = measure_proximity_lb(gen_proximity(2, 1))
        assert rep.measured[NORM_LINF] == 1
        assert rep.measured[NORM_L1] == 13
        assert rep.reference_lower[NORM_L1] == 0  # odd tail sum is empty at d=1

    def test_rejects_infeasible_certificate(self):
        inst = gen_proximity(2, 1)
        with pytest.raises(ValueError, match="not a feasible point"):
            measure_proximity_lb(inst, z=[1] * inst.lp.n)

    def test_rejects_suboptimal_certificate(self):
        # feasible but with positive cost under a non-zero objective
        lp = StandardLp(Matrix([[1, 1]]), vec([2]), vec([0, 1]))
        inst = IlpInstance(lp, FAMILY_CUSTOM, 1, 1)
        with pytest.raises(ValueError, match="differs from the LP optimum"):
            measure_proximity_lb(inst, z=[0, 2])

    def test_explicit_certificate_on_custom_instance(self):
        lp = StandardLp(Matrix([[1, 1]]), vec([2]), vec([0, 1]))
        inst = IlpInstance(lp, FAMILY_CUSTOM, 1, 1)
        rep = measure_proximity_lb(inst, z=[2, 0])
        assert rep.measured[NORM_LINF] == 0  # (2,0) is itself the integral optimum

    def test_json_report_is_serializable(self):
        import json

        rep = measure_proximity_lb(gen_proximity(2, 1))
        text = json.dumps(rep.to_json(), sort_keys=True)
        assert '"measured"' in text


class TestNormFloor:
    def test_no_matching_optimum(self):
        inst = gen_proximity(2, 3)
        sols = enumerate_integral_optima(inst.lp)
        no_matching = next(s for s in sols if sum(s[:6]) == 0)
        assert norm_floor(inst, no_matching) == 60
        assert sum(no_matching) == 75

    def test_one_matching_optimum(self):
        inst = gen_proximity(2, 3)
        sols = enumerate_integral_optima(inst.lp)
        one = next(s for s in sols if sum(s[:6]) == 1)
        # coverage ||a||_1 = 5: floor = 1 + 10*delta*p + 5*p
        assert norm_floor(inst, one) == 1 + 10 * 2 * 2 + 5 * 2
        assert sum(one) == 61

    def test_coverage_form_needed_at_delta_three(self):
        # the y-based floor 1 + 14*delta*p + p would claim 130 here, above
        # the actual norm 116; the coverage-based floor stays below it
        inst = gen_proximity(3, 3)
        sols = enumerate_integral_optima(inst.lp)
        one = next(s for s in sols if sum(s[:6]) == 1)
        assert sum(one) == 116
        assert 1 + 14 * 3 * 3 + 3 > sum(one)
        assert norm_floor(inst, one) == 1 + 10 * 3 * 3 + 5 * 3

    def test_d1_floor_reduces_to_matching_mass(self):
        inst = gen_proximity(2, 1)
        sols = enumerate_integral_optima(inst.lp)
        for sol in sols:
            assert norm_floor(inst, sol) == sum(sol[:6])

    def test_certificate_satisfies_floor(self):
        inst = gen_proximity(2, 3)
        z = FAMILIES[FAMILY_PROXIMITY].certificate(2, 3)
        assert is_feasible_point(inst.lp, z)
        # full coverage (a = ones): floor = 3 + 15*p = ||z||_1 exactly
        assert norm_floor(inst, z) == 3 + 15 * 2 == sum(z)

    @pytest.mark.parametrize("delta", [2, 3])
    def test_floor_never_above_the_norm(self, delta):
        inst = gen_proximity(delta, 3)
        for sol in enumerate_integral_optima(inst.lp):
            assert norm_floor(inst, sol) <= sum(sol)

    def test_infeasible_point_rejected(self):
        inst = gen_proximity(2, 1)
        with pytest.raises(ValueError):
            norm_floor(inst, [0] * inst.lp.n)

    @pytest.mark.parametrize("relabel", [{"delta": 3}, {"d": 5}])
    def test_mislabelled_instance_rejected(self, relabel):
        inst = gen_proximity(2, 3)
        for sol in enumerate_integral_optima(inst.lp):
            with pytest.raises(ValueError, match="do not describe the proximity family"):
                norm_floor(replace(inst, **relabel), sol)


class TestCookBounds:
    def test_staircase_values(self):
        inst = gen_sensitivity(2, 4)
        cb = cook_bounds(inst.lp, inst.alt_rhs)
        assert cb.subdet == 8
        assert cb.prox_upper == 32
        assert cb.sens_upper == 96
        assert not cb.via_hadamard

    def test_hadamard_fallback_flagged(self):
        cb = cook_bounds(gen_proximity(2, 3).lp, subdet_budget=100)
        assert cb.subdet is None and cb.via_hadamard
        assert cb.prox_upper == 51 * cb.hadamard

    def test_subdet_search_refuses_over_budget(self):
        # the refusal that ``test_hadamard_fallback_flagged`` sees as the fallback
        with pytest.raises(BudgetExceededError):
            max_subdet_all(gen_proximity(2, 3).lp.a, budget=100)

    def test_alternate_rhs_of_wrong_length_refused(self):
        with pytest.raises(ValueError):
            cook_bounds(gen_sensitivity(2, 4).lp, vec([0]))

    def test_rational_alternate_rhs_refused(self):
        # the sensitivity bound holds for integral b' only; an integral Fraction is read as its int
        lp = gen_sensitivity(2, 4).lp
        assert cook_bounds(lp, vec([0, 2, 4, 8])).sens_upper == 96
        with pytest.raises(ValueError, match="'b_prime' holds 1/2"):
            cook_bounds(lp, (F(1, 2), 2, 4, 8))

    def test_measured_below_bound_on_small_grid(self):
        for delta in (1, 2, 3):
            for d in (2, 4):
                rep = measure_sensitivity(gen_sensitivity(delta, d))
                assert rep.measured[NORM_LINF] <= rep.cook_upper
                assert rep.measured[NORM_L1] <= rep.cook_upper


class TestFuzz:
    def test_no_violations(self):
        report = fuzz_cook(seed=7, trials=40)
        assert report.trials == 40
        assert report.ok
        assert report.checks == 120

    def test_deterministic(self):
        assert fuzz_cook(seed=3, trials=10) == fuzz_cook(seed=3, trials=10)

    def test_family_instance_inside_limits(self):
        rep = measure_sensitivity(gen_sensitivity(2, 2))
        assert rep.measured[NORM_LINF] == 2
        assert rep.cook_upper == 12  # (1+2) * 2 * 2

    def test_binpack_system_measures_like_general(self):
        general = measure_sensitivity(gen_sensitivity(2, 2))
        packed = measure_sensitivity(gen_binpack_sensitivity(2, 2))
        assert packed.measured == general.measured


class TestFalsification:
    """A measured value above Cook et al.'s bound is reported with its witness.

    The bounds hold on every input, so the check is reached by replacing the
    subdeterminant with 0, which makes every bound 0.
    """

    @pytest.fixture(autouse=True)
    def zero_subdet(self, monkeypatch):
        monkeypatch.setattr(
            ilplab.measures,
            "max_subdet_all",
            lambda *args, **kwargs: SubdetResult(F(0), (0,), (0,)),
        )

    def test_sensitivity(self):
        with pytest.raises(ClaimFalsifiedError) as err:
            measure_sensitivity(gen_sensitivity(2, 4))
        assert str(err.value) == "measured sensitivity 8 exceeds the upper bound 0"
        assert err.value.witness == ((1, 0, 4, 0), (0, 2, 0, 8))

    def test_proximity(self):
        with pytest.raises(ClaimFalsifiedError) as err:
            measure_proximity_lb(gen_proximity(2, 3))
        assert str(err.value) == "measured proximity 4 exceeds the upper bound 0"
        nearest = (0,) * 6 + (1,) * 15 + (0,) * 15 + (4,) * 15
        z = FAMILIES[FAMILY_PROXIMITY].certificate(2, 3)
        assert is_feasible_point(gen_proximity(2, 3).lp, z)
        assert err.value.witness == (vec(z), nearest)

    def test_fuzz(self):
        report = fuzz_cook(seed=3, trials=2)
        first = {"matrix": [["1", "1", "3", "3"], ["3", "1", "1", "1"]], "b": ["9", "9"],
                 "c": ["-1", "1", "-1", "1"], "distance": "1", "bound": "0"}
        second = {"matrix": [["3", "3", "3", "1", "2"], ["0", "0", "1", "3", "1"]],
                  "b": ["16", "8"], "c": ["2", "0", "1", "-1", "1"], "distance": "13/9", "bound": "0"}
        assert (report.trials, report.skipped, report.checks) == (2, 0, 6)
        assert report.violations == (
            {"kind": "proximity", **first},
            {"kind": "sensitivity_forward", **first, "b_prime": ["8", "8"]},
            {"kind": "sensitivity_backward", **first, "b_prime": ["8", "8"]},
            {"kind": "proximity", **second},
        )


def test_cook_bounds_is_the_only_bound_site():
    """Only ``cook_bounds`` computes a subdeterminant or a Hadamard bound in ``measures``."""
    path = Path(ilplab.measures.__file__)
    callers = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("max_subdet_all", "hadamard_bound")
            ):
                callers.add(getattr(top, "name", "<module>"))
    assert callers == {"cook_bounds"}


def test_bounds_and_rank_test_read_no_dense_rows():
    """``cook_bounds`` and ``fuzz_cook`` read a matrix through its integer pattern, never ``.rows``."""
    tree = ast.parse(Path(ilplab.measures.__file__).read_text(encoding="utf-8"))
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    readers = {
        name
        for name in ("cook_bounds", "fuzz_cook")
        for node in ast.walk(functions[name])
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    }
    assert not readers
