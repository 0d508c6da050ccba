import collections
import functools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilplab import hull as hull_module
from ilplab import lp as lp_module
from ilplab.hull import (
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_POLYTOPISH,
    VERDICT_POLYTOPISH,
    hull_membership,
    integer_points_in_hull,
)
from ilplab.instances import gen_proximity, gen_sensitivity

from oracles import caratheodory_membership, hull_box_oracle as box_oracle, shallow_stack


class TestMembership:
    def test_column_is_member_with_unit_weights(self):
        ok, lam = hull_membership([(1, 2), (0, 1)], (1, 2))
        assert ok and lam == (1, 0)

    def test_midpoint_is_member(self):
        ok, lam = hull_membership([(2, 4), (0, 2)], (1, 3))
        assert ok and lam == (F(1, 2), F(1, 2))

    def test_off_segment_point_is_not(self):
        ok, lam = hull_membership([(1, 2), (0, 1)], (1, 1))
        assert not ok and lam is None

    def test_certificate_reconstructs_point(self):
        cols = [(0, 0, 3), (6, 3, 0), (3, 9, 6)]
        point = (3, 4, 3)
        ok, lam = hull_membership(cols, point)
        assert ok
        assert sum(lam) == 1
        for i in range(3):
            assert sum(l * c[i] for l, c in zip(lam, cols)) == point[i]

    def test_rational_point_refused(self):
        # the membership LP's right-hand side is the point, and LP data is integral
        with pytest.raises(ValueError, match="'point' holds 1/2"):
            hull_membership([(1, 2), (0, 1)], (F(1, 2), F(3, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hull_membership([(1, 2)], (1, 2, 3))

    def test_matches_caratheodory_oracle(self):
        rng = random.Random(13)
        for _ in range(40):
            dim = rng.randint(1, 3)
            ncols = rng.randint(1, 4)
            cols = [tuple(rng.randint(-2, 3) for _ in range(dim)) for _ in range(ncols)]
            point = tuple(rng.randint(-2, 3) for _ in range(dim))
            assert hull_membership(cols, point)[0] == caratheodory_membership(cols, point)


class TestIntegerPoints:
    def test_two_column_segment(self):
        report = integer_points_in_hull([(1, 2), (0, 1)])
        assert report.verdict == VERDICT_POLYTOPISH
        assert report.hull_integer_points == ((0, 1), (1, 2))
        assert report.hull_integer_points == box_oracle([(1, 2), (0, 1)])

    def test_extra_interior_point_detected(self):
        cols = [(0, 0), (2, 0), (0, 2)]
        report = integer_points_in_hull(cols)
        assert report.verdict == VERDICT_NOT_POLYTOPISH
        assert (1, 1) in report.extra_points and (1, 0) in report.extra_points
        # each extra point carries convex weights reconstructing it
        for point, lam in zip(report.extra_points, report.extra_certificates):
            assert sum(lam) == 1 and all(w >= 0 for w in lam)
            for i in range(2):
                assert sum(w * c[i] for w, c in zip(lam, cols)) == point[i]

    def test_negative_coordinates_supported(self):
        cols = [(-2, 0), (0, -3)]
        report = integer_points_in_hull(cols)
        assert report.hull_integer_points == box_oracle(cols)
        assert set(cols) <= set(report.hull_integer_points)

    @pytest.mark.parametrize("delta", [1, 2, 3])
    @pytest.mark.parametrize("d", [2, 4])
    def test_staircase_columns_are_their_own_integer_hull(self, delta, d):
        inst = gen_sensitivity(delta, d)
        report = integer_points_in_hull(inst.lp.a.cols())
        assert report.verdict == VERDICT_POLYTOPISH

    def test_block_system_single_block(self):
        inst = gen_proximity(2, 1)
        report = integer_points_in_hull(inst.lp.a.cols())
        assert report.verdict == VERDICT_POLYTOPISH
        assert len(report.hull_integer_points) == 21

    def test_budget_gives_inconclusive_partial(self):
        inst = gen_sensitivity(2, 4)
        report = integer_points_in_hull(inst.lp.a.cols(), lp_budget=4)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.budget_exhausted

    def test_every_reported_point_is_a_member(self):
        rng = random.Random(99)
        for _ in range(20):
            dim = rng.randint(1, 3)
            ncols = rng.randint(1, 4)
            cols = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(ncols)]
            report = integer_points_in_hull(cols)
            assert report.verdict in (VERDICT_POLYTOPISH, VERDICT_NOT_POLYTOPISH)
            for p in report.hull_integer_points:
                assert hull_membership(cols, p)[0]
            assert set(cols) <= set(report.hull_integer_points)
            assert report.hull_integer_points == box_oracle(cols)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda dim: st.lists(
                st.tuples(*[st.integers(-2, 3)] * dim), min_size=1, max_size=4
            )
        )
    )
    def test_matches_box_oracle_property(self, cols):
        assert integer_points_in_hull(cols).hull_integer_points == box_oracle(cols)

    def test_high_dimensions_do_not_recurse(self):
        # 0 and e_0 in Z^150: each of the two points is a path 150 coordinates deep
        dim = 150
        cols = [(0,) * dim, (1,) + (0,) * (dim - 1)]
        with shallow_stack():
            report = integer_points_in_hull(cols)
        assert report.verdict == VERDICT_POLYTOPISH
        assert report.hull_integer_points == tuple(sorted(cols))
        assert report.lp_calls == 2 + 2 * 2 * (dim - 1)

    def test_json_report(self):
        doc = integer_points_in_hull([(0, 1), (1, 2)]).to_json()
        assert doc["verdict"] == VERDICT_POLYTOPISH
        assert doc["extra_points"] == []

    def test_fractional_columns_rejected(self):
        with pytest.raises(ValueError):
            integer_points_in_hull([(F(1, 2), 0)])


def count_calls(monkeypatch, fn) -> list:
    """Wrap every binding of ``fn`` in the loaded ilplab modules; one entry per call."""
    calls = []

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "ilplab" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def count_solution_builds(monkeypatch) -> list:
    """Spy on ``LpResult.solution``; one entry each time an ``lp_solve`` result builds its vector."""
    builds = []
    solution = lp_module.LpResult.solution

    def spied(result):
        if result._optimum is not None:
            builds.append(None)
        return solution.fget(result)

    monkeypatch.setattr(lp_module.LpResult, "solution", property(spied))
    return builds


class TestCallGraph:
    def test_each_depth_is_one_coord_range_and_two_lp_solves(self, monkeypatch):
        # the benchmark's traced run checks exactly these identities on this
        # instance; each depth must stay one public coord_range call and two
        # public lp_solve calls, whatever work they share underneath
        solves = count_calls(monkeypatch, lp_module.lp_solve)
        ranges = count_calls(monkeypatch, lp_module.coord_range)
        report = integer_points_in_hull(gen_proximity(2, 3).lp.a.cols())
        assert report.verdict == VERDICT_POLYTOPISH
        assert len(report.hull_integer_points) == 51
        assert report.lp_calls == len(solves) == 2 * len(ranges) > 0

    def test_each_depth_grows_the_preparation_of_the_depth_above(self, monkeypatch):
        # a depth's system is its parent depth's with one row appended, so
        # only the 51 starts after a sibling's subtree grow the empty
        # preparation (a cold presolve); the other 1,226 depths grow the
        # preparation the depth above left.  Most append a row that holds
        # only weights the depth above fixed: that row is settled by
        # substitution, with no presolve or phase 1, and the rest are
        # presolved once from the depth above
        reduced = count_calls(monkeypatch, lp_module._reduce)
        grow, growths = lp_module._grow, collections.Counter()

        def grown(head, *args, **kwargs):
            before = len(reduced)
            prep = grow(head, *args, **kwargs)
            growths[not head.fixed and not head.live, len(reduced) - before] += 1
            return prep

        monkeypatch.setattr(lp_module, "_grow", grown)
        monkeypatch.setattr(lp_module, "_last_prepared", None)
        report = integer_points_in_hull(gen_proximity(2, 3).lp.a.cols())
        # (from the empty preparation, presolves run): growths
        assert growths == {(True, 1): 51, (False, 0): 1176, (False, 1): 50}
        assert report.lp_calls == 2554

    def test_walk_builds_no_matrix_pattern(self, monkeypatch):
        # every depth is prepared from its matrix's dense rows, the appended
        # ones alone when it grows the depth above, so no depth matrix holds
        # its (column, entry) pairs, which the walk would keep once per depth
        matrices = []
        coord_range = hull_module.coord_range

        def spied(a, *args):
            matrices.append(a)
            return coord_range(a, *args)

        monkeypatch.setattr(hull_module, "coord_range", spied)
        monkeypatch.setattr(lp_module, "_last_prepared", None)
        report = integer_points_in_hull(gen_proximity(2, 3).lp.a.cols())
        assert report.lp_calls == 2 * len(matrices) == 2554
        assert len({id(a) for a in matrices}) == 45
        assert [a for a in matrices if "sparse_rows" in vars(a)] == []

    def test_polytopish_walk_builds_no_solution(self, monkeypatch):
        # coord_range reads only objectives, so no Fraction vector is built
        builds = count_solution_builds(monkeypatch)
        report = integer_points_in_hull(gen_proximity(2, 3).lp.a.cols())
        assert report.verdict == VERDICT_POLYTOPISH
        assert builds == []

    def test_each_extra_point_builds_one_solution(self, monkeypatch):
        # the triangle (2,0), (0,2), (0,0) holds (0,1), (1,0) and (1,1) too;
        # each certificate is the solution of one membership LP
        builds = count_solution_builds(monkeypatch)
        report = integer_points_in_hull([(2, 0), (0, 2), (0, 0)])
        assert report.verdict == VERDICT_NOT_POLYTOPISH
        assert report.extra_points == ((0, 1), (1, 0), (1, 1))
        assert report.extra_certificates == ((0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 2), F(1, 2), 0))
        assert len(builds) == 3
