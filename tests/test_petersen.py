from fractions import Fraction as F

import pytest

from ilplab.petersen import Graph, build_matching_system, enumerate_perfect_matchings, petersen_graph


class TestGraph:
    def test_counts(self):
        g = petersen_graph()
        assert g.vertex_count == 10
        assert len(g.edges) == 15

    def test_three_regular(self):
        g = petersen_graph()
        degrees = [sum(v in e for e in g.edges) for v in range(10)]
        assert degrees == [3] * 10

    def test_edge_ordering_is_cycle_spokes_pentagram(self):
        g = petersen_graph()
        assert g.edges[:5] == ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
        assert g.edges[5:10] == ((0, 5), (1, 6), (2, 7), (3, 8), (4, 9))
        assert g.edges[10:] == ((5, 7), (6, 8), (7, 9), (5, 8), (6, 9))

    def test_validation(self):
        with pytest.raises(ValueError):
            Graph(3, ((0, 0),))
        with pytest.raises(ValueError):
            Graph(3, ((0, 1), (1, 0)))


class TestMatchingEnumeration:
    def test_petersen_has_six(self):
        assert len(enumerate_perfect_matchings(petersen_graph())) == 6

    def test_four_cycle(self):
        c4 = Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
        assert enumerate_perfect_matchings(c4) == [(0, 2), (1, 3)]

    def test_triangle_odd_vertex_count(self):
        tri = Graph(3, ((0, 1), (1, 2), (0, 2)))
        assert enumerate_perfect_matchings(tri) == []

    def test_matchings_are_vertex_disjoint(self):
        g = petersen_graph()
        for m in enumerate_perfect_matchings(g):
            touched = [v for e in m for v in g.edges[e]]
            assert sorted(touched) == list(range(10))


class TestMatchingSystem:
    def test_row_sums_two(self):
        inc = build_matching_system().incidence
        assert all(sum(row) == 2 for row in inc.rows)

    def test_column_sums_five(self):
        inc = build_matching_system().incidence
        assert all(sum(inc.col(j)) == 5 for j in range(6))

    def test_pairwise_overlap_one(self):
        inc = build_matching_system().incidence
        for i in range(6):
            for j in range(i + 1, 6):
                assert sum(a * b for a, b in zip(inc.col(i), inc.col(j))) == 1

    def test_half_vector_covers_every_edge_once(self):
        inc = build_matching_system().incidence
        halves = tuple(F(1, 2) for _ in range(6))
        assert inc.mul_vec(halves) == tuple(F(1) for _ in range(15))

    def test_two_columns_share_exactly_one_double_entry(self):
        inc = build_matching_system().incidence
        for i in range(6):
            for j in range(i + 1, 6):
                sums = [inc.rows[e][i] + inc.rows[e][j] for e in range(15)]
                assert sums.count(2) == 1

    def test_bit_reproducible(self):
        assert build_matching_system() == build_matching_system()
