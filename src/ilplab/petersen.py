"""Canonical Petersen graph and its perfect-matching incidence structure.

The labelling is fixed so the 15x6 edge/matching incidence matrix is
bit-reproducible: outer 5-cycle on vertices 0..4, inner pentagram on 5..9
(vertex 5+k adjacent to 5+((k+2) mod 5)), spokes k ~ 5+k.  Edge order is the
five outer-cycle edges, then the five spokes, then the five pentagram edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import Matrix

Matching = tuple[int, ...]  # sorted edge indices


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u},{v}) out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)


def petersen_graph() -> Graph:
    outer = [(k, (k + 1) % 5) for k in range(5)]
    spokes = [(k, 5 + k) for k in range(5)]
    inner = [(5 + k, 5 + (k + 2) % 5) for k in range(5)]
    edges = [(min(u, v), max(u, v)) for u, v in outer + spokes + inner]
    return Graph(10, tuple(edges))


def enumerate_perfect_matchings(g: Graph) -> list[Matching]:
    """All perfect matchings, ordered lexicographically by sorted edge-index sets.

    Backtracking on the lowest uncovered vertex; the graph sizes here are
    tiny, so no pruning beyond vertex cover is needed.  An odd vertex count
    yields the empty list.
    """
    if g.vertex_count % 2 != 0:
        return []
    incident: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for idx, (u, v) in enumerate(g.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    found: list[Matching] = []
    covered = [False] * g.vertex_count
    chosen: list[int] = []

    def extend():
        try:
            v = covered.index(False)
        except ValueError:
            found.append(tuple(sorted(chosen)))
            return
        for idx in incident[v]:
            a, b = g.edges[idx]
            other = b if a == v else a
            if covered[other]:
                continue
            covered[v] = covered[other] = True
            chosen.append(idx)
            extend()
            chosen.pop()
            covered[v] = covered[other] = False

    extend()
    return sorted(found)


@dataclass(frozen=True)
class MatchingSystem:
    """Petersen graph, its six perfect matchings, and the 15x6 incidence matrix."""

    graph: Graph
    matchings: tuple[Matching, ...]
    incidence: Matrix


def build_matching_system() -> MatchingSystem:
    """Construct the matching system and verify its structure on the spot.

    Verified at construction: six matchings of five edges each, every edge in
    exactly two matchings, every pair of matchings sharing exactly one edge.
    A failure here means the canonical construction itself is broken.
    """
    g = petersen_graph()
    matchings = enumerate_perfect_matchings(g)
    if len(matchings) != 6:
        raise RuntimeError(f"expected 6 perfect matchings, found {len(matchings)}")
    incidence = Matrix(
        [[1 if e in m else 0 for m in matchings] for e in range(len(g.edges))]
    )
    for m in matchings:
        if len(m) != 5:
            raise RuntimeError(f"matching {m} does not have 5 edges")
    for e in range(incidence.nrows):
        if sum(incidence.rows[e]) != 2:
            raise RuntimeError(f"edge {e} is not in exactly two matchings")
    for i in range(6):
        for j in range(i + 1, 6):
            shared = sum(1 for e in range(15) if incidence.rows[e][i] and incidence.rows[e][j])
            if shared != 1:
                raise RuntimeError(f"matchings {i},{j} share {shared} edges, expected 1")
    return MatchingSystem(g, tuple(matchings), incidence)
