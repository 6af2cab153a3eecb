import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trident import (
    build_graph,
    closed_neighborhood,
    complement,
    delete_vertices,
    full_report,
    max_degree,
    triangles_meeting,
)
from trident.errors import EmptyGraph, InvalidArgument, InvalidVertex, SelfLoopRejected
from trident.graph import _iter_bits
from conftest import brute_meeting, brute_triangles, complete_graph


def random_edges(rng, n, p=0.4):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def assert_kernel_reads(g):
    """The active counting kernel reads g's CSR: its report matches the oracles."""
    rep = full_report(g)
    assert rep.triangle_count == brute_triangles(g)
    assert rep.per_vertex_meeting == [brute_meeting(g, v) for v in range(g.n)]


class TestBuild:
    def test_triangle(self, kernel):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.degrees == [2, 2, 2]
        assert g.m == 3
        assert_kernel_reads(g)

    def test_empty(self, kernel):
        g = build_graph(4, [])
        assert g.degrees == [0, 0, 0, 0]
        assert g.m == 0
        assert_kernel_reads(g)

    def test_duplicate_edges_idempotent(self, kernel):
        g = build_graph(2, [(0, 1), (1, 0)])
        assert g.degrees == [1, 1]
        assert g.m == 1
        assert_kernel_reads(g)

    def test_out_of_range_rejected(self, kernel):
        with pytest.raises(InvalidVertex):
            build_graph(3, [(0, 3)])
        with pytest.raises(InvalidVertex):
            build_graph(3, [(-1, 0)])

    def test_self_loop_rejected(self, kernel):
        with pytest.raises(SelfLoopRejected):
            build_graph(3, [(1, 1)])

    @pytest.mark.parametrize("n", [3037000500, 99999999999999])
    def test_vertex_count_past_int64_keys_rejected(self, n):
        # 3037000500 is the least n with n*n >= 2**63; no array is allocated.
        with pytest.raises(InvalidArgument):
            build_graph(n, [])

    @pytest.mark.parametrize("edges", [
        [(0, 99999999999999999999)],
        [(-2**70, 1)],
        np.array([[0, 10**20]], dtype=object),
        np.array([[0, 2**63]], dtype=np.uint64),
    ])
    def test_endpoint_outside_int64_rejected(self, edges):
        with pytest.raises(InvalidVertex) as err:
            build_graph(3, edges)
        (outside,) = [x for x in np.asarray(edges, object).ravel().tolist()
                      if not -2**63 <= x < 2**63]
        # the input's value, not one wrapped into int64
        assert re.search(rf"(?<![-\d]){outside}(?!\d)", str(err.value))

    @pytest.mark.parametrize("edges", [
        [(0, 1.9)],
        [(0, "2")],
        [(True, False)],
        np.array([[0, 1.5]]),
        np.array([[0.0, 1.0]]),
    ])
    def test_non_integer_endpoint_rejected(self, edges):
        # Nothing is truncated or parsed: (0, 1.9) is not the edge (0, 1).
        with pytest.raises(InvalidVertex, match="not an integer"):
            build_graph(3, edges)

    def test_symmetry_and_degree_cache(self, kernel):
        rng = random.Random(7)
        g = build_graph(9, random_edges(rng, 9))
        for u in range(9):
            for v in range(9):
                assert g.has_edge(u, v) == g.has_edge(v, u)
            assert g.degrees[u] == len(g.neighbors(u))
            assert u not in g.neighbors(u)
        assert_kernel_reads(g)

    def test_csr_rows_sorted_without_duplicates(self):
        rng = random.Random(8)
        for _ in range(20):
            n = rng.randrange(1, 12)
            edges = random_edges(rng, n)
            g = build_graph(n, edges + [(v, u) for u, v in edges])
            assert g._indptr.dtype == g._indices.dtype == np.int64
            for v in range(n):
                row = g.neighbors(v)
                assert row == sorted(set(row))


class TestNeighborhood:
    def test_complete(self, kernel):
        g = complete_graph(3)
        assert closed_neighborhood(g, 0) == [0, 1, 2]
        assert_kernel_reads(g)

    def test_isolated(self, kernel):
        g = build_graph(4, [])
        assert closed_neighborhood(g, 2) == [2]
        assert_kernel_reads(g)

    def test_star_leaf(self, kernel):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert closed_neighborhood(g, 1) == [0, 1]
        assert_kernel_reads(g)

    def test_size_is_degree_plus_one(self, kernel):
        rng = random.Random(3)
        g = build_graph(8, random_edges(rng, 8))
        for v in range(8):
            members = closed_neighborhood(g, v)
            assert len(members) == g.degrees[v] + 1
            assert members == sorted(g.neighbors(v) + [v])
        assert_kernel_reads(g)

    def test_invalid_vertex(self, kernel):
        g = build_graph(3, [])
        with pytest.raises(InvalidVertex):
            closed_neighborhood(g, 3)

    @pytest.mark.parametrize("call", [
        lambda g, v: g.neighbors(v),
        lambda g, v: g.has_edge(v, 0),
        lambda g, v: g.has_edge(0, v),
        lambda g, v: closed_neighborhood(g, v),
        lambda g, v: triangles_meeting(g, v),
        lambda g, v: delete_vertices(g, [v]),
    ], ids=["neighbors", "has_edge_u", "has_edge_v", "closed_neighborhood",
            "triangles_meeting", "delete_vertices"])
    @pytest.mark.parametrize("v", [True, False, np.bool_(True)], ids=["True", "False", "np_True"])
    def test_bool_is_not_a_vertex(self, call, v):
        with pytest.raises(InvalidVertex):
            call(complete_graph(3), v)

    def test_has_edge_returns_a_python_bool(self):
        g = build_graph(3, [(0, 1)])
        assert [type(g.has_edge(u, v)) for u, v in [(0, 1), (0, 2), (2, 2)]] == [bool] * 3
        assert g.has_edge(np.int64(1), 0) is True and g.has_edge(0, 2) is False


class TestDelete:
    def test_k4_minus_vertex_is_k3(self, kernel):
        g = complete_graph(4)
        sub, kept = delete_vertices(g, [0])
        assert kept == [1, 2, 3]
        assert sub == complete_graph(3)
        assert_kernel_reads(sub)

    def test_component_removal(self, kernel):
        # K4 on 0..3 plus an edge 4-5; deleting N[4] leaves the K4
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)] + [(4, 5)]
        g = build_graph(6, edges)
        sub, kept = delete_vertices(g, closed_neighborhood(g, 4))
        assert kept == [0, 1, 2, 3]
        assert sub == complete_graph(4)
        assert_kernel_reads(sub)

    def test_empty_deletion_is_identity(self, kernel):
        rng = random.Random(11)
        g = build_graph(7, random_edges(rng, 7))
        sub, kept = delete_vertices(g, [])
        assert kept == list(range(7))
        assert sub == build_graph(7, g.edge_list())
        assert_kernel_reads(sub)

    def test_vertex_count_drops_by_set_size(self, kernel):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(1, 9)
            g = build_graph(n, random_edges(rng, n))
            s = [v for v in range(n) if rng.random() < 0.5]
            sub, _ = delete_vertices(g, s)
            assert sub.n == n - len(s)
            assert_kernel_reads(sub)

    def test_matches_induced_subgraph(self):
        # Relabeling by rank among survivors keeps every row sorted, so the
        # result equals a fresh build of the induced edges.
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randrange(1, 12)
            g = build_graph(n, random_edges(rng, n))
            gone = rng.sample(range(n), rng.randrange(0, n + 1))
            sub, kept = delete_vertices(g, gone)
            assert kept == [v for v in range(n) if v not in gone]
            new = {old: i for i, old in enumerate(kept)}
            assert sub == build_graph(len(kept), [(new[u], new[v]) for u, v in g.edges()
                                                  if u in new and v in new])

    def test_bad_vertex_rejected(self):
        g = complete_graph(4)
        for bad in ([4], [-1], [0, 7], [1.0]):
            with pytest.raises(InvalidVertex):
                delete_vertices(g, bad)


class TestComplement:
    def test_k3(self):
        assert complement(complete_graph(3)) == build_graph(3, [])

    def test_empty_to_complete(self):
        assert complement(build_graph(5, [])) == complete_graph(5)

    def test_path3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert complement(g) == build_graph(3, [(0, 2)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10), st.integers(0, 2**45))
    def test_involution(self, n, seed):
        rng = random.Random(seed)
        g = build_graph(n, random_edges(rng, n))
        assert complement(complement(g)) == g

    def test_too_large_rejected(self):
        with pytest.raises(InvalidArgument):
            complement(build_graph(2**12 + 1, []))


class TestMaxDegree:
    def test_examples(self):
        assert max_degree(complete_graph(4)) == 3
        star = build_graph(6, [(0, i) for i in range(1, 6)])
        assert max_degree(star) == 5
        assert max_degree(build_graph(3, [])) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            max_degree(build_graph(0, []))


def test_edge_list_round_trip(kernel):
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randrange(0, 10)
        g = build_graph(n, random_edges(rng, n))
        back = build_graph(n, g.edge_list())
        assert back == g
        assert_kernel_reads(back)


def test_backends_agree_on_structure():
    # The bitset kernel's neighbor masks and an array-built graph agree with the CSR.
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randrange(1, 12)
        edges = random_edges(rng, n)
        g = build_graph(n, edges)
        rows = g.neighbor_masks()
        assert [list(_iter_bits(r)) for r in rows] == [g.neighbors(v) for v in range(n)]
        assert [r.bit_count() for r in rows] == g.degrees
        assert build_graph(n, np.array(edges, np.int64).reshape(-1, 2)) == g
        assert g.edge_list() == edges


def test_neighbor_masks_across_blocks():
    # n = 5000 packs its rows in two blocks of at most 2^24 bools.
    from trident import random_bounded_graph

    g = random_bounded_graph(5000, 3, 0)
    assert g.neighbor_masks() == [sum(1 << u for u in g.neighbors(v)) for v in range(g.n)]
