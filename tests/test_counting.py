import random
from itertools import combinations

import numpy as np
import pytest

from trident import (
    build_graph,
    count_cliques,
    count_triangles,
    count_w,
    full_report,
    meeting_counts,
    triangles_meeting,
)
from trident.errors import InvalidCliqueSize, InvalidVertex
from trident.graph import closed_neighborhood, delete_vertices
from conftest import (
    all_graphs,
    brute_cliques,
    brute_meeting,
    brute_triangles,
    brute_w,
    by_both_kernels,
    complete_graph,
    meeting_counts_by_deletion,
    petersen,
    use_kernel,
)


def random_graph(rng, n, p=0.3):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


class TestTriangles:
    def test_k4(self, k4):
        assert count_triangles(k4) == 4

    def test_c5(self):
        assert count_triangles(build_graph(5, [(i, (i + 1) % 5) for i in range(5)])) == 0

    def test_petersen(self):
        g = petersen()
        assert count_triangles(g) == brute_triangles(g)  # == 0

    def test_exhaustive_small_vs_oracle(self, kernel):
        for n in range(6):
            for g in all_graphs(n):
                assert count_triangles(g) == brute_triangles(g)

    def test_backends_agree_random(self, monkeypatch):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randrange(1, 33)
            g = random_graph(rng, n, 0.2)
            small, large = by_both_kernels(monkeypatch, count_triangles, g)
            assert small == large == brute_triangles(g)


class TestCliques:
    def test_k5_choose_4(self):
        assert count_cliques(complete_graph(5), 4) == 5

    def test_t2_is_edges(self):
        rng = random.Random(9)
        for _ in range(10):
            g = random_graph(rng, rng.randrange(1, 10))
            assert count_cliques(g, 2) == g.m
            assert count_cliques(g, 1) == g.n

    def test_disjoint_cliques(self):
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(i, j) for i in range(4, 7) for j in range(i + 1, 7)]
        assert count_cliques(build_graph(7, edges), 3) == 5

    def test_t3_matches_triangles(self):
        rng = random.Random(10)
        for _ in range(50):
            g = random_graph(rng, rng.randrange(1, 12), 0.5)
            assert count_cliques(g, 3) == count_triangles(g)

    def test_vs_oracle(self, kernel):
        rng = random.Random(12)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 9), 0.6)
            for t in range(1, 6):
                assert count_cliques(g, t) == brute_cliques(g, t)
            assert count_cliques(g, 3) == count_triangles(g)

    def test_invalid_size(self):
        with pytest.raises(InvalidCliqueSize):
            count_cliques(complete_graph(3), 0)

    @pytest.mark.parametrize("budget", [None, 3])
    def test_clique_rich_vs_oracle(self, monkeypatch, budget):
        # A budget of 3 wedges takes rows of length 4 or more one vertex at a
        # time and extends the triangles one row per piece.
        from trident import _fast, build_extremal

        if budget is not None:
            monkeypatch.setattr(_fast, "WEDGE_BUDGET", budget)
        graphs = [complete_graph(k) for k in range(5, 8)] + [build_extremal(14, 5)]
        rng = random.Random(19)
        graphs += [random_graph(rng, rng.randrange(6, 12), 0.85) for _ in range(8)]
        for g in graphs:
            for t in range(3, 7):
                assert count_cliques(g, t) == brute_cliques(g, t)

    def test_no_neighbor_masks(self, monkeypatch):
        from trident.graph import Graph

        def refuse(self):
            raise AssertionError("count_cliques built n-bit neighbor masks")

        monkeypatch.setattr(Graph, "neighbor_masks", refuse)
        g = build_graph(12, list(combinations(range(7), 2)))  # K7 + 5 isolated
        assert [count_cliques(g, t) for t in range(3, 8)] == [35, 35, 21, 7, 1]


class TestMeeting:
    def test_k3(self):
        g = complete_graph(3)
        for v in range(3):
            assert triangles_meeting(g, v) == 1

    def test_disjoint_triangles(self):
        g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert triangles_meeting(g, 0) == 1

    def test_k4(self, k4):
        for v in range(4):
            assert triangles_meeting(k4, v) == 4

    def test_invalid_vertex(self, k4):
        with pytest.raises(InvalidVertex):
            triangles_meeting(k4, 4)

    def test_vs_oracle_and_decomposition(self, kernel):
        rng = random.Random(13)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(1, 10), 0.5)
            marked = meeting_counts(g)
            assert marked == meeting_counts_by_deletion(g)
            for v in range(g.n):
                assert marked[v] == brute_meeting(g, v)

    def test_decomposition_identity(self):
        rng = random.Random(14)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 12), 0.4)
            for v in range(g.n):
                rest, _ = delete_vertices(g, closed_neighborhood(g, v))
                assert count_triangles(g) == triangles_meeting(g, v) + count_triangles(rest)


class TestW:
    def test_single_edge(self):
        assert count_w(build_graph(2, [(0, 1)])) == 2

    def test_path3(self):
        assert count_w(build_graph(3, [(0, 1), (1, 2)])) == 10

    def test_k3(self):
        assert count_w(complete_graph(3)) == 6

    def test_exhaustive_vs_quadruple_loop(self, kernel):
        for n in range(5):
            for g in all_graphs(n):
                assert count_w(g) == brute_w(g)

    def test_random_vs_quadruple_loop(self):
        rng = random.Random(15)
        for _ in range(30):
            g = random_graph(rng, rng.randrange(1, 8), 0.5)
            assert count_w(g) == brute_w(g)


class TestFullReport:
    def test_path3(self):
        rep = full_report(build_graph(3, [(0, 1), (1, 2)]))
        assert rep.to_dict() == {
            "triangle_count": 0,
            "per_vertex_meeting": [0, 0, 0],
            "w_count": 10,
            "degree_cube_sum": 10,
            "omega_count": 0,
        }

    def test_k3(self):
        rep = full_report(complete_graph(3))
        assert rep.triangle_count == 1
        assert rep.per_vertex_meeting == [1, 1, 1]
        assert rep.w_count == 6
        assert rep.degree_cube_sum == 24
        assert rep.omega_count == 18

    def test_empty(self):
        rep = full_report(build_graph(4, []))
        assert rep.triangle_count == rep.w_count == rep.degree_cube_sum == 0

    def test_identity_and_invariants_random(self):
        rng = random.Random(16)
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 14), 0.4)
            rep = full_report(g)
            assert rep.omega_count + rep.w_count == rep.degree_cube_sum
            assert all(c <= rep.triangle_count for c in rep.per_vertex_meeting)
            assert rep.w_count >= sum(g.degrees)

    def test_json_round_trip(self):
        from trident import CountsReport
        rep = full_report(complete_graph(4))
        assert CountsReport.from_dict(rep.to_dict()) == rep

    def test_identity_mismatch_raises(self, monkeypatch):
        assert_w_off_by_one_raises(monkeypatch, "_bitset_counts")

    def test_degree_cube_sum_is_exact(self):
        # A star with 2^21 leaves has centre degree 2^21 and cube 2^63, past int64.
        from trident.counting import _degree_cube_sum

        star = build_graph(2**21 + 1, np.stack([np.zeros(2**21, np.int64),
                                                np.arange(1, 2**21 + 1)], axis=1))
        assert _degree_cube_sum(star) == 2**63 + 2**21


def assert_w_off_by_one_raises(monkeypatch, kernel_name):
    """full_report raises IdentityViolation when the kernel's W is off by one."""
    from trident import counting
    from trident.errors import IdentityViolation

    listing = getattr(counting, kernel_name)

    def w_off_by_one(*args):
        triangles, meeting, w = listing(*args)
        return triangles, meeting, w + 1

    monkeypatch.setattr(counting, kernel_name, w_off_by_one)
    with pytest.raises(IdentityViolation):
        full_report(complete_graph(5))


def k4_rich_sorted_graphs():
    """Graphs full of K4s: cliques, disjoint K5s, dense random."""
    from trident import build_extremal

    graphs = [complete_graph(k) for k in range(4, 7)]
    graphs.append(build_extremal(12, 4))
    rng = random.Random(17)
    for _ in range(8):
        graphs.append(random_graph(rng, rng.randrange(5, 10), 0.8))
    return graphs


class TestCsrReport:
    """The numpy listing of the CSR, forced on small graphs by lowering the
    bitset kernel's size limit."""

    def check_against_oracles(self, g):
        meeting = [brute_meeting(g, v) for v in range(g.n)]
        w = brute_w(g)
        assert meeting_counts(g) == meeting
        assert count_w(g) == w
        rep = full_report(g)
        assert rep.triangle_count == brute_triangles(g)
        assert rep.per_vertex_meeting == meeting
        assert rep.w_count == w

    def test_k4_rich_vs_oracles(self, monkeypatch):
        use_kernel(monkeypatch, "sorted")
        for g in k4_rich_sorted_graphs():
            self.check_against_oracles(g)

    def test_k4_rich_across_chunks(self, monkeypatch):
        # With a budget of 3 wedges, triangles and K4s span several chunks.
        from trident import _fast

        use_kernel(monkeypatch, "sorted")
        monkeypatch.setattr(_fast, "WEDGE_BUDGET", 3)
        for g in k4_rich_sorted_graphs():
            self.check_against_oracles(g)

    def test_matches_bitset_random(self, monkeypatch):
        rng = random.Random(18)
        for _ in range(40):
            n = rng.randrange(1, 20)
            g = random_graph(rng, n, rng.random())
            for fn in (full_report, meeting_counts, count_w):
                small, large = by_both_kernels(monkeypatch, fn, g)
                assert small == large

    def test_identity_mismatch_raises(self, monkeypatch):
        use_kernel(monkeypatch, "sorted")
        assert_w_off_by_one_raises(monkeypatch, "_csr_counts")

    def test_no_neighbor_masks(self, monkeypatch):
        from trident.graph import Graph

        g = build_graph(12, list(combinations(range(6), 2)))  # K6 + 6 isolated

        def refuse(self):
            raise AssertionError("the numpy listing built n-bit neighbor masks")

        use_kernel(monkeypatch, "sorted")
        monkeypatch.setattr(Graph, "neighbor_masks", refuse)
        assert count_triangles(g) == 20
        assert meeting_counts(g) == [20] * 6 + [0] * 6
        assert count_w(g) == 6 * 5
        assert full_report(g).triangle_count == 20


class TestKernelParity:
    def test_forward_triangle_kernels_agree(self, monkeypatch):
        import numpy as np
        from trident import _fast
        from trident.counting import _orient

        def lexsort_forward(g):
            # (degree, index) rank and (head, tail) order by two lexsorts
            n, arr = g.n, g.edge_array()
            rank = np.empty(n, np.int64)
            rank[np.lexsort((np.arange(n), np.asarray(g.degrees)))] = np.arange(n)
            if arr.size == 0:
                return np.zeros(n + 1, np.int64), np.empty(0, np.int64)
            u, v = arr[:, 0], arr[:, 1]
            fwd = rank[u] < rank[v]
            heads, tails = np.where(fwd, u, v), np.where(fwd, v, u)
            order = np.lexsort((tails, heads))
            indptr = np.concatenate([[0], np.cumsum(np.bincount(heads, minlength=n))])
            return indptr.astype(np.int64), tails[order].astype(np.int64)

        def check(g):
            (ip, ix), keys = _orient(g)
            ref_ip, ref_ix = lexsort_forward(g)
            assert ip.dtype == ix.dtype == np.int64
            assert np.array_equal(ip, ref_ip) and np.array_equal(ix, ref_ix)
            listed = _fast.forward_triangles(ip, ix, keys)
            assert listed == brute_triangles(g) == count_triangles(g)  # the bitset kernel
            return ip

        rng = random.Random(99)
        graphs = [build_graph(9, []),  # no edges
                  build_graph(8, [(0, 1), (2, 3), (4, 5), (1, 2)])]
        for _ in range(20):
            graphs.append(random_graph(rng, rng.randrange(2, 40), 0.2))
        indptrs = [check(g) for g in graphs]
        assert (np.diff(indptrs[1]) <= 1).all()  # every forward row has length <= 1

        # A budget of 3 wedges puts rows of length 3 in several chunks and
        # takes longer rows one vertex at a time.
        monkeypatch.setattr(_fast, "WEDGE_BUDGET", 3)
        split = long = 0
        for _ in range(10):
            out_deg = np.diff(check(random_graph(rng, rng.randrange(20, 40), 0.4)))
            split += (out_deg == 3).sum() > 1
            long += (out_deg > 3).any()
        assert split and long

    def test_edge_keys_read_off_the_csr(self, monkeypatch):
        # The entries head < tail of the CSR are the keys the listing used to
        # sort out of the forward CSR, so every closing edge keeps its position.
        from trident import _fast
        from trident.counting import _orient

        def sorted_forward_keys(indptr, indices):
            n = indptr.size - 1
            heads = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            keys = np.minimum(heads, indices) * n + np.maximum(heads, indices)
            keys.sort()
            return keys

        rng = random.Random(98)
        graphs = [build_graph(5, []), complete_graph(7)]
        graphs += [random_graph(rng, rng.randrange(2, 40), rng.random()) for _ in range(20)]
        monkeypatch.setattr(_fast, "WEDGE_BUDGET", 3)
        for g in graphs:
            (ip, ix), keys = _orient(g)
            old = sorted_forward_keys(ip, ix)
            assert keys.dtype == np.int64 and np.array_equal(keys, old)
            chunks = list(_fast.forward_triangle_chunks(ip, ix, keys))
            old_chunks = list(_fast.forward_triangle_chunks(ip, ix, old))
            assert len(chunks) == len(old_chunks)
            for new_arrays, old_arrays in zip(chunks, old_chunks):
                assert all(np.array_equal(a, b) for a, b in zip(new_arrays, old_arrays))
            for h, v, w, pos in chunks:
                assert np.array_equal(keys[pos], np.minimum(v, w) * g.n + np.maximum(v, w))

    def test_proposal_kernels_agree(self):
        from trident import random_bounded_graph

        def reference(n, d, seed):
            # all 4*n*d proposals in one draw, each (u, v) accepted in order
            # while both ends have degree below d
            pairs = np.random.RandomState(seed).randint(0, n, size=(4 * n * d, 2))
            deg, out = [0] * n, []
            for u, v in pairs.tolist():
                if u != v and deg[u] < d and deg[v] < d:
                    deg[u] += 1
                    deg[v] += 1
                    out.append((u, v))
            return build_graph(n, out)

        # 4*n*d passes 2**16 in the last three cells, so they take several
        # chunks of draws.
        cells = [(2, 1, 0), (3, 2, 1), (30, 3, 0), (12, 5, 4), (200, 1, 2),
                 (1025, 16, 5), (3000, 8, 6), (5000, 4, 7)]
        # Every vertex is drawn far more than d times: every proposal is
        # contested.
        cells += [(10, 8, 1), (30, 12, 2), (64, 8, 9), (64, 16, 3)]
        # Many chunks that mix uncontested and contested proposals.
        cells += [(16500, 16, 1), (20000, 3, 2)]
        # d >= n - 1: the cap never binds.
        cells += [(2, 1, 3), (2, 5, 4), (5, 4, 0), (8, 7, 3), (6, 20, 1)]
        for n, d, seed in cells:
            assert random_bounded_graph(n, d, seed) == reference(n, d, seed), (n, d, seed)


def searched_wedges(keys, table, queries):
    """The wedge lookup without the bit table: every wedge is sorted and
    searched in ``keys``."""
    shift = max(queries.size - 1, 1).bit_length()
    packed = queries << shift | np.arange(queries.size)
    packed.sort()
    wedges = packed >> shift
    pos = np.minimum(np.searchsorted(keys, wedges), keys.size - 1)
    hit = keys[pos] == wedges
    return packed[hit] & ((1 << shift) - 1), pos[hit]


class TestWedgeFilter:
    """The hashed bit table only drops open wedges: the listing equals one
    that searches every wedge."""

    def listings_agree(self, monkeypatch, g, seen):
        """Compare the listing of g with and without the bit table, and add
        each lookup's wedges to ``seen`` as (open, bit set) flag arrays."""
        from trident import _fast
        from trident.counting import _orient

        def recording(keys, table, queries):
            in_keys = np.isin(queries, keys)
            byte, bit = _fast._slots(queries, table)
            seen.append((~in_keys, (table[byte] >> bit & 1).astype(bool)))
            return searched_wedges(keys, table, queries)

        (ip, ix), keys = _orient(g)
        filtered = list(_fast.forward_triangle_chunks(ip, ix, keys))
        with monkeypatch.context() as m:
            m.setattr(_fast, "_closed_wedges", recording)
            plain = list(_fast.forward_triangle_chunks(ip, ix, keys))
        assert len(filtered) == len(plain)
        for new, old in zip(filtered, plain):
            assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(new, old))
        assert sum(h.size for h, _, _, _ in filtered) == count_triangles(g)
        return np.diff(ip)

    def test_random_graphs(self, monkeypatch):
        from trident import random_bounded_graph

        rng = random.Random(97)
        graphs = [random_graph(rng, rng.randrange(2, 40), rng.random()) for _ in range(20)]
        graphs += [random_bounded_graph(n, d, seed)
                   for n, d, seed in [(500, 16, 1), (3000, 8, 2), (20000, 16, 3)]]
        seen = []
        for g in graphs:
            self.listings_agree(monkeypatch, g, seen)
        open_ = np.concatenate([o for o, _ in seen])
        lit = np.concatenate([b for _, b in seen])
        # Open wedges whose bit is set reach the exact search and are
        # rejected there; with 8 to 16 bits per key they are few.
        false_positives = int((open_ & lit).sum())
        assert open_.size > 100_000 and 0 < false_positives < 0.15 * open_.sum()
        assert lit[~open_].all()  # every edge key's own bit is set

    def test_extremal_graphs(self, monkeypatch):
        from trident import build_extremal

        seen = []
        for n, d in [(4, 3), (60, 5), (200, 16), (1000, 30)]:
            self.listings_agree(monkeypatch, build_extremal(n, d), seen)
        assert seen and not any(o.any() for o, _ in seen)  # every wedge closes
        assert all(b.all() for _, b in seen)

    def test_budget_split(self, monkeypatch):
        # With a budget of 3 wedges, each row of length 3 is a chunk of its
        # own (the grouped-rows branch) and longer rows are taken one vertex
        # at a time (the single-long-row branch).
        from trident import _fast

        monkeypatch.setattr(_fast, "WEDGE_BUDGET", 3)
        rng = random.Random(96)
        split = long = 0
        for _ in range(10):
            out_deg = self.listings_agree(
                monkeypatch, random_graph(rng, rng.randrange(20, 40), 0.4), [])
            split += (out_deg == 3).sum() > 1
            long += (out_deg > 3).any()
        assert split and long
