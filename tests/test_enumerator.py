import hashlib
import random
import re
import sys
import threading
from itertools import combinations, permutations, product

import numpy as np
import pytest

from trident import (
    build_extremal,
    build_graph,
    canonical_form,
    count_cliques,
    count_triangles,
    counting,
    enumerate_and_verify,
    enumerator,
    gls_bound,
    max_degree,
    random_bounded_graph,
)
from trident.enumerator import (
    _block_table,
    _cliques_in_mask,
    _predicted_forms,
    _search,
    exhaustive_limit,
)
from trident.errors import ExhaustiveLimitExceeded, InvalidArgument, TooLargeForCanonicalization
from trident.formats import g6_encode
from conftest import all_graphs, complete_graph, petersen


class TestBuildExtremal:
    def test_small(self):
        assert count_triangles(build_extremal(6, 3)) == 4
        assert count_triangles(build_extremal(11, 3)) == 9
        assert build_extremal(5, 4) == complete_graph(5)

    def test_respects_degree_bound(self):
        for d in range(1, 7):
            for n in range(1, 30):
                g = build_extremal(n, d)
                assert max_degree(g) <= d


def csr_digest(g):
    return hashlib.sha256(g._indptr.tobytes() + g._indices.tobytes()).hexdigest()


class TestRandomBounded:
    def test_deterministic(self):
        # The generator's graphs are pinned per seed; (16500, 16, 0) draws
        # 4*n*d > 2**20 proposals, so it spans several chunks of draws.
        pinned = {
            (2, 1, 0): "c8b9af456571329ad39419553d14c5af97f36474bd52d2920a364e990801d5f0",
            (10, 3, 5): "08d85deabe53132321d1288957f6d103e026804d45f9e5bca9428ae655851e5f",
            (10, 3, 6): "0e0d77deff013d2bf98493c57690436a202ebebbe0a09e24a5c929cd15d433d2",
            (64, 16, 3): "bfea46ae57a8d82fddfe5f0b40b9114e9dddf62cb94901eb1d5e8f5c3bc05445",
            (300, 7, 11): "91424c37b2063751166b2723be16385255a43e6257e5d074d2e93717689cefd3",
            (16500, 16, 0): "ecd68429adb1b9791580d4030178eeb8d91587471a6210393590019d3facc224",
        }
        for cell, digest in pinned.items():
            assert csr_digest(random_bounded_graph(*cell)) == digest, cell
        assert random_bounded_graph(10, 3, 5) == random_bounded_graph(10, 3, 5)

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**70, 1.0, 0.5, "1", None, True, False, np.bool_(True)])
    @pytest.mark.parametrize("n", [1, 10])
    def test_bad_seed_rejected(self, n, seed):
        with pytest.raises(InvalidArgument, match=r"seed must be an integer in \[0, 2\*\*32\)"):
            random_bounded_graph(n, 3, seed)

    def test_seed_range_ends(self):
        # numpy integers are seeds too, and give the same graph as the int.
        assert random_bounded_graph(10, 3, 2**32 - 1) == random_bounded_graph(10, 3, np.uint32(2**32 - 1))
        assert random_bounded_graph(10, 3, np.int64(5)) == random_bounded_graph(10, 3, 5)
        assert random_bounded_graph(10, 3, 0).m > 0

    @pytest.mark.parametrize("n, d", [
        (True, 3), (False, 3), (10, True), (10, False), (np.bool_(True), 3),
        (1.0, 3), (10, 3.0), ("10", 3), (None, 3), (0, 3), (10, 0), (-1, 3), (np.int64(0), 3),
    ])
    def test_bad_n_d_rejected(self, n, d):
        # n is checked first; in the cases with a good n, d is the bad one.
        what, value = ("maximum degree", d) if type(n) is int and n >= 1 else ("vertex count", n)
        message = f"{what} must be an integer >= 1, got {value!r}"
        with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
            random_bounded_graph(n, d, 0)

    def test_numpy_n_d(self):
        # numpy integers give the same graph as the int, as seeds do.
        for n, d in [(np.int64(10), 3), (10, np.int64(3)), (np.uint8(200), np.int32(16)),
                     (np.int64(1), np.uint8(1))]:
            assert random_bounded_graph(n, d, 5) == random_bounded_graph(int(n), int(d), 5)

    def test_threads_match_serial(self):
        # Each thread reseeds its own generator, so three threads drawing
        # interleaved seeds at once get the graphs of serial calls.
        cells = [((3000, 8) if s % 2 else (50, 9)) + (s,) for s in range(18)]
        serial = {cell: csr_digest(random_bounded_graph(*cell)) for cell in cells}
        start = threading.Barrier(3, timeout=60)
        got = {}

        def work(mine):
            start.wait()
            for cell in mine:
                got[cell] = csr_digest(random_bounded_graph(*cell))

        threads = [threading.Thread(target=work, args=(cells[i::3],)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the calls
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == serial

    def test_degree_cap(self):
        rng = random.Random(1)
        for _ in range(30):
            n, d = rng.randrange(1, 40), rng.randrange(1, 8)
            g = random_bounded_graph(n, d, rng.randrange(2**31))
            if g.n > 0 and g.m > 0:
                assert max_degree(g) <= d

    def test_large_d_unconstrained(self):
        g = random_bounded_graph(10, 9, 0)
        assert max_degree(g) <= 9

    def test_large_sparse(self):
        g = random_bounded_graph(10**5, 16, 3)
        assert csr_digest(g) == "0aaa5f70e252fbd1c67138e7325a267455075dcfa824501a8ce221fb872378c2"
        assert g.n * g.n > counting.DENSE_BIT_BUDGET  # counted by the numpy listing
        assert count_triangles(g) == count_cliques(g, 3)
        assert max_degree(g) <= 16


def reference_canonical_form(g):
    """The canonical form as every product of within-class permutations,
    kept as the reference for ``canonical_form``'s pruned search."""
    n = g.n
    nbrs = [g.neighbors(v) for v in range(n)]
    colors = [len(nbrs[v]) for v in range(n)]
    for _ in range(n):
        keys = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)]
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [palette[k] for k in keys]
        if new == colors:
            break
        colors = new
    classes = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    ordered_classes = [classes[c] for c in sorted(classes)]
    rows = g.neighbor_masks()
    nbits = n * (n - 1) // 2
    best = None
    for parts in product(*(permutations(cls) for cls in ordered_classes)):
        order = [v for part in parts for v in part]
        bits = 0
        for j in range(1, n):
            oj = order[j]
            for i in range(j):
                bits = (bits << 1) | ((rows[order[i]] >> oj) & 1)
        if best is None or bits < best:
            best = bits
    return g6_encode(n, [nbits - 1 - b for b in range(nbits) if (best >> b) & 1])


def cycle_edges(k, first=0):
    return [(first + i, first + (i + 1) % k) for i in range(k)]


LIMIT_CASES = {
    "petersen": petersen,
    "C10": lambda: build_graph(10, cycle_edges(10)),
    "prism": lambda: build_graph(10, cycle_edges(5) + cycle_edges(5, 5)
                                 + [(i, i + 5) for i in range(5)]),
    "mobius_ladder": lambda: build_graph(10, cycle_edges(10) + [(i, i + 5) for i in range(5)]),
    "2C5": lambda: build_graph(10, cycle_edges(5) + cycle_edges(5, 5)),
    "matching": lambda: build_graph(10, [(2 * i, 2 * i + 1) for i in range(5)]),
    "empty": lambda: build_graph(10, []),
    "K10": lambda: complete_graph(10),
}


class TestCanonicalForm:
    def test_relabeling_invariance_exhaustive_k3(self):
        base = canonical_form(complete_graph(3))
        for perm in permutations(range(3)):
            g = build_graph(3, [(perm[0], perm[1]), (perm[1], perm[2]), (perm[0], perm[2])])
            assert canonical_form(g) == base

    def test_p3_all_labelings_one_string(self):
        forms = set()
        for perm in permutations(range(3)):
            forms.add(canonical_form(build_graph(3, [(perm[0], perm[1]), (perm[1], perm[2])])))
        assert len(forms) == 1

    def test_p3_differs_from_k3(self):
        assert canonical_form(build_graph(3, [(0, 1), (1, 2)])) != canonical_form(
            complete_graph(3))

    def test_random_permutation_invariance(self):
        rng = random.Random(2)
        for _ in range(15):
            n = rng.randrange(1, 8)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.5]
            base = canonical_form(build_graph(n, edges))
            for _ in range(100):
                perm = list(range(n))
                rng.shuffle(perm)
                h = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
                assert canonical_form(h) == base

    def test_distinguishes_nonisomorphic_n6(self):
        # canonical forms must separate all isomorphism classes: a full pass
        # at n = 4, 5 and 6 (11, 34 and 156 classes, OEIS A000088)
        for n, classes in [(4, 11), (5, 34), (6, 156)]:
            forms = {canonical_form(g) for g in all_graphs(n)}
            assert len(forms) == classes, n

    def test_matches_reference_every_graph_n6(self):
        for n in range(7):
            for g in all_graphs(n):
                assert canonical_form(g) == reference_canonical_form(g), (n, g.edge_list())

    def test_matches_reference_random(self):
        # At most 8! orders per reference call, well under a second each.
        # The degree-capped graphs are near-regular, so their classes are large.
        rng = random.Random(11)
        graphs = [random_bounded_graph(n, d, s)
                  for n in range(5, 9) for d in range(1, 5) for s in range(4)]
        for _ in range(150):
            n = rng.randrange(1, 9)
            p = rng.random()
            graphs.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                          if rng.random() < p]))
        for g in graphs:
            assert canonical_form(g) == reference_canonical_form(g), (g.n, g.edge_list())

    @pytest.mark.parametrize("name", sorted(LIMIT_CASES))
    def test_limit_cases_relabeled(self, name):
        # n = CANONICAL_LIMIT graphs that refinement leaves as one class of
        # 10 vertices: 10! orders without pruning.
        g = LIMIT_CASES[name]()
        base = canonical_form(g)
        edges = g.edge_list()
        rng = random.Random(name)
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(build_graph(g.n, [(perm[u], perm[v]) for u, v in edges])) == base

    def test_limit_cases_distinct(self):
        cubic = ["petersen", "prism", "mobius_ladder"]
        assert len({canonical_form(LIMIT_CASES[k]()) for k in cubic}) == 3
        assert canonical_form(LIMIT_CASES["C10"]()) != canonical_form(LIMIT_CASES["2C5"]())

    def test_too_large(self):
        with pytest.raises(TooLargeForCanonicalization):
            canonical_form(build_graph(11, []))

    def test_too_large_refused_before_bit_rows(self, monkeypatch):
        # n-bit rows at n = 10**6 would need about 125 GB: refuse first.
        def refuse(self):
            raise AssertionError("bit rows built before the size check")

        path = build_graph(11, [(i, i + 1) for i in range(10)])
        monkeypatch.setattr(type(path), "neighbor_masks", refuse)
        with pytest.raises(TooLargeForCanonicalization):
            canonical_form(path)


class TestEnumerate:
    def test_k4_cell(self):
        rep = enumerate_and_verify(4, 3, 3)
        assert rep.graphs_enumerated == 64
        assert rep.max_cliques_found == 4
        assert not rep.violation_found
        assert rep.extremal_graphs == [canonical_form(complete_graph(4)).decode()]
        assert rep.uniqueness_verdict == "unique-as-predicted"

    def test_r3_uniqueness_boundary(self):
        rep = enumerate_and_verify(7, 3, 3)
        assert rep.max_cliques_found == 5 == rep.bound
        assert rep.extremal_graphs == [canonical_form(build_extremal(7, 3)).decode()]
        assert rep.uniqueness_verdict == "unique-as-predicted"

    def test_r2_multiple_extremal(self):
        rep = enumerate_and_verify(6, 3, 3)
        assert rep.max_cliques_found == 4 == rep.bound
        assert len(rep.extremal_graphs) == 2
        assert rep.uniqueness_verdict == "multiple-extremal"
        assert rep.matches_prediction

    def test_t4(self):
        rep = enumerate_and_verify(6, 4, 4)
        assert rep.bound == gls_bound(6, 4, 4)[1] == 5
        assert rep.max_cliques_found == 5
        assert not rep.violation_found

    def test_limit_enforced(self, monkeypatch):
        monkeypatch.delenv("TRIDENT_MAX_EXHAUSTIVE_N", raising=False)  # the default, 8
        with pytest.raises(ExhaustiveLimitExceeded):
            enumerate_and_verify(9, 3, 3)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("TRIDENT_MAX_EXHAUSTIVE_N", "4")
        with pytest.raises(ExhaustiveLimitExceeded):
            enumerate_and_verify(5, 3, 3)

    @pytest.mark.parametrize("d", [1, 3])
    def test_canonical_limit_before_search(self, monkeypatch, d):
        # Past CANONICAL_LIMIT the forms step could not run, so no search starts.
        def never(*args):
            raise AssertionError("the search ran")

        monkeypatch.setenv("TRIDENT_MAX_EXHAUSTIVE_N", "11")
        monkeypatch.setattr(enumerator, "_search", never)
        with pytest.raises(TooLargeForCanonicalization, match=r"^canonical_form limited to n <= 10$"):
            enumerate_and_verify(11, d, 3)

    def test_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv("TRIDENT_MAX_EXHAUSTIVE_N", "abc")
        with pytest.raises(InvalidArgument):
            exhaustive_limit()
        with pytest.raises(InvalidArgument):
            enumerate_and_verify(3, 2, 3)

    def test_jobs_agree_with_serial(self):
        # jobs is accepted and ignored; (5, 1, 3) has no triangle and reports the empty graph
        for cell in [(6, 3, 3), (5, 1, 3)]:
            serial = enumerate_and_verify(*cell, jobs=1)
            parallel = enumerate_and_verify(*cell, jobs=3)
            assert serial.to_dict() == parallel.to_dict()
        assert parallel.extremal_graphs == ["D??"]

    @pytest.mark.parametrize("t", [3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_report_matches_brute_force(self, d, t):
        # every labeled graph on 5 vertices, filtered and counted directly
        counted = [(g, count_cliques(g, t)) for g in all_graphs(5) if max_degree(g) <= d]
        best = max(c for _, c in counted)
        extremal = [g for g, c in counted if c == best] if best else [build_graph(5, [])]
        rep = enumerate_and_verify(5, d, t)
        assert rep.graphs_enumerated == len(counted)
        assert rep.max_cliques_found == best
        assert rep.extremal_graphs == sorted({canonical_form(g).decode() for g in extremal})

    @pytest.mark.parametrize("n, d", [(5, 2), (8, 2), (7, 4), (10, 3)])
    def test_predicted_forms_r2(self, n, d):
        # The r = 2 prediction: the construction, and it without its K_2's edge.
        assert n % (d + 1) == 2
        g = build_extremal(n, d)
        h = build_graph(n, g.edge_list()[:-1])
        assert _predicted_forms(n, d, 2) == sorted({canonical_form(g), canonical_form(h)})
        assert len(_predicted_forms(n, d, 2)) == 2

    def test_n8_reports_byte_identical(self, monkeypatch):
        # One SHA-256 over the (8, d, 3) reports for d = 1..3, pinned when
        # canonical_form still tried every product of within-class orders.
        monkeypatch.delenv("TRIDENT_MAX_EXHAUSTIVE_N", raising=False)  # the default, 8
        reports = [enumerate_and_verify(8, d, 3) for d in (1, 2, 3)]
        digest = hashlib.sha256(b"".join(rep.to_json().encode() + b"\n" for rep in reports))
        assert digest.hexdigest() == "917ecaf33749e5b0962b3bda7e4de4a713f49078d367cce70c35d9d059c3649f"

    def test_declared_degree_past_n(self, monkeypatch):
        # No degree exceeds n - 1, so the search runs with that cap; sized
        # by d, its residual caps would not fit in memory at d = 10**18.
        search = enumerator._search

        def capped(n, d, t):
            if d > n - 1:
                raise AssertionError(f"search capped at d={d}")
            return search(n, d, t)

        monkeypatch.setattr(enumerator, "_search", capped)
        rep = enumerate_and_verify(4, 10**18)
        assert rep.d == 10**18
        assert {**rep.to_dict(), "d": 3} == enumerate_and_verify(4, 3).to_dict()

    # The to_json() SHA-256 of each cell, recorded before the search ran in
    # one process (the n = 8, t = 3 sweep and perfbench's two `small` cells).
    CELL_DIGESTS = {
        (8, 1, 3): "b1ce7f01d1be7a8abf0220969434f24725cd6e4e9b8ea312244f098c20428287",
        (8, 2, 3): "f0d0631893fb576f35bb535eb8c73ef02b50dbe25e0cb4604856436fafc6836e",
        (8, 3, 3): "de835c4268d76ced8b78f33821d483853c2cbae4e5bdae3d045fc0b42c5c0573",
        (8, 4, 3): "0a0d3916018a5685b359d8c0eaac921e5778884bc3782096312b5100a8b9c452",
        (8, 5, 3): "f7dfceea7d9ec0438b1a5d1a569f151bcb578b8548af282ee051d629c608006e",
        (8, 6, 3): "4b1956cde2518b8eee779d0c16f628e071a4830867a50b791be192bf256d354e",
        (8, 7, 3): "56356b0f65af45cf6dd1de0b441c61f1ea04c981b9a66f2699213a4432962881",
        (7, 4, 3): "fe619118fab483c7d83f7c2e0237c5e909f10e31ceeeec891693eddcf186872a",
        (7, 3, 4): "d6e66fdbae80af6dab15ee6f2dc864293fde308d33029a5a52f061cb00064038",
    }

    @pytest.mark.parametrize("cell", sorted(CELL_DIGESTS))
    def test_report_digest_per_cell(self, monkeypatch, cell):
        monkeypatch.delenv("TRIDENT_MAX_EXHAUSTIVE_N", raising=False)  # the default, 8
        digest = hashlib.sha256(enumerate_and_verify(*cell).to_json().encode()).hexdigest()
        assert digest == self.CELL_DIGESTS[cell]

    @pytest.mark.parametrize("jobs", [0, -3, True, False, 2.5, 1.0, "2", None])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(InvalidArgument, match="jobs must be an integer >= 1"):
            enumerate_and_verify(4, 3, 3, jobs=jobs)


def reference_search_subtree(n, d, t, prefix_bits, prefix_len):
    """The search one leaf at a time, as it was before the last vertices
    were completed from a table; ``_search`` must agree with it."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ns = len(slots)
    adj = [0] * n
    deg = [0] * n
    cnt = 0
    for idx in range(prefix_len):
        if not (prefix_bits >> idx) & 1:
            continue
        i, j = slots[idx]
        if deg[i] >= d or deg[j] >= d:
            return 0, 0, []
        cnt += _cliques_in_mask(adj, adj[i] & adj[j], t - 2)
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        deg[i] += 1
        deg[j] += 1

    state = {"graphs": 0, "best": 0, "found": []}

    def rec(idx, cnt):
        if idx == ns:
            state["graphs"] += 1
            if cnt > state["best"]:
                state["best"] = cnt
                state["found"] = [list(adj)]
            elif cnt == state["best"] > 0:  # no graph while no t-clique is found
                state["found"].append(list(adj))
            return
        rec(idx + 1, cnt)
        i, j = slots[idx]
        if deg[i] < d and deg[j] < d:
            delta = _cliques_in_mask(adj, adj[i] & adj[j], t - 2)
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            deg[i] += 1
            deg[j] += 1
            rec(idx + 1, cnt + delta)
            adj[i] &= ~(1 << j)
            adj[j] &= ~(1 << i)
            deg[i] -= 1
            deg[j] -= 1

    rec(prefix_len, cnt)
    return state["graphs"], state["best"], state["found"]


@pytest.mark.parametrize("n", range(1, 7))
def test_search_matches_reference(n):
    # Caps past n - 1 included; the extremal graphs' bit rows compare as
    # ordered lists.
    for d in range(1, n + 4):
        for t in (3, 4, 5):
            assert _search(n, d, t) == reference_search_subtree(n, d, t, 0, 0), (n, d, t)


def reference_block_table(n, b, t):
    """``_block_table`` one entry at a time, as (plan, table): each table
    entry is (increments, block rows, numbers of the completed Q)."""
    first = n - b
    number = {(v,): v - first for v in range(first, n)}
    plan = []
    for size in range(2, min(b, t) + 1):
        for q in combinations(range(first, n), size):
            plan.append((number[q[:-1]], q[-1], t - size))
            number[q] = len(number)
    pairs = list(combinations(range(b), 2))
    k = len(pairs)
    table = []
    for s in range(1 << k):
        nbrs = [0] * b
        for p, (x, y) in enumerate(pairs):
            if (s >> (k - 1 - p)) & 1:  # the block's first slot is decided first
                nbrs[x] |= 1 << (first + y)
                nbrs[y] |= 1 << (first + x)
        complete = tuple(i for q, i in number.items() if len(q) >= 2
                         and all((nbrs[x - first] >> y) & 1 for x, y in combinations(q, 2)))
        table.append((tuple(nb.bit_count() for nb in nbrs), tuple(nbrs), complete))
    return plan, table


@pytest.mark.parametrize("b", range(1, 6))
def test_block_table_matches_reference(b):
    for n in sorted({b, 8}):
        for t in (3, 4, 5):
            plan, incs, completes, rows = _block_table(n, b, t)
            want_plan, table = reference_block_table(n, b, t)
            assert plan == want_plan, (n, b, t)
            assert len(incs) == len(completes) == len(rows) == len(table) == 1 << b * (b - 1) // 2
            for s, (inc, nbrs, complete) in enumerate(table):
                assert tuple(incs[s].tolist()) == inc, (n, b, t, s)
                assert tuple(rows[s]) == nbrs, (n, b, t, s)
                assert tuple(b + i for i in np.flatnonzero(completes[s]).tolist()) == complete, (n, b, t, s)
