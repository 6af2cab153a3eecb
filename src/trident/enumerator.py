"""Exhaustive and randomized search over degree-bounded graphs.

The exhaustive searcher walks every labeled graph on n vertices with
maximum degree at most d by backtracking over edge slots, pruning any
branch that would push an endpoint past the degree cap, and maintaining
the t-clique count incrementally.  Extremal survivors are reduced to
canonical form to decide the uniqueness verdict.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .bounds import gls_bound
from .errors import (
    ExhaustiveLimitExceeded,
    InvalidArgument,
    TooLargeForCanonicalization,
)
from .formats import g6_encode
from .graph import Graph, _is_int, _iter_bits, build_graph, check_int

DEFAULT_EXHAUSTIVE_LIMIT = 8
EXHAUSTIVE_LIMIT_ENV = "TRIDENT_MAX_EXHAUSTIVE_N"
CANONICAL_LIMIT = 10
BLOCK = 4  # the search completes the slots among the last BLOCK vertices from one table


def exhaustive_limit() -> int:
    """Largest n enumerate_and_verify accepts, from TRIDENT_MAX_EXHAUSTIVE_N."""
    raw = os.environ.get(EXHAUSTIVE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_EXHAUSTIVE_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgument(f"{EXHAUSTIVE_LIMIT_ENV}={raw!r} is not an integer") from None


@dataclass(frozen=True)
class EnumerationReport:
    n: int
    d: int
    t: int
    bound: int
    graphs_enumerated: int
    max_cliques_found: int
    violation_found: bool
    extremal_graphs: list[str]  # canonical graph6 strings, sorted
    uniqueness_verdict: str  # unique-as-predicted | multiple-extremal | not-applicable
    matches_prediction: bool

    def to_dict(self) -> dict:
        return {**vars(self), "extremal_graphs": list(self.extremal_graphs)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


# -- constructions ---------------------------------------------------------


def build_extremal(n: int, d: int) -> Graph:
    """q disjoint copies of K_{d+1} plus one K_r, where n = q(d+1) + r."""
    n, d = check_int(n, "vertex count", 1), check_int(d, "maximum degree", 1)
    edges = []
    block_start = 0
    while block_start < n:
        size = min(d + 1, n - block_start)
        for i in range(block_start, block_start + size):
            for j in range(i + 1, block_start + size):
                edges.append((i, j))
        block_start += size
    return build_graph(n, edges)


_rngs = threading.local()  # one RandomState per thread, reseeded by every call


def _accept(pairs: np.ndarray, deg: np.ndarray, d: int) -> np.ndarray:
    """The proposals of one chunk that the ordered rule accepts.

    ``deg`` holds the degrees at the chunk's start.  Degrees only grow, so
    loops and pairs with a full endpoint are refused whatever comes before
    them.  A vertex whose degree plus its occurrences among the surviving
    pairs is at most d (uncontested) is below the cap at each of them, so
    a pair of two such vertices is accepted.  The other pairs go through
    one loop in order: it sees every pair touching a contested vertex, so
    its counts are exact there, and an uncontested endpoint passes anyway.
    """
    u, v = pairs.T
    full = deg >= d
    live = pairs[(u != v) & ~full[u] & ~full[v]]
    uncontested = deg + np.bincount(live.ravel(), minlength=deg.size) <= d
    bulk = uncontested[live[:, 0]] & uncontested[live[:, 1]]
    rest = live[~bulk]
    cur = deg.tolist()  # the loop's counts, from the chunk's start
    kept = []
    for k, (a, b) in enumerate(rest.tolist()):
        if cur[a] < d and cur[b] < d:
            cur[a] += 1
            cur[b] += 1
            kept.append(k)
    return np.concatenate([live[bulk], rest[kept]])


def random_bounded_graph(n: int, d: int, seed: int) -> Graph:
    """Seeded random graph with maximum degree at most d.

    Uniform edge proposals are accepted in order while both endpoints are
    below the cap; the proposal budget is 4*n*d, after which generation
    halts.  Deterministic for a fixed (n, d, seed); n and d are positive
    integers and the seed an integer in [0, 2**32), numpy's ``RandomState``
    range (numpy integers are accepted, bools are not).
    """
    n, d = check_int(n, "vertex count", 1), check_int(d, "maximum degree", 1)
    if not (_is_int(seed) and 0 <= seed < 2**32):
        raise InvalidArgument(f"seed must be an integer in [0, 2**32), got {seed!r}")
    rng = getattr(_rngs, "rng", None)
    if rng is None:
        rng = _rngs.rng = np.random.RandomState()
    rng.seed(seed)  # the stream of RandomState(seed), without a fresh generator
    deg = np.zeros(n, np.int64)
    out = np.empty((n * d // 2 + 1, 2), np.int64)
    m = 0
    remaining = 4 * n * d
    # Each chunk costs O(n) besides its draws; the draws do not depend on
    # the split, and build_graph sorts, so the order of acceptance is free.
    # _accept's arrays die with it, before build_graph's peak.
    size = max(1 << 14, n)
    while remaining > 0:
        take = min(size, remaining)
        accepted = _accept(rng.randint(0, n, size=(take, 2)), deg, d)
        remaining -= take
        out[m:m + len(accepted)] = accepted
        m += len(accepted)
        deg += np.bincount(accepted.ravel(), minlength=n)
    return build_graph(n, out[:m])


# -- canonical forms -------------------------------------------------------


def _refine_colors(rows: list[int]) -> list[int]:
    """Iterated neighbor-multiset color refinement (label-invariant)."""
    n = len(rows)
    nbrs = [list(_iter_bits(r)) for r in rows]
    colors = [len(nb) for nb in nbrs]
    for _ in range(n):
        keys = [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(n)]
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [palette[k] for k in keys]
        if new == colors:
            break
        colors = new
    return colors


def canonical_form(g: Graph) -> bytes:
    """Label-invariant canonical byte string (the minimum graph6 encoding).

    Exact isomorphism dedup: identical for isomorphic graphs, distinct
    otherwise, at the small scales the enumerator works at (n <= 10).
    """
    return _canonical(g.neighbor_masks())


def _canonical(rows: list[int]) -> bytes:
    """``canonical_form`` of the graph whose bit rows are ``rows``.

    The string is the minimum of the graph6 bits over every vertex order
    that lists the refined color classes in color order.  A depth-first
    search fixes the order one position at a time, drawing each position
    from its class; position j appends column j of the bits, its
    adjacencies to positions 0..j-1.  Every order gives a string of the
    same length, so a branch whose prefix already exceeds the best
    string's is cut without changing the minimum (the search-tree
    pruning of McKay's canonical labelling, without automorphism
    pruning).  A candidate v is also skipped at a position where a twin u
    was tried (their rows agree outside the pair): swapping u and v fixes
    the placed prefix and the classes and maps edges to edges, so both
    subtrees hold the same strings.
    """
    n = len(rows)
    if n > CANONICAL_LIMIT:
        raise TooLargeForCanonicalization(f"canonical_form limited to n <= {CANONICAL_LIMIT}")
    colors = _refine_colors(rows)
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    pool: list[list[int]] = []  # the class that position j draws from
    for c in sorted(classes):
        pool += [classes[c]] * len(classes[c])

    nbits = n * (n - 1) // 2
    best = (1 << nbits) - 1  # no string is larger
    order: list[int] = []

    def place(j, bits, used):
        nonlocal best
        if j == n:
            best = bits  # the prefix test at the last column kept bits <= best
            return
        shift = nbits - j * (j + 1) // 2  # the bits still to come after column j
        tried: list[int] = []
        for v in pool[j]:
            if (used >> v) & 1:
                continue
            rv = rows[v]
            if any(rv & ~(1 << u) == rows[u] & ~(1 << v) for u in tried):
                continue
            tried.append(v)
            col = 0
            for u in order:
                col = (col << 1) | ((rv >> u) & 1)
            bits_v = (bits << j) | col
            if bits_v > best >> shift:
                continue
            order.append(v)
            place(j + 1, bits_v, used | (1 << v))
            order.pop()

    place(0, 0, 0)
    return g6_encode(n, [nbits - 1 - b for b in _iter_bits(best)])  # the first pair is the top bit


# -- exhaustive search -----------------------------------------------------


def _cliques_in_mask(adj: list[int], mask: int, k: int) -> int:
    """Number of k-subsets of ``mask`` inducing a complete subgraph."""
    if k == 0:
        return 1
    if k == 1:
        return mask.bit_count()
    total = 0
    mm = mask
    while mm:
        b = mm & -mm
        v = b.bit_length() - 1
        mm ^= b
        total += _cliques_in_mask(adj, mask & adj[v] & ~((b << 1) - 1), k - 1)
    return total


def _block_table(n: int, b: int, t: int):
    """How the search completes the slots among the last b vertices.

    The block's sets Q with 2 <= |Q| <= t are numbered b, b + 1, ... in
    order of size; each extends a smaller set (a single vertex numbered
    0..b-1, or an earlier Q) by one vertex.  Returns (plan, table):
    ``plan[i]`` is (number of the smaller set, the added vertex, t - |Q|)
    for the Q numbered b + i.  ``table`` lists every subset S of the
    block's C(b, 2) slots in the search's skip-before-take order, as
    (degree increment per block vertex, each block vertex's neighbors
    in S as a bit row, numbers of the Q that S makes complete).
    """
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


def _search_subtree(n, d, t, prefix_bits, prefix_len):
    """Enumerate all completions of a fixed prefix of edge-slot decisions.

    Returns (graphs_enumerated, best_count, extremal_graphs), each graph
    as its n bit rows.  The prefix decides the first ``prefix_len``
    lexicographic slots: below it the recursion follows only the prefix
    bit, so an infeasible prefix reaches no graph and yields (0, 0, []).
    Tied extremal graphs are kept only while the best count is positive;
    a subtree with no t-clique returns no graph.

    The slots among the last BLOCK vertices come last.  The search stops
    before them and completes them from one table: a t-clique that gains
    an edge there meets the block in a complete set Q with |Q| >= 2, and
    its other t - |Q| vertices are a clique in the common lower
    neighborhood of Q, which is fully decided.  So a completion depends
    only on the block's residual degree caps and on those clique counts,
    and is computed once per distinct pair.  At the stop every row is
    complete but for the block's internal edges, which the table's rows add.
    """
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    ns = len(slots)
    b = min(BLOCK, n)
    while b * (b - 1) // 2 > ns - prefix_len:  # the prefix decides no block slot
        b -= 1
    stop = ns - b * (b - 1) // 2
    first = n - b
    plan, table = _block_table(n, b, t)
    # A block vertex gains at most b - 1 edges, so larger caps are equal.
    residual = [min(d - k, b - 1) for k in range(d + 1)]
    adj = [0] * n
    deg = [0] * n
    graphs, best, found = 0, 0, []
    memo = {}
    triangles_only = t == 3
    below = (1 << prefix_len) - 1  # the slots the prefix decides
    must_take, must_skip = prefix_bits & below, ~prefix_bits & below

    def complete(key):
        """(feasible completions, best gain, block rows of the best ones in order)."""
        feasible, top, tops = 0, -1, []
        for incs, nbrs, qs in table:
            if any(inc > c for inc, c in zip(incs, key)):
                continue
            feasible += 1
            gain = sum(key[q] for q in qs)
            if gain > top:
                top, tops = gain, [nbrs]
            elif gain == top:
                tops.append(nbrs)
        return feasible, top, tops

    def finish(cnt):
        nonlocal graphs, best, found
        # key: the block's residual caps, then the count of (t - |Q|)-cliques
        # in each Q's common neighborhood; block rows hold lower vertices only.
        key = [residual[k] for k in deg[first:]]
        common = adj[first:]
        for i, v, k in plan:
            m = common[i] & adj[v]
            common.append(m)
            key.append(1 if k == 0 else m.bit_count() if k == 1 else _cliques_in_mask(adj, m, k))
        key = tuple(key)
        entry = memo.get(key)
        if entry is None:
            entry = memo[key] = complete(key)
        feasible, gain, tops = entry
        graphs += feasible
        total = cnt + gain
        if total > best:
            best, found = total, []
        if total == best > 0:
            found.extend(adj[:first] + [a | x for a, x in zip(adj[first:], nbrs)] for nbrs in tops)

    def rec(idx, cnt):
        if idx == stop:
            finish(cnt)
            return
        if not (must_take >> idx) & 1:
            rec(idx + 1, cnt)
        i, j = slots[idx]
        if not (must_skip >> idx) & 1 and deg[i] < d and deg[j] < d:
            common = adj[i] & adj[j]
            delta = common.bit_count() if triangles_only else _cliques_in_mask(adj, common, t - 2)
            bi, bj = 1 << i, 1 << j
            adj[i] |= bj
            adj[j] |= bi
            deg[i] += 1
            deg[j] += 1
            rec(idx + 1, cnt + delta)
            adj[i] &= ~bj
            adj[j] &= ~bi
            deg[i] -= 1
            deg[j] -= 1

    rec(0, 0)
    return graphs, best, found


def _subtree_worker(args):
    return _search_subtree(*args)


def _predicted_forms(n: int, d: int, r: int) -> list[bytes]:
    """Canonical forms of qK_{d+1} joined with every graph H on r vertices (r <= 2),
    or just K_r when r >= 3."""
    rows = build_extremal(n, d).neighbor_masks()
    forms = {_canonical(rows)}
    if r == 2:  # the K_2, on the last two vertices, may also be two isolated vertices
        forms.add(_canonical(rows[:-2] + [0, 0]))
    return sorted(forms)


def enumerate_and_verify(n: int, d: int, t: int = 3, jobs: int = 1) -> EnumerationReport:
    """Visit every labeled graph on n vertices with max degree <= d.

    Records the number of such graphs, the maximum t-clique count and the
    canonical forms of the extremal graphs (the empty graph's alone when
    no graph has a t-clique), and compares them with the predicted
    disjoint-clique forms.  With ``jobs > 1`` the search tree is split by
    its first slots over that many worker processes; the report is the same.
    """
    n, jobs = check_int(n, "vertex count", 1), check_int(jobs, "jobs", 1)
    limit = exhaustive_limit()
    if n > limit:
        raise ExhaustiveLimitExceeded(f"n={n} exceeds exhaustive limit {limit}")
    if n > CANONICAL_LIMIT:
        raise TooLargeForCanonicalization(f"canonical_form limited to n <= {CANONICAL_LIMIT}")
    params, bound = gls_bound(n, d, t)
    d, t = params.d, params.t

    # One subtree per prefix of the first ``depth`` slots; one job searches the whole tree.
    depth = 0 if jobs == 1 else min(n * (n - 1) // 2, (4 * jobs - 1).bit_length())
    tasks = [(n, d, t, bits, depth) for bits in range(1 << depth)]
    if len(tasks) == 1:
        results = [_subtree_worker(tasks[0])]
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_subtree_worker, tasks))
    graphs, best, found = 0, 0, []
    for sg, sb, sf in results:
        graphs += sg
        if sb > best:
            best, found = sb, sf
        elif sb == best:
            found.extend(sf)

    # A cell with no t-clique (bound 0) reports one representative, the empty graph.
    forms = sorted({_canonical(rows) for rows in found or [[0] * n]})
    violation = best > bound

    # The structural prediction concerns triangles and is vacuous at bound 0.
    # It has two forms exactly when r = 2, so then the verdict is multiple.
    matches, verdict = True, "not-applicable"
    if t == 3 and bound > 0:
        matches = forms == _predicted_forms(n, d, params.r)
        verdict = "unique-as-predicted" if matches and len(forms) == 1 else "multiple-extremal"

    return EnumerationReport(
        n=n,
        d=d,
        t=t,
        bound=bound,
        graphs_enumerated=graphs,
        max_cliques_found=best,
        violation_found=violation,
        extremal_graphs=[f.decode("ascii") for f in forms],
        uniqueness_verdict=verdict,
        matches_prediction=matches,
    )
