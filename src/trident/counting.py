"""Exact triangle, clique, and neighborhood-meeting counts.

The central runtime identity (checked on every full report): six times the
sum over vertices of the number of triangles meeting each closed
neighborhood, plus the ordered-4-tuple statistic W(G), equals the sum of
cubed degrees.  A failure is an implementation bug, never a property of
the input, and raises IdentityViolation.

Triangles, meeting counts and W come from one of two kernels, chosen in
``_counts`` by size: word-parallel bitset operations on n-bit rows built as
scratch for small graphs, and the numpy forward triangle listing of
``_fast`` for large ones.  t-cliques for t >= 3, and the K4 term of the
large graphs' W, come from that listing for every n, each triangle grown
one vertex at a time in pieces of bounded size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fast
from .errors import IdentityViolation, InvalidCliqueSize
from .graph import Graph, _iter_bits, check_int, closed_neighborhood, delete_vertices


@dataclass(frozen=True)
class CountsReport:
    triangle_count: int
    per_vertex_meeting: list[int]
    w_count: int
    degree_cube_sum: int
    omega_count: int

    def to_dict(self) -> dict:
        return {**vars(self), "per_vertex_meeting": list(self.per_vertex_meeting)}

    @classmethod
    def from_dict(cls, d: dict) -> "CountsReport":
        return cls(**{**d, "per_vertex_meeting": list(d["per_vertex_meeting"])})


# -- kernels ----------------------------------------------------------------

# Graphs with n*n at most this many bits are counted by the bitset kernel over
# n-bit neighborhood rows built as scratch; larger ones by the numpy listing.
# The measured crossover: from n = 1,024 on, the listing is 2x or more faster
# on sparse random graphs, and at most about 1.6x slower on dense planted ones.
DENSE_BIT_BUDGET = 2**20


def _counts(g: Graph, want_meeting: bool = True, cubes: int | None = None):
    """(triangles, meeting counts, W) from the kernel for g's size; W needs
    cubes = sum d^3 and is None without it, as are unwanted meeting counts."""
    if g.n * g.n <= DENSE_BIT_BUDGET:
        return _bitset_counts(g.neighbor_masks(), want_meeting, cubes)
    return _csr_counts(g, want_meeting, cubes)


def _degree_cube_sum(g: Graph) -> int:
    """sum d^3 in exact Python integers, one term per distinct degree."""
    return sum(k**3 * c for k, c in enumerate(np.bincount(np.diff(g._indptr)).tolist()))


def _bitset_counts(rows: list[int], want_meeting: bool = True, cubes: int | None = None):
    """(triangles, meeting counts, W) by word-parallel operations on the
    neighborhood bitsets ``rows`` (bit u of rows[v] is edge uv); each
    triangle u < v < w is met once, at edge uv.

    Each triangle adds one to the meeting count of every vertex in the union
    of its three closed neighborhoods, all at once: the counts are kept as
    bit planes and the union is ripple-carried into them.  W is
    sum d^3 - 6 sum_x d(x) t(x) + 6 sum_e s(e)^2 - 24 K4 as in _csr_counts:
    sum_x d(x) t(x) is the sum over triangles of their degree sums, s(uv) the
    common neighbors of u and v, and each K4 is met from its four triangles.
    """
    n = len(rows)
    closed = [r | (1 << v) for v, r in enumerate(rows)]
    # The meeting counts in binary: bit x of planes[i] is bit i of the count
    # of x.  Fewer than n^3 triangles fit in (n^3).bit_length() planes.
    planes = [0] * (n**3).bit_length()
    want_w = cubes is not None
    deg = [r.bit_count() for r in rows] if want_w else None
    triangles = degree_sums = squares = k4_pairs = 0
    for u in range(n):
        ru = rows[u]
        for v in _iter_bits(ru >> (u + 1)):
            v += u + 1
            common = ru & rows[v]
            later = common >> (v + 1)
            triangles += later.bit_count()
            if want_w:
                squares += common.bit_count() ** 2
            if not (want_meeting or want_w):
                continue
            for w in _iter_bits(later):
                w += v + 1
                if want_meeting:  # add 1 to the counts in N[u] | N[v] | N[w]
                    carry, i = closed[u] | closed[v] | closed[w], 0
                    while carry:
                        plane = planes[i]
                        planes[i] = plane ^ carry
                        carry &= plane
                        i += 1
                if want_w:
                    degree_sums += deg[u] + deg[v] + deg[w]
                    k4_pairs += (common & rows[w]).bit_count()
    meeting = None
    if want_meeting:  # no count exceeds the triangle count
        used = list(enumerate(planes[:triangles.bit_length()]))
        meeting = [sum(((p >> x) & 1) << i for i, p in used) for x in range(n)]
    w_count = cubes - 6 * degree_sums + 6 * squares - 6 * k4_pairs if want_w else None
    return triangles, meeting, w_count


# -- triangle counting ----------------------------------------------------


def _orient(g: Graph):
    """((indptr, indices), keys): each edge oriented from lower to higher
    (degree, index) rank as a CSR with sorted rows, and the undirected edge
    keys u*n + v (u < v), sorted because the CSR lists them in order."""
    n, indices = g.n, g._indices
    heads = np.repeat(np.arange(n), np.diff(g._indptr))
    rank = np.asarray(g.degrees, np.int64) * n + np.arange(n)  # (degree, index) as one key
    forward = rank[heads] < rank[indices]  # masking keeps each sorted row sorted
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(heads[forward], minlength=n), out=indptr[1:])
    up = heads < indices
    return (indptr, indices[forward]), heads[up] * n + indices[up]


def count_triangles(g: Graph) -> int:
    """Exact number of unordered vertex triples inducing a triangle."""
    return _counts(g, want_meeting=False)[0]


# -- t-clique counting ----------------------------------------------------


def count_cliques(g: Graph, t: int) -> int:
    """Exact number of t-subsets of vertices inducing a complete graph."""
    t = check_int(t, "clique size", 1, InvalidCliqueSize)
    if t == 1:
        return g.n
    if t == 2:
        return g.m
    fwd, keys = _orient(g)
    return sum(_extended_cliques(fwd, keys, [h, v, w], t - 3)
               for h, v, w, _ in _fast.forward_triangle_chunks(*fwd, keys))


# -- neighborhood meeting counts ------------------------------------------


def triangles_meeting(g: Graph, v: int) -> int:
    """Triangles with at least one vertex in N[v], via the peel decomposition."""
    g.check_vertex(v)
    rest, _ = delete_vertices(g, closed_neighborhood(g, v))
    return count_triangles(g) - count_triangles(rest)


def meeting_counts(g: Graph) -> list[int]:
    """Per-vertex triangles-meeting counts, via triangle enumeration and marking.

    A triangle {a, b, c} meets N[v] exactly when v lies in
    N[a] | N[b] | N[c] (closed), so one pass over the triangles suffices.
    """
    return _counts(g)[1]


# -- W(G) ------------------------------------------------------------------


def count_w(g: Graph) -> int:
    """Ordered 4-tuples (x, u, v, w): u, v, w adjacent to x, pairwise non-adjacent.

    Repeats among u, v, w are allowed.  Computed by inclusion-exclusion over
    the three forbidden pairs, summed over all centers; validated against a
    quadruple-loop oracle in the test suite.
    """
    return _counts(g, want_meeting=False, cubes=_degree_cube_sum(g))[2]


# -- CSR path: every statistic from one triangle listing --------------------


def _gather_neighbors(indptr: np.ndarray, indices: np.ndarray, verts: np.ndarray):
    """(i, u) for every neighbor u of every verts[i], as two flat arrays."""
    lens = indptr[verts + 1] - indptr[verts]
    owner = np.repeat(np.arange(verts.size), lens)
    offsets = indptr[verts] - np.cumsum(lens) + lens
    return owner, indices[np.repeat(offsets, lens) + np.arange(owner.size)]


def _edge_positions(keys: np.ndarray, n: int, x: np.ndarray, y: np.ndarray):
    """Positions of the pairs {x, y} in the sorted edge keys, and which are edges."""
    q = np.minimum(x, y) * n + np.maximum(x, y)
    pos = np.searchsorted(keys, q)
    np.minimum(pos, keys.size - 1, out=pos)
    return pos, keys[pos] == q


def _extended_cliques(fwd, keys: np.ndarray, clique: list[np.ndarray], more: int) -> int:
    """Cliques that add ``more`` vertices to the cliques in the columns of
    ``clique``, where clique[0] = h is the lowest-ranked member and the others
    lie in h's forward row in increasing id order.

    Each level adds the forward neighbors y of h above the last member by id
    that are adjacent to every member but h, so each clique is found once,
    from its lowest-ranked vertex.  Rows are taken in pieces whose gathered
    forward rows stay within the wedge budget.
    """
    if more == 0:
        return clique[0].size
    fwd_ptr, fwd_idx = fwd
    n, total = fwd_ptr.size - 1, 0
    step = max(1, _fast.WEDGE_BUDGET // max(int(np.diff(fwd_ptr).max(initial=0)), 1))
    for s in range(0, clique[0].size, step):
        piece = [c[s:s + step] for c in clique]
        owner, y = _gather_neighbors(fwd_ptr, fwd_idx, piece[0])
        above = y > piece[-1][owner]
        owner, y = owner[above], y[above]
        for c in piece[1:]:
            _, adjacent = _edge_positions(keys, n, c[owner], y)
            owner, y = owner[adjacent], y[adjacent]
        total += _extended_cliques(fwd, keys, [c[owner] for c in piece] + [y], more - 1)
    return total


def _csr_counts(g: Graph, want_meeting: bool = True, cubes: int | None = None):
    """(triangles, meeting counts, W) of a large graph from one forward
    triangle listing of its CSR.

    Each triangle marks the union of its three closed rows.  W sums
    count_w's per-center inclusion-exclusion over all centers:
    sum d^3 - 6 sum_x d(x) t(x) + 6 sum_e s(e)^2 - 24 K4, where t(x) counts
    the triangles at x, s(e) those on the edge e, and K4 the 4-cliques, one
    extension level of the listing.  W never uses the meeting counts, so
    full_report's identity stays a check.
    """
    n, indptr, indices = g.n, g._indptr, g._indices
    fwd, keys = _orient(g)
    if not want_meeting and cubes is None:
        return _fast.forward_triangles(*fwd, keys), None, None
    want_w = cubes is not None
    marks = np.zeros(n, np.int64)
    at_vertex = np.zeros(n, np.int64)  # t(x)
    on_edge = np.zeros(keys.size, np.int64)  # s(e), indexed like keys
    triangles = k4 = 0
    # Triangles per piece: gathering their rows stays within the wedge budget.
    step = max(1, _fast.WEDGE_BUDGET // (3 * max(g.degrees, default=0) + 3))
    for chunk in _fast.forward_triangle_chunks(*fwd, keys):
        triangles += chunk[0].size
        for s in range(0, chunk[0].size, step):
            a, b, c, bc = (arr[s:s + step] for arr in chunk)
            tri = np.concatenate([a, b, c])
            if want_meeting:
                owner, nbr = _gather_neighbors(indptr, indices, tri)
                member = np.concatenate([owner % a.size * n + nbr,
                                         np.arange(tri.size) % a.size * n + tri])
                member.sort()  # each (triangle, vertex) key once: sorting beats hashing
                first = np.concatenate([[True], member[1:] != member[:-1]])
                marks += np.bincount(member[first] % n, minlength=n)
            if want_w:
                at_vertex += np.bincount(tri, minlength=n)
                ab, _ = _edge_positions(keys, n, a, b)
                ac, _ = _edge_positions(keys, n, a, c)
                on_edge += np.bincount(np.concatenate([ab, ac, bc]), minlength=keys.size)
                k4 += _extended_cliques(fwd, keys, [a, b, c], 1)
    w = None
    if want_w:
        w = (cubes - 6 * int(np.diff(indptr) @ at_vertex)
             + 6 * int(on_edge @ on_edge) - 24 * k4)
    return triangles, marks.tolist() if want_meeting else None, w


# -- full report -----------------------------------------------------------


def full_report(g: Graph) -> CountsReport:
    """All counting statistics at once; asserts the 4-tuple identity exactly.

    All three counts come from one pass of one kernel.
    """
    cubes = _degree_cube_sum(g)
    triangles, meeting, w = _counts(g, cubes=cubes)
    report = CountsReport(
        triangle_count=triangles,
        per_vertex_meeting=meeting,
        w_count=w,
        degree_cube_sum=cubes,
        omega_count=6 * sum(meeting),
    )
    if report.omega_count + report.w_count != report.degree_cube_sum:
        raise IdentityViolation(
            f"6*sum|T_N[v]| + |W| = {report.omega_count} + {report.w_count} "
            f"!= {report.degree_cube_sum} = sum d^3"
        )
    return report
