"""Simple undirected graphs stored as one immutable CSR.

Graphs are immutable after construction: every mutating operation
(neighborhood deletion, complementation) returns a new Graph, so instances
are safe to share across threads.

The storage is ``_indptr``/``_indices`` (int64): the neighbors of v are
``_indices[_indptr[v]:_indptr[v + 1]]``, each row sorted and free of
duplicates, every edge stored in both directions.
"""

from __future__ import annotations

import bisect

import numpy as np

from .errors import EmptyGraph, InvalidArgument, InvalidVertex, SelfLoopRejected


def _is_int(x) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_int(value, what: str, low: int | None = None, error=InvalidArgument) -> int:
    """``value`` as a Python int, or ``error``: an int or numpy integer,
    not a bool, and at least ``low`` when given."""
    if not _is_int(value) or low is not None and value < low:
        rule = ("an integer" if low is None else "a nonnegative integer" if low == 0
                else f"an integer >= {low}")
        raise error(f"{what} must be {rule}, got {value!r}")
    return int(value)


def _iter_bits(mask: int):
    """Yield set bit positions of a Python int, ascending."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


class Graph:
    """Immutable simple undirected graph.

    Construct via :func:`build_graph` (or the readers in ``formats``); the
    constructor itself trusts its inputs.
    """

    __slots__ = ("n", "_indptr", "_indices", "degrees")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = n
        self._indptr = indptr
        self._indices = indices
        self.degrees = (indptr[1:] - indptr[:-1]).tolist()

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._indices.size // 2

    def check_vertex(self, v: int) -> None:
        if not (_is_int(v) and 0 <= v < self.n):
            raise InvalidVertex(f"vertex {v} not in [0, {self.n})")

    def has_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)
        self.check_vertex(v)
        lo, hi = self._indptr[u], self._indptr[u + 1]
        i = np.searchsorted(self._indices[lo:hi], v)
        return bool(i < hi - lo and self._indices[lo + i] == v)

    def neighbors(self, v: int) -> list[int]:
        """Sorted open neighborhood of v."""
        self.check_vertex(v)
        return self._indices[self._indptr[v]:self._indptr[v + 1]].tolist()

    def neighbor_masks(self) -> list[int]:
        """Open neighborhoods as n-bit Python ints: bit u of entry v is edge uv."""
        n, width = self.n, -(-self.n // 8)
        masks: list[int] = []
        step = max(1, 2**24 // max(8 * width, 1))  # rows per 16 MiB block of bools
        for lo in range(0, n, step):
            ptr = self._indptr[lo:lo + step + 1]
            block = np.zeros((ptr.size - 1, 8 * width), bool)
            block[np.repeat(np.arange(ptr.size - 1), np.diff(ptr)),
                  self._indices[ptr[0]:ptr[-1]]] = True
            data = np.packbits(block, axis=1, bitorder="little").tobytes()
            masks += [int.from_bytes(data[i:i + width], "little")
                      for i in range(0, len(data), width)]
        return masks

    def edges(self):
        """Iterate edges (u, v) with u < v in lexicographic order."""
        for u, v in self.edge_array().tolist():
            yield u, v

    def edge_list(self) -> list[tuple[int, int]]:
        return list(self.edges())

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) int64 array with u < v, lexicographically sorted."""
        edges = np.empty((self.m, 2), np.int64)
        at = 0
        for run in self._edge_runs(1 << 19):
            edges[at:at + len(run)] = run
            at += len(run)
        return edges

    def _edge_runs(self, step: int):
        """The edges u < v in order, as (k, 2) int64 arrays: one per run of
        CSR rows of at most ``step`` entries, or of one longer row."""
        indptr, end, lo = self._indptr, self._indices.size, 0
        while indptr[lo] < end:
            hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + step, "right")) - 1)
            ptr = indptr[lo:hi + 1]
            heads = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(ptr))
            tails = self._indices[ptr[0]:ptr[-1]]
            up = heads < tails
            yield np.stack([heads[up], tails[up]], axis=1)
            lo = hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges) -> Graph:
    """Build a Graph from an edge list; duplicate pairs are idempotent.

    ``edges`` may be any iterable of (u, v) pairs or an (m, 2) integer
    array.  Raises InvalidArgument for an n whose int64 keys would overflow,
    InvalidVertex for endpoints that are not integers in [0, n) and
    SelfLoopRejected for pairs (v, v).
    """
    n = check_int(n, "vertex count", 0)
    if n * n >= 2**63:  # the int64 keys head*n + tail reach n*n
        raise InvalidArgument(f"vertex count {n} is too large: n*n must stay below 2**63")
    rows = None if isinstance(edges, np.ndarray) else list(edges)
    arr = (edges if rows is None else np.array(rows)).reshape(-1, 2)
    if arr.size and arr.dtype.kind not in "iu":
        # Floats, strings and bools are refused.  Python ints past int64 come
        # as floats or objects, so the message takes them from the input.
        for u, v in arr.tolist() if rows is None else rows:
            if not all(type(x) is int and 0 <= x < n for x in (u, v)):
                raise InvalidVertex(f"edge ({u!r}, {v!r}) endpoint is not an integer in [0, {n})")
    # Compared in the input's dtype, so a uint64 endpoint cannot wrap.
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = arr[(arr[:, 0] < 0) | (arr[:, 0] >= n) | (arr[:, 1] < 0) | (arr[:, 1] >= n)][0]
        raise InvalidVertex(f"edge ({bad[0]}, {bad[1]}) endpoint not in [0, {n})")
    arr = arr.astype(np.int64, copy=False)
    if arr.size:
        loops = arr[:, 0] == arr[:, 1]
        if loops.any():
            v = int(arr[loops][0, 0])
            raise SelfLoopRejected(f"self-loop ({v}, {v}) rejected")
    # One key head*n + tail per direction: sorted, it is the CSR in row order.
    keys = np.concatenate([arr[:, 0] * n + arr[:, 1], arr[:, 1] * n + arr[:, 0]])
    keys.sort()
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])] if keys.size else keys
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)  # row v: keys >= v*n
    keys %= max(n, 1)  # the tails, in place
    return Graph(n, indptr, keys)


def closed_neighborhood(g: Graph, v: int) -> list[int]:
    """N[v] as a sorted vertex list: v together with its neighbors."""
    members = g.neighbors(v)
    bisect.insort(members, v)
    return members


def delete_vertices(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Induced subgraph on V minus ``vertices``, relabeled contiguously.

    Relabeling preserves original index order.  Returns (subgraph, kept)
    where kept[new_index] = original index.  Raises InvalidVertex for an id
    outside [0, n).
    """
    vertices = list(vertices)
    for v in vertices:
        g.check_vertex(v)
    alive = np.ones(g.n, bool)
    alive[vertices] = False
    # Survivors keep their order, so the relabeled rows stay sorted.
    new_id = np.cumsum(alive) - 1
    heads = np.repeat(np.arange(g.n), np.diff(g._indptr))
    keep = alive[heads] & alive[g._indices]
    kept = np.flatnonzero(alive)
    indptr = np.zeros(kept.size + 1, np.int64)
    np.cumsum(np.bincount(heads[keep], minlength=g.n)[kept], out=indptr[1:])
    return Graph(kept.size, indptr, new_id[g._indices[keep]]), kept.tolist()


def complement(g: Graph) -> Graph:
    """Complement graph: uv is an edge iff u != v and uv is not an edge of g."""
    # The complement's CSR holds up to n^2 int64 entries; building it takes
    # a few times that, so n stays at most 4096.
    if g.n * g.n > 2**24:
        raise InvalidArgument(f"complement of an n={g.n} graph has too many edges to build")
    taken = np.tri(g.n, dtype=bool)  # pairs (u, v) with v <= u, and then the edges
    edges = g.edge_array()
    taken[edges[:, 0], edges[:, 1]] = True
    return build_graph(g.n, np.argwhere(~taken))


def max_degree(g: Graph) -> int:
    if g.n == 0:
        raise EmptyGraph("max_degree of a graph with no vertices")
    return max(g.degrees)
