"""Array kernels for the large-graph paths.

``forward_triangle_chunks`` lists the triangles of a forward-oriented CSR
with numpy, and ``forward_triangles`` counts them.
"""

from __future__ import annotations

import numpy as np

# Most wedges forward_triangle_chunks holds in memory at once.
WEDGE_BUDGET = 1 << 22


def _closed_wedges(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices into ``queries`` of the wedge keys found in the sorted ``keys``,
    and the positions in ``keys`` where they are found; ``queries`` is
    overwritten."""
    # Each query's index rides in the low bits, so sorting keeps track of it.
    shift = max(queries.size - 1, 1).bit_length()
    packed = queries
    packed <<= shift
    packed |= np.arange(queries.size)
    packed.sort()  # sorted needles keep searchsorted's probes close together
    wedges = packed >> shift
    pos = np.searchsorted(keys, wedges)
    np.minimum(pos, keys.size - 1, out=pos)
    hit = keys[pos] == wedges
    return packed[hit] & ((1 << shift) - 1), pos[hit]


def forward_triangle_chunks(indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray):
    """Triangles of a forward-oriented CSR with sorted rows, chunk by chunk.

    Every triangle lies in the forward row of its lowest-ranked vertex h as
    a wedge v < w, and is closed by the edge vw.  Wedges are built from rows
    grouped by length, keyed v*n + w and looked up in ``keys``, the sorted
    undirected edge keys min*n + max of the same graph, at most WEDGE_BUDGET
    of them at a time.
    Yields one (h, v, w, pos) of int64 arrays per chunk that closes any
    wedge, where pos is the position of the key of vw in ``keys``.
    """
    n = indptr.size - 1
    out_deg = np.diff(indptr)
    # A chunk's wedge indices must fit in the low bits its keys leave free.
    budget = min(WEDGE_BUDGET, 1 << max(63 - (n * n).bit_length(), 0))
    for k in np.unique(out_deg[out_deg > 1]).tolist():
        heads = np.flatnonzero(out_deg == k)
        pairs = k * (k - 1) // 2
        if pairs <= budget:
            i, j = np.triu_indices(k, 1)
            step = budget // pairs
            for s in range(0, heads.size, step):
                h = heads[s:s + step]
                nbrs = indices[indptr[h, None] + np.arange(k)]
                found, pos = _closed_wedges(keys, ((nbrs * n)[:, i] + nbrs[:, j]).ravel())
                if found.size:
                    row, pair = np.divmod(found, pairs)
                    yield h[row], nbrs[row, i[pair]], nbrs[row, j[pair]], pos
        else:  # a single row outgrows the budget: take its wedges a v at a time
            for h in heads.tolist():
                row = indices[indptr[h]:indptr[h] + k]
                for a in range(k - 1):
                    for s in range(a + 1, k, budget):
                        found, pos = _closed_wedges(keys, row[a] * n + row[s:s + budget])
                        if found.size:
                            yield (np.full(found.size, h, np.int64), np.full(found.size, row[a]),
                                   row[s + found], pos)


def forward_triangles(indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray) -> int:
    """Triangle count over a forward-oriented CSR with sorted rows and the
    sorted undirected edge keys of the same graph."""
    return sum(h.size for h, _, _, _ in forward_triangle_chunks(indptr, indices, keys))

