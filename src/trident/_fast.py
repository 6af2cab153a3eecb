"""Array kernels for the large-graph paths.

``forward_triangle_chunks`` lists the triangles of a forward-oriented CSR
with numpy, and ``forward_triangles`` counts them.  A table of one hashed bit
per edge key, a one-hash Bloom filter, rejects most open wedges unsearched.
"""

from __future__ import annotations

import numpy as np

# Most wedges forward_triangle_chunks holds in memory at once.
WEDGE_BUDGET = 1 << 22


def _slots(keys: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Byte and bit of each key in ``table``: of its 2**b bits, a key's is the
    top b bits of key * 0x9E3779B97F4A7C15 mod 2**64 (Fibonacci hashing)."""
    slot = keys.astype(np.uint64)
    slot *= np.uint64(0x9E3779B97F4A7C15)
    slot >>= np.uint64(62 - table.size.bit_length())
    bit = (slot & 7).astype(np.uint8)
    slot >>= np.uint64(3)
    return slot, bit


def _bit_table(keys: np.ndarray) -> np.ndarray:
    """A bit table of 8 to 16 bits per key, set 2**20 keys at a time."""
    table = np.zeros(1 << (max(8 * keys.size, 8).bit_length() - 3), np.uint8)
    for s in range(0, keys.size, 1 << 20):
        byte, bit = _slots(keys[s:s + (1 << 20)], table)
        np.bitwise_or.at(table, byte, np.left_shift(1, bit, out=bit))
    return table


def _closed_wedges(keys: np.ndarray, table: np.ndarray,
                   queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices into ``queries`` of the wedge keys found in the sorted ``keys``,
    and the positions in ``keys`` where they are found; only queries whose bit
    is set in ``table``, the ``_bit_table`` of ``keys``, are searched."""
    byte, bit = _slots(queries, table)
    lit = np.flatnonzero(np.right_shift(table[byte], bit, out=bit) & 1)
    # Each query's index rides in the low bits, so sorting keeps track of it.
    shift = max(queries.size - 1, 1).bit_length()
    packed = queries[lit]
    packed <<= shift
    packed |= lit
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
    of them at a time.  A wedge whose bit is clear in the table of 2**b bits,
    b = (8m).bit_length(), hashed from ``keys`` is open and skips that search.
    Yields one (h, v, w, pos) of int64 arrays per chunk that closes any
    wedge, where pos is the position of the key of vw in ``keys``.
    """
    n = indptr.size - 1
    out_deg = np.diff(indptr)
    # A chunk's wedge indices must fit in the low bits its keys leave free.
    budget = min(WEDGE_BUDGET, 1 << max(63 - (n * n).bit_length(), 0))
    table = _bit_table(keys)
    for k in np.unique(out_deg[out_deg > 1]).tolist():
        heads = np.flatnonzero(out_deg == k)
        pairs = k * (k - 1) // 2
        if pairs <= budget:
            i, j = np.triu_indices(k, 1)
            step = budget // pairs
            for s in range(0, heads.size, step):
                h = heads[s:s + step]
                nbrs = indices[indptr[h, None] + np.arange(k)]
                found, pos = _closed_wedges(keys, table, ((nbrs * n)[:, i] + nbrs[:, j]).ravel())
                if found.size:
                    row, pair = np.divmod(found, pairs)
                    yield h[row], nbrs[row, i[pair]], nbrs[row, j[pair]], pos
        else:  # a single row outgrows the budget: take its wedges a v at a time
            for h in heads.tolist():
                row = indices[indptr[h]:indptr[h] + k]
                for a in range(k - 1):
                    for s in range(a + 1, k, budget):
                        found, pos = _closed_wedges(keys, table, row[a] * n + row[s:s + budget])
                        if found.size:
                            yield (np.full(found.size, h, np.int64), np.full(found.size, row[a]),
                                   row[s + found], pos)


def forward_triangles(indptr: np.ndarray, indices: np.ndarray, keys: np.ndarray) -> int:
    """Triangle count over a forward-oriented CSR with sorted rows and the
    sorted undirected edge keys of the same graph."""
    return sum(h.size for h, _, _, _ in forward_triangle_chunks(indptr, indices, keys))

