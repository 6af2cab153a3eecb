"""Reference answers computed with numpy alone, sharing no code with trident.

Every output the benchmark times is compared with these values outside the
timed region.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np


def edge_keys(n: int, edges: np.ndarray) -> np.ndarray:
    """Sorted, duplicate-free keys u*n + v (u < v) of an (m, 2) edge array."""
    edges = np.asarray(edges, np.int64).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys = np.sort(lo * n + hi)
    if keys.size:
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    return keys


def triangle_list(n: int, edges: np.ndarray) -> np.ndarray:
    """Triangles (u, v, w), u < v < w, as a (t, 3) array, by wedge lookup:
    each wedge v < w inside the higher-index neighbours of u closes a
    triangle exactly when v*n + w is an edge key."""
    keys = edge_keys(n, edges)
    found = [np.zeros((0, 3), np.int64)]
    if keys.size == 0:
        return found[0]
    heads, tails = keys // n, keys % n
    starts = np.searchsorted(heads, np.arange(n + 1))
    out_deg = np.diff(starts)
    for k in range(2, int(out_deg.max()) + 1):
        rows = starts[:-1][out_deg == k]
        if rows.size == 0:
            continue
        i, j = np.triu_indices(k, 1)
        v, w = tails[rows[:, None] + i].ravel(), tails[rows[:, None] + j].ravel()
        queries = v * n + w
        pos = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
        hit = keys[pos] == queries
        u = np.repeat(heads[rows], i.size)
        found.append(np.stack([u[hit], v[hit], w[hit]], axis=1))
    return np.concatenate(found)


def triangle_count(n: int, edges: np.ndarray) -> int:
    return len(triangle_list(n, edges))


def meeting_counts(n: int, edges: np.ndarray) -> np.ndarray:
    """Per vertex v, the triangles meeting the closed neighbourhood N[v].

    A triangle meets N[v] exactly when v lies in the union of its three
    vertices' closed neighbourhoods; each triangle's union is found by
    sorting the padded rows of those neighbourhoods and keeping first
    occurrences."""
    keys = edge_keys(n, edges)
    lo, hi, own = keys // n, keys % n, np.arange(n, dtype=np.int64)
    src = np.concatenate([lo, hi, own])
    dst = np.concatenate([hi, lo, own])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    starts = np.searchsorted(src, np.arange(n + 1))
    width = int(np.diff(starts).max()) if n else 0
    closed = np.full((n, width), -1, np.int64)
    closed[src, np.arange(src.size) - starts[src]] = dst
    tri = triangle_list(n, edges)
    rows = np.sort(closed[tri].reshape(len(tri), 3 * width), axis=1)
    first = np.ones(rows.shape, bool)
    first[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return np.bincount(rows[first & (rows >= 0)], minlength=n)


def degree_cube_sum(n: int, edges: np.ndarray) -> int:
    keys = edge_keys(n, edges)
    deg = np.bincount(keys // n, minlength=n) + np.bincount(keys % n, minlength=n)
    return int(np.sum(deg.astype(np.int64) ** 3))


def clique_bound(n: int, d: int, t: int) -> int:
    """q*C(d+1, t) + C(r, t) with n = q(d+1) + r."""
    q, r = divmod(n, d + 1)
    return q * math.comb(d + 1, t) + math.comb(r, t)


def fingerprint(graphs) -> str:
    """sha256 over (n, sorted edge keys) of each graph, in order."""
    h = hashlib.sha256()
    for n, edges in graphs:
        h.update(np.int64(n).tobytes())
        h.update(edge_keys(n, edges).astype("<i8").tobytes())
    return h.hexdigest()
