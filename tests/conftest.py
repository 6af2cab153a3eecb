"""Shared brute-force oracles and graph generators for the test suite.

The oracles here enumerate combinatorial objects directly and never share
code with the library's counting paths; library results are frozen
against them.
"""

from itertools import combinations, product

import pytest

from trident import build_graph, counting, triangles_meeting
from trident.graph import Graph

# The two counting kernels: "bitset" is the small-n kernel over n-bit rows,
# "sorted" the numpy triangle listing of the sorted CSR.
KERNELS = ["bitset", "sorted"]


def use_kernel(monkeypatch, kernel: str) -> None:
    """Count with ``kernel`` on every graph; the numpy listing is forced by
    lowering the bitset kernel's size limit below every n*n."""
    if kernel == "sorted":
        monkeypatch.setattr(counting, "DENSE_BIT_BUDGET", -1)


@pytest.fixture(params=KERNELS)
def kernel(request, monkeypatch):
    use_kernel(monkeypatch, request.param)
    return request.param


def by_both_kernels(monkeypatch, fn, g):
    """(fn(g) under the bitset kernel, fn(g) under the numpy listing)."""
    small = fn(g)
    with monkeypatch.context() as m:
        use_kernel(m, "sorted")
        return small, fn(g)


def brute_triangles(g: Graph) -> int:
    """O(n^3) triple enumeration."""
    return sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )


def brute_cliques(g: Graph, t: int) -> int:
    count = 0
    for sub in combinations(range(g.n), t):
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
            count += 1
    return count


def brute_w(g: Graph) -> int:
    """O(n^4) quadruple loop over ordered tuples (x, u, v, w)."""
    count = 0
    for x, u, v, w in product(range(g.n), repeat=4):
        if (
            g.has_edge(u, x) if u != x else False
        ) and (
            g.has_edge(v, x) if v != x else False
        ) and (
            g.has_edge(w, x) if w != x else False
        ):
            if not (u != v and g.has_edge(u, v)) and not (
                u != w and g.has_edge(u, w)
            ) and not (v != w and g.has_edge(v, w)):
                count += 1
    return count


def brute_meeting(g: Graph, v: int) -> int:
    """Triangles with at least one vertex in N[v], by triple enumeration."""
    closed = set(g.neighbors(v)) | {v}
    return sum(
        1
        for a, b, c in combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        and (a in closed or b in closed or c in closed)
    )


def meeting_counts_by_deletion(g: Graph) -> list[int]:
    """Meeting counts through the decomposition identity: for each v, the
    triangles of G minus those left once N[v] is deleted."""
    return [triangles_meeting(g, v) for v in range(g.n)]


def all_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        yield build_graph(n, [slots[k] for k in range(len(slots)) if (mask >> k) & 1])


def complete_graph(n: int) -> Graph:
    return build_graph(n, list(combinations(range(n), 2)))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)
