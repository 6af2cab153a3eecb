"""Closed-form extremal bounds and the binomial-shifting helpers.

All arithmetic is exact: Python integers never wrap, which satisfies the
checked-arithmetic requirement for bound values at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IdentityViolation, InvalidArgument
from .graph import Graph, check_int
from .counting import _bitset_counts, count_triangles


def binomial(k: int, j: int) -> int:
    """C(k, j) with the convention C(k, j) = 0 for k < j or k < 0."""
    j = check_int(j, "lower index", 0)
    k = check_int(k, "upper index")
    return math.comb(k, j) if k >= j else 0


@dataclass(frozen=True)
class BoundParams:
    """The decomposition n = q(d+1) + r with 0 <= r <= d, plus clique size t."""

    n: int
    d: int
    t: int
    q: int
    r: int

    def __post_init__(self):
        for name, what, low in (("n", "vertex count", 1), ("d", "maximum degree", 1),
                                ("t", "clique size", 3), ("q", "quotient", 0), ("r", "remainder", 0)):
            object.__setattr__(self, name, check_int(getattr(self, name), what, low))
        if self.n != self.q * (self.d + 1) + self.r or self.r > self.d:
            raise InvalidArgument(f"inconsistent decomposition {self}")


def _gls(n: int, d: int, t: int) -> int:
    """Bound value, accepting n = 0 (internal use in peel accounting)."""
    q, r = divmod(n, d + 1)
    return q * math.comb(d + 1, t) + math.comb(r, t)


def gls_bound(n: int, d: int, t: int = 3) -> tuple[BoundParams, int]:
    """Maximum number of t-cliques in an n-vertex graph of maximum degree d."""
    n = check_int(n, "vertex count", 1)
    d = check_int(d, "maximum degree", 1)
    params = BoundParams(n, d, t, *divmod(n, d + 1))  # checks t
    return params, _gls(n, d, params.t)


def shift_inequality_check(a: int, b: int) -> bool:
    """C(a,3) + C(b,3) <= C(a+1,3) + C(b-1,3); true for all a >= b >= 1."""
    b = check_int(b, "b", 1)
    a = check_int(a, "a", b)
    return binomial(a, 3) + binomial(b, 3) <= binomial(a + 1, 3) + binomial(b - 1, 3)


def merge_bound(a: int, b: int, c: int) -> int:
    """C(c,3) + C(a+b-c,3), the shifted value dominating C(a,3) + C(b,3).

    Requires max(a, b) <= c <= a + b.  It is the end point of repeated
    shift_inequality_check moves; no certificate or counting path calls it.
    """
    a, b = check_int(a, "a", 0), check_int(b, "b", 0)
    c = check_int(c, "c", max(a, b))
    if c > a + b:
        raise InvalidArgument(f"need max(a,b) <= c <= a+b, got c={c} for a={a}, b={b}")
    return binomial(c, 3) + binomial(a + b - c, 3)


def complement_identity_check(g: Graph) -> tuple[int, int]:
    """Both sides of |T(G)| + |T(G^c)| = C(n,3) - (1/2) sum_v d(v)(n-1-d(v))."""
    n = g.n
    if n * n > 2**24:  # the complement's n-bit rows take n^2/8 bytes
        raise InvalidArgument(f"complement of an n={n} graph is too large to count")
    full = (1 << n) - 1
    rows = [full ^ r ^ (1 << v) for v, r in enumerate(g.neighbor_masks())]
    lhs = count_triangles(g) + _bitset_counts(rows, want_meeting=False)[0]
    s = sum(d * (n - 1 - d) for d in g.degrees)
    # each non-edge at distance-2 pair is counted from both ends, so s is even
    if s % 2:
        raise IdentityViolation(f"sum d(v)(n-1-d(v)) = {s} is odd")
    rhs = binomial(n, 3) - s // 2
    return lhs, rhs
