"""Closed-form extremal bounds and the binomial-shifting helpers.

All arithmetic is exact: Python integers never wrap, which satisfies the
checked-arithmetic requirement for bound values at any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IdentityViolation, InvalidArgument
from .graph import Graph
from .counting import _bitset_counts, count_triangles


def binomial(k: int, j: int) -> int:
    """C(k, j) with the convention C(k, j) = 0 for k < j or k < 0."""
    if not isinstance(j, int) or j < 0:
        raise InvalidArgument(f"lower index must be a nonnegative integer, got {j!r}")
    if not isinstance(k, int):
        raise InvalidArgument(f"upper index must be an integer, got {k!r}")
    if k < 0 or k < j:
        return 0
    return math.comb(k, j)


@dataclass(frozen=True)
class BoundParams:
    """The decomposition n = q(d+1) + r with 0 <= r <= d, plus clique size t."""

    n: int
    d: int
    t: int
    q: int
    r: int

    def __post_init__(self):
        if self.n != self.q * (self.d + 1) + self.r or not 0 <= self.r <= self.d:
            raise InvalidArgument(f"inconsistent decomposition {self}")
        if self.q < 0:
            raise InvalidArgument(f"negative quotient in {self}")


def _gls(n: int, d: int, t: int) -> int:
    """Bound value, accepting n = 0 (internal use in peel accounting)."""
    q, r = divmod(n, d + 1)
    return q * binomial(d + 1, t) + binomial(r, t)


def gls_bound(n: int, d: int, t: int = 3) -> tuple[BoundParams, int]:
    """Maximum number of t-cliques in an n-vertex graph of maximum degree d."""
    if not isinstance(n, int) or n < 1:
        raise InvalidArgument(f"vertex count must be a positive integer, got {n!r}")
    if not isinstance(d, int) or d < 1:
        raise InvalidArgument(f"maximum degree must be a positive integer, got {d!r}")
    if not isinstance(t, int) or t < 3:
        raise InvalidArgument(f"clique size must be an integer >= 3, got {t!r}")
    q, r = divmod(n, d + 1)
    return BoundParams(n=n, d=d, t=t, q=q, r=r), q * binomial(d + 1, t) + binomial(r, t)


def shift_inequality_check(a: int, b: int) -> bool:
    """C(a,3) + C(b,3) <= C(a+1,3) + C(b-1,3); true for all a >= b >= 1."""
    if not (isinstance(a, int) and isinstance(b, int) and a >= b >= 1):
        raise InvalidArgument(f"need integers a >= b >= 1, got ({a!r}, {b!r})")
    return binomial(a, 3) + binomial(b, 3) <= binomial(a + 1, 3) + binomial(b - 1, 3)


def merge_bound(a: int, b: int, c: int) -> int:
    """C(c,3) + C(a+b-c,3), the shifted value dominating C(a,3) + C(b,3).

    Requires max(a, b) <= c <= a + b.  It is the end point of repeated
    shift_inequality_check moves; no certificate or counting path calls it.
    """
    if not (isinstance(a, int) and isinstance(b, int) and a >= 0 and b >= 0):
        raise InvalidArgument(f"need nonnegative integers a, b, got ({a!r}, {b!r})")
    if not (isinstance(c, int) and max(a, b) <= c <= a + b):
        raise InvalidArgument(f"need max(a,b) <= c <= a+b, got c={c!r} for a={a}, b={b}")
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
