"""Peeling certificates: constructive execution and independent replay.

``peel`` repeatedly removes the closed neighborhood of a vertex whose
neighborhood meets few triangles, recording one step per deletion; the
resulting certificate is a machine-checkable transcript showing the
graph's triangle count is reached by steps of at most C(d(v)+1, 3) each.

``verify_certificate`` replays a certificate using only its recorded
vertices and counting routines disjoint from the fast path used by peel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .bounds import _gls, binomial, gls_bound
from .counting import meeting_counts
from .errors import DegreeExceeded, EmptyGraph, IdentityViolation
from .formats import graph_hash
from .graph import Graph, closed_neighborhood, delete_vertices, max_degree

HASH_ALGORITHM = "sha256"


@dataclass(frozen=True)
class PeelStep:
    chosen_vertex: int
    original_vertex: int
    degree_at_choice: int
    triangles_removed: int
    remaining_vertices: int

    def to_dict(self) -> dict:
        return {
            "chosen_vertex": self.chosen_vertex,
            "original_vertex": self.original_vertex,
            "degree_at_choice": self.degree_at_choice,
            "triangles_removed": self.triangles_removed,
            "remaining_vertices": self.remaining_vertices,
        }


@dataclass(frozen=True)
class PeelCertificate:
    input_hash: str
    hash_algorithm: str
    n: int
    d: int
    q: int
    r: int
    bound: int
    steps: list[PeelStep] = field(default_factory=list)
    total_triangles: int = 0

    def to_dict(self) -> dict:
        return {
            "input_hash": self.input_hash,
            "hash_algorithm": self.hash_algorithm,
            "n": self.n,
            "d": self.d,
            "q": self.q,
            "r": self.r,
            "bound": self.bound,
            "steps": [s.to_dict() for s in self.steps],
            "total_triangles": self.total_triangles,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "PeelCertificate":
        return cls(
            input_hash=d["input_hash"],
            hash_algorithm=d["hash_algorithm"],
            n=d["n"],
            d=d["d"],
            q=d["q"],
            r=d["r"],
            bound=d["bound"],
            steps=[PeelStep(**s) for s in d["steps"]],
            total_triangles=d["total_triangles"],
        )

    @classmethod
    def from_json(cls, text: str) -> "PeelCertificate":
        return cls.from_dict(json.loads(text))

    @classmethod
    def load(cls, path: str | Path) -> "PeelCertificate":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


def select_vertex(g: Graph) -> int:
    """Vertex minimizing |T_N[v]| - C(d(v)+1, 3); ties by degree, then index.

    The minimum slack is guaranteed nonpositive, so the chosen vertex's
    neighborhood meets at most C(d(v)+1, 3) triangles.
    """
    if g.n == 0:
        raise EmptyGraph("cannot select a vertex from an empty graph")
    return _argmin_slack(g, meeting_counts(g))


def peel(g: Graph, d: int) -> PeelCertificate:
    """Execute the full peeling induction on g and record the transcript."""
    if g.n == 0:
        raise EmptyGraph("cannot peel an empty graph")
    if max_degree(g) > d:
        raise DegreeExceeded(f"max degree {max_degree(g)} exceeds declared cap {d}")
    params, bound = gls_bound(g.n, d, 3)

    steps: list[PeelStep] = []
    total = 0
    cur = g
    orig = list(range(g.n))
    while cur.n:
        counts = meeting_counts(cur)
        v = _argmin_slack(cur, counts)
        dv = cur.degrees[v]
        tri = counts[v]
        if tri > binomial(dv + 1, 3):
            raise IdentityViolation(f"selected vertex {v} exceeds its step bound")
        # telescoping step of the induction: one deletion cannot overshoot
        if binomial(dv + 1, 3) + _gls(cur.n - dv - 1, d, 3) > _gls(cur.n, d, 3):
            raise IdentityViolation(f"deleting N[{v}] overshoots the bound telescoping")
        nxt, kept = delete_vertices(cur, closed_neighborhood(cur, v))
        steps.append(
            PeelStep(
                chosen_vertex=v,
                original_vertex=orig[v],
                degree_at_choice=dv,
                triangles_removed=tri,
                remaining_vertices=nxt.n,
            )
        )
        total += tri
        orig = [orig[o] for o in kept]
        cur = nxt

    return PeelCertificate(
        input_hash=graph_hash(g, HASH_ALGORITHM),
        hash_algorithm=HASH_ALGORITHM,
        n=g.n,
        d=d,
        q=params.q,
        r=params.r,
        bound=bound,
        steps=steps,
        total_triangles=total,
    )


def _argmin_slack(g: Graph, counts: list[int]) -> int:
    best, best_key = 0, None
    for v in range(g.n):
        key = (counts[v] - binomial(g.degrees[v] + 1, 3), g.degrees[v], v)
        if best_key is None or key < best_key:
            best, best_key = v, key
    if best_key[0] > 0:
        raise IdentityViolation("no vertex with nonpositive slack; counting bug")
    return best


# -- independent verification ---------------------------------------------

BRUTE_LIMIT = 64  # below this, replay recounts triangles by plain enumeration


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _indep_triangles(g: Graph) -> int:
    """Sorted-adjacency merge count, kept separate from the counting kernels."""
    nbrs = [g.neighbors(v) for v in range(g.n)]
    total = 0
    for u in range(g.n):
        row_u = nbrs[u]
        for v in row_u:
            if v <= u:
                continue
            row_v = nbrs[v]
            a = b = 0
            while a < len(row_u) and b < len(row_v):
                x, y = row_u[a], row_v[b]
                if x == y:
                    if x > v:
                        total += 1
                    a += 1
                    b += 1
                elif x < y:
                    a += 1
                else:
                    b += 1
    return total


def _indep_meeting(g: Graph, v: int) -> int:
    """|T_N[v]| by brute enumeration (small n) or the decomposition identity."""
    if g.n <= BRUTE_LIMIT:
        nbrs = [set(g.neighbors(u)) for u in range(g.n)]
        closed = nbrs[v] | {v}
        count = 0
        for a in range(g.n):
            for b in nbrs[a]:
                if b <= a:
                    continue
                for c in nbrs[a] & nbrs[b]:
                    if c > b and (a in closed or b in closed or c in closed):
                        count += 1
        return count
    rest, _ = delete_vertices(g, closed_neighborhood(g, v))
    return _indep_triangles(g) - _indep_triangles(rest)


def verify_certificate(g: Graph, cert: PeelCertificate) -> VerifyResult:
    """Replay a certificate against g; returns ok plus a first-failure reason."""
    if cert.hash_algorithm != HASH_ALGORITHM:
        return VerifyResult(False, "unsupported hash algorithm")
    if cert.input_hash != graph_hash(g, HASH_ALGORITHM):
        return VerifyResult(False, "input hash mismatch")
    if cert.n != g.n:
        return VerifyResult(False, "vertex count mismatch")
    if g.n == 0:
        return VerifyResult(False, "empty graph has no certificate")
    if cert.d < 1 or max_degree(g) > cert.d:
        return VerifyResult(False, "declared degree bound exceeded by graph")
    q, r = divmod(cert.n, cert.d + 1)
    if (cert.q, cert.r) != (q, r):
        return VerifyResult(False, "quotient/remainder mismatch")
    if cert.bound != q * binomial(cert.d + 1, 3) + binomial(r, 3):
        return VerifyResult(False, "bound value mismatch")

    cur = g
    orig = list(range(g.n))
    total = 0
    for i, step in enumerate(cert.steps):
        if cur.n == 0:
            return VerifyResult(False, f"step {i}: peel continues past empty graph")
        pos = {o: c for c, o in enumerate(orig)}
        if step.original_vertex not in pos:
            return VerifyResult(False, f"step {i}: original vertex already deleted")
        v = pos[step.original_vertex]
        if step.chosen_vertex != v:
            return VerifyResult(False, f"step {i}: chosen vertex inconsistent with relabeling")
        if step.degree_at_choice != cur.degrees[v]:
            return VerifyResult(False, f"step {i}: degree mismatch")
        tri = _indep_meeting(cur, v)
        if step.triangles_removed != tri:
            return VerifyResult(False, f"step {i}: triangles_removed mismatch")
        if tri > binomial(step.degree_at_choice + 1, 3):
            return VerifyResult(False, f"step {i}: step bound violated")
        nxt, kept = delete_vertices(cur, closed_neighborhood(cur, v))
        if step.remaining_vertices != nxt.n:
            return VerifyResult(False, f"step {i}: remaining vertex count mismatch")
        total += tri
        orig = [orig[o] for o in kept]
        cur = nxt

    if cur.n != 0:
        return VerifyResult(False, "peel incomplete: vertices remain after last step")
    if cert.total_triangles != total:
        return VerifyResult(False, "total triangle mismatch")
    if total > cert.bound:
        return VerifyResult(False, "bound violated")
    return VerifyResult(True, None)
