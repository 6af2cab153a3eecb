"""Peeling certificates: constructive execution and independent replay.

``peel`` repeatedly removes the closed neighborhood of a vertex whose
neighborhood meets few triangles, recording one step per deletion; the
resulting certificate is a machine-checkable transcript showing the
graph's triangle count is reached by steps of at most C(d(v)+1, 3) each.
It counts once, then deletes N[v] locally: a dying triangle takes one off
the count of every vertex it meets, a set no deletion changes.

``verify_certificate`` replays a certificate on the input graph's own
vertex ids. It keeps each vertex's set of surviving neighbors and, per
step, counts the triangles meeting N[v] by set intersections as it
deletes N[v]: O(d^3) per step, with no code shared with ``peel`` or
``trident.counting``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .bounds import _gls, binomial, gls_bound
from .counting import meeting_counts
from .errors import DegreeExceeded, EmptyGraph, FormatError, IdentityViolation
from .formats import graph_hash
from .graph import Graph, check_int, max_degree

HASH_ALGORITHM = "sha256"


@dataclass(frozen=True)
class PeelStep:
    chosen_vertex: int
    original_vertex: int
    degree_at_choice: int
    triangles_removed: int
    remaining_vertices: int

    def __post_init__(self) -> None:
        _check_fields(vars(self), _STEP_FIELDS, "certificate step")

    def to_dict(self) -> dict:
        return dict(vars(self))  # the fields, in declaration order


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

    def __post_init__(self) -> None:
        _check_fields(vars(self), _HEADER_FIELDS, "certificate")
        if not all(isinstance(s, PeelStep) for s in self.steps):
            raise FormatError("certificate: field 'steps' must hold PeelStep objects")

    def to_dict(self) -> dict:
        """The JSON layout: every field in declaration order, steps as dicts."""
        return {**vars(self), "steps": [s.to_dict() for s in self.steps]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "PeelCertificate":
        """Build from the ``to_dict`` layout; anything else raises FormatError."""
        _check_fields(d, _HEADER_FIELDS, "certificate")
        for i, s in enumerate(d["steps"]):
            _check_fields(s, _STEP_FIELDS, f"certificate step {i}")
        return cls(**{**d, "steps": [PeelStep(**s) for s in d["steps"]]})

    @classmethod
    def from_json(cls, text: str | bytes) -> "PeelCertificate":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as e:  # bad JSON or undecodable bytes
            raise FormatError(f"certificate is not valid JSON: {e}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "PeelCertificate":
        return cls.from_json(Path(path).read_bytes())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")


# Field name -> required type, for built and loaded certificates; ints refuse bools.
_STEP_FIELDS = {f.name: int for f in fields(PeelStep)}
_HEADER_FIELDS = {f.name: int for f in fields(PeelCertificate)}
_HEADER_FIELDS.update(input_hash=str, hash_algorithm=str, steps=list)


def _check_fields(obj, types: dict, where: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be a JSON object")
    if obj.keys() != types.keys():
        missing = sorted(types.keys() - obj.keys(), key=str)
        extra = sorted(obj.keys() - types.keys(), key=str)
        raise FormatError(f"{where}: missing fields {missing}, unexpected fields {extra}")
    for name, kind in types.items():
        value = obj[name]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise FormatError(f"{where}: field {name!r} must be {kind.__name__}")


def select_vertex(g: Graph) -> int:
    """Vertex minimizing |T_N[v]| - C(d(v)+1, 3); ties by degree, then index.

    The minimum slack is guaranteed nonpositive, so the chosen vertex's
    neighborhood meets at most C(d(v)+1, 3) triangles.
    """
    if g.n == 0:
        raise EmptyGraph("cannot select a vertex from an empty graph")
    return _argmin_slack(range(g.n), meeting_counts(g), g.degrees, _step_bounds(max_degree(g)))[1]


def peel(g: Graph, d: int) -> PeelCertificate:
    """Execute the full peeling induction on g and record the transcript.

    The meeting counts are computed once. Each step deletes N[v] from the
    neighbor sets one vertex at a time; a triangle is listed at the first of
    its vertices to go and taken off the count of every vertex it meets. A
    vertex's relabeled id is its position in the ascending ``alive`` list.
    """
    d = check_int(d, "maximum degree", 1)
    if g.n == 0:
        raise EmptyGraph("cannot peel an empty graph")
    top = max_degree(g)
    if top > d:
        raise DegreeExceeded(f"max degree {top} exceeds declared cap {d}")
    params, bound = gls_bound(g.n, d, 3)
    step_bound = _step_bounds(top)  # no degree in g exceeds top; the telescoping check keeps d

    counts = meeting_counts(g)
    alive = list(range(g.n))
    adj = [set(map(alive.__getitem__, g.neighbors(u))) for u in alive]  # ints shared with alive
    deg = list(g.degrees)
    steps: list[PeelStep] = []
    total = 0
    while alive:
        i, v = _argmin_slack(alive, counts, deg, step_bound)
        dv, tri = deg[v], counts[v]
        if tri > step_bound[dv]:
            raise IdentityViolation(f"selected vertex {i} exceeds its step bound")
        # telescoping step of the induction: one deletion cannot overshoot
        if step_bound[dv] + _gls(len(alive) - dv - 1, d, 3) > _gls(len(alive), d, 3):
            raise IdentityViolation(f"deleting N[{i}] overshoots the bound telescoping")
        closed = adj[v] | {v}
        listed = 0
        for a in closed:
            for b in adj[a]:
                for c in adj[a] & adj[b]:
                    if b < c:
                        listed += 1
                        for x in adj[a] | adj[b] | adj[c]:
                            counts[x] -= 1
            for b in adj[a]:
                adj[b].discard(a)
                deg[b] -= 1
        if listed != tri:
            raise IdentityViolation(
                f"step {len(steps)}: N[{i}] meets {listed} triangles, not the counted {tri}")
        alive = [u for u in alive if u not in closed]
        steps.append(PeelStep(chosen_vertex=i, original_vertex=v, degree_at_choice=dv,
                              triangles_removed=tri, remaining_vertices=len(alive)))
        total += tri

    return PeelCertificate(input_hash=graph_hash(g, HASH_ALGORITHM),
                           hash_algorithm=HASH_ALGORITHM, n=g.n, d=d, q=params.q, r=params.r,
                           bound=bound, steps=steps, total_triangles=total)


def _step_bounds(d: int) -> list[int]:
    """C(k+1, 3), the step bound of a vertex of degree k, for every k <= d."""
    return [(k + 1) * k * (k - 1) // 6 for k in range(d + 1)]


def _argmin_slack(ids, counts: list[int], deg: list[int], step_bound: list[int]):
    """(position, id) of the id in ``ids`` (ascending) minimizing its slack
    counts[v] - C(deg[v]+1, 3); ties by degree, then position."""
    slack, _, i = min((counts[v] - step_bound[deg[v]], deg[v], i) for i, v in enumerate(ids))
    if slack > 0:
        raise IdentityViolation("no vertex with nonpositive slack; counting bug")
    return i, ids[i]


# -- independent verification ---------------------------------------------


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


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

    # The replay runs on g's own ids: each vertex keeps the set of its
    # surviving neighbors, and a step's relabeled id is its alive rank, read
    # from a Fenwick tree over the alive flags (node x covers x & -x ids).
    n = g.n
    indptr, indices = g._indptr.tolist(), g._indices.tolist()
    nbrs = [set(indices[indptr[u]:indptr[u + 1]]) for u in range(n)]
    alive = bytearray(b"\x01") * n
    tree = [x & -x for x in range(n + 1)]
    remaining = n
    total = 0
    for i, step in enumerate(cert.steps):
        if remaining == 0:
            return VerifyResult(False, f"step {i}: peel continues past empty graph")
        v = step.original_vertex
        if not (isinstance(v, int) and 0 <= v < n and alive[v]):
            return VerifyResult(False, f"step {i}: original vertex already deleted")
        rank, j = 0, v
        while j:
            rank, j = rank + tree[j], j & (j - 1)
        if step.chosen_vertex != rank:
            return VerifyResult(False, f"step {i}: chosen vertex inconsistent with relabeling")
        if step.degree_at_choice != len(nbrs[v]):
            return VerifyResult(False, f"step {i}: degree mismatch")
        # Delete N[v] one vertex at a time; a triangle is seen from the two
        # others of its first deleted vertex u, once each, as u is deleted.
        closed = nbrs[v] | {v}
        tri = 0
        for u in closed:
            alive[u] = 0
            j = u + 1
            while j <= n:
                tree[j] -= 1
                j += j & -j
            for x in nbrs[u]:
                tri += len(nbrs[u] & nbrs[x])
                nbrs[x].discard(u)
        tri //= 2
        if step.triangles_removed != tri:
            return VerifyResult(False, f"step {i}: triangles_removed mismatch")
        if tri > binomial(step.degree_at_choice + 1, 3):
            return VerifyResult(False, f"step {i}: step bound violated")
        remaining -= len(closed)
        if step.remaining_vertices != remaining:
            return VerifyResult(False, f"step {i}: remaining vertex count mismatch")
        total += tri

    if remaining != 0:
        return VerifyResult(False, "peel incomplete: vertices remain after last step")
    if cert.total_triangles != total:
        return VerifyResult(False, "total triangle mismatch")
    if total > cert.bound:
        return VerifyResult(False, "bound violated")
    return VerifyResult(True, None)
