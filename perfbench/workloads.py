"""The benchmark's workloads: seeded inputs, timed jobs and output checks.

Inputs are generated through ``trident.__all__`` names only, and the timed
jobs call only those names plus ``trident.cli.run``, so the workloads keep
working while the package is refactored underneath.  Each workload has two
timed jobs, reported as ``main_s`` and ``check_s``:

    sparse       trident count --json      trident report --json
    peel-sparse  trident certify           trident verify
    peel-dense   trident certify           trident verify
    small        300-graph library batch   two exhaustive enumeration cells

README.md in this directory records why each workload was chosen.
"""

from __future__ import annotations

import gc
import io
import json
import random
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import reference

FINGERPRINTS = Path(__file__).resolve().parent / "fingerprints.json"
DEFAULT_SEED = 0
DEGREE = 16
# The smallest size above the bitset budget: n*n > 2**28 from n = 16,385 on.
SPARSE_N = 16_500
PEEL_SPARSE_N = 1_000
PEEL_DENSE_N = 340  # 20 blocks of K_17
SMALL_GRAPHS = 300  # per round
ENUMERATE_CELLS = ((7, 4, 3), (7, 3, 4))


def planted_graph(trident, n: int, d: int, seed: int):
    """A near-extremal graph: disjoint K_{d+1} blocks under a seeded
    relabelling, with each edge deleted with probability 0.1, then 4n
    uniform proposals, each added when it joins distinct non-adjacent
    vertices that both have degree below d."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges = perm[trident.build_extremal(n, d).edge_array()]
    edges = edges[rng.random(len(edges)) >= 0.1]
    adj = [set() for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].add(v)
        adj[v].add(u)
    for u, v in rng.integers(0, n, size=(4 * n, 2)).tolist():
        if u != v and v not in adj[u] and len(adj[u]) < d and len(adj[v]) < d:
            adj[u].add(v)
            adj[v].add(u)
    pairs = [(u, v) for u in range(n) for v in sorted(adj[u]) if u < v]
    return trident.build_graph(n, np.array(pairs, np.int64).reshape(-1, 2))


def small_suite(trident, count: int, seed: int):
    """``count`` graphs drawn like the acceptance suite: n in [1, 64] and
    d in [1, 16], built by random_bounded_graph.  Returns (n, d, edges)."""
    rng = random.Random(seed)
    suite = []
    for _ in range(count):
        n = rng.randrange(1, 65)
        d = rng.randrange(1, 17)
        g = trident.random_bounded_graph(n, d, rng.randrange(2**31))
        suite.append((n, d, g.edge_array()))
    return suite


@dataclass
class Tally:
    """Operations attempted and failed, plus the small workload's per-graph
    latencies."""

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)


def _cli(trident, argv: list[str]) -> tuple[float, int, str]:
    """Run one CLI job in-process; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = trident.cli.run(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    elapsed = perf_counter() - t0
    if err.getvalue():
        print(err.getvalue(), end="", file=sys.stderr)
    return elapsed, code, out.getvalue()


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class Workload:
    """A workload's inputs and its two timed jobs, ``main`` and ``check``.

    Each job runs once on the given inputs, records its output checks in the
    tally and returns its timed seconds.  ``main`` runs before ``check``.
    """

    name = ""
    # Names under which the two jobs' times are printed for people.
    job_names = ("main_s", "check_s")

    def __init__(self, trident, seed: int, workdir: Path):
        self.trident = trident
        self.seed = seed % 2**32  # numpy's RandomState takes seeds in [0, 2**32)
        self.workdir = workdir

    def generate(self):
        """This workload's inputs for its seed, in memory."""
        raise NotImplementedError

    def setup(self):
        """Generate the inputs and write any input files: the timed set-up."""
        return self.generate()

    def graphs(self, inputs) -> list[tuple[int, np.ndarray]]:
        """(n, edge array) of every input graph, for fingerprints and references."""
        raise NotImplementedError

    def reference(self, inputs):
        """Expected outputs, computed by ``reference`` (untimed)."""
        raise NotImplementedError

    def main(self, inputs, expected, tally: Tally) -> float:
        raise NotImplementedError

    def check(self, inputs, expected, tally: Tally) -> float:
        raise NotImplementedError

    def describe(self, samples: dict[str, list[float]], tally: Tally) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed for people, by metric name; a
        job's time is its fastest round, as in the JSON line."""
        return {name: (min(samples[key]), "s")
                for name, key in zip(self.job_names, ("main_s", "check_s"))}


class _FileWorkload(Workload):
    """One graph written as an edge-list file and two CLI jobs on it."""

    @property
    def path(self) -> Path:
        return self.workdir / "graph.el"

    def setup(self):
        g = self.generate()
        self.trident.save_graph(g, self.path)
        return g

    def graphs(self, g):
        return [(g.n, g.edge_array())]


class Sparse(_FileWorkload):
    name = "sparse"
    job_names = ("count_s", "report_s")

    def generate(self):
        return self.trident.random_bounded_graph(SPARSE_N, DEGREE, self.seed)

    def reference(self, g):
        (n, edges), = self.graphs(g)
        return {"n": n, "m": len(reference.edge_keys(n, edges)),
                "triangles": reference.triangle_count(n, edges),
                "cubes": reference.degree_cube_sum(n, edges),
                "meeting": reference.meeting_counts(n, edges).tolist()}

    def main(self, g, expected, tally):
        elapsed, code, out = _cli(self.trident, ["count", str(self.path), "--json"])
        tally.check(code == 0 and _json_or_none(out) == {
            "n": expected["n"], "m": expected["m"], "triangles": expected["triangles"]},
            f"count: exit {code}, output {out[:200]!r}")
        return elapsed

    def check(self, g, expected, tally):
        elapsed, code, out = _cli(self.trident, ["report", str(self.path), "--json"])
        rep = _json_or_none(out) or {}
        tally.check(code == 0
                    and rep.get("triangle_count") == expected["triangles"]
                    and rep.get("degree_cube_sum") == expected["cubes"]
                    and rep.get("per_vertex_meeting") == expected["meeting"]
                    and rep.get("omega_count") == 6 * sum(expected["meeting"])
                    and rep.get("w_count") == expected["cubes"] - 6 * sum(expected["meeting"]),
                    f"report: exit {code}, output {out[:200]!r}")
        return elapsed


class _PeelWorkload(_FileWorkload):
    job_names = ("certify_s", "verify_s")

    @property
    def cert_path(self) -> Path:
        return self.workdir / "cert.json"

    def reference(self, g):
        (n, edges), = self.graphs(g)
        return {"n": n, "triangles": reference.triangle_count(n, edges)}

    def main(self, g, expected, tally):
        self.cert_path.unlink(missing_ok=True)
        elapsed, code, out = _cli(self.trident, ["certify", str(self.path), "-d", str(DEGREE),
                                                 "-o", str(self.cert_path)])
        cert = _json_or_none(self.cert_path.read_text()) if self.cert_path.exists() else None
        tally.check(code == 0 and cert is not None
                    and cert.get("n") == expected["n"]
                    and cert.get("total_triangles") == expected["triangles"]
                    and cert.get("bound") == reference.clique_bound(expected["n"], DEGREE, 3),
                    f"certify: exit {code}, output {out[:200]!r}")
        return elapsed

    def check(self, g, expected, tally):
        elapsed, code, out = _cli(self.trident, ["verify", str(self.path), str(self.cert_path)])
        tally.check(code == 0 and out.strip() == "OK", f"verify: exit {code}, output {out[:200]!r}")
        return elapsed


class PeelSparse(_PeelWorkload):
    name = "peel-sparse"

    def generate(self):
        return self.trident.random_bounded_graph(PEEL_SPARSE_N, DEGREE, self.seed)


class PeelDense(_PeelWorkload):
    name = "peel-dense"

    def generate(self):
        return planted_graph(self.trident, PEEL_DENSE_N, DEGREE, self.seed)


class Small(Workload):
    name = "small"
    job_names = ("batch_s", "enumerate_s")

    def generate(self):
        return small_suite(self.trident, SMALL_GRAPHS, self.seed)

    def graphs(self, inputs):
        return [(n, e) for n, _, e in inputs]

    def reference(self, inputs):
        graphs = [(n, d, reference.triangle_count(n, e), reference.degree_cube_sum(n, e),
                   reference.meeting_counts(n, e).tolist()) for n, d, e in inputs]
        cells = [reference.clique_bound(n, d, t) for n, d, t in ENUMERATE_CELLS]
        return graphs, cells

    def main(self, inputs, expected, tally):
        t = self.trident
        results = []
        gc.collect()
        t_batch = perf_counter()
        for n, d, edges in inputs:
            t0 = perf_counter()
            try:
                g = t.build_graph(n, edges)
                rep = t.full_report(g)
                cert = t.peel(g, d)
                back = t.PeelCertificate.from_json(cert.to_json())
                ok = t.verify_certificate(g, back).ok
            except Exception:
                traceback.print_exc()
                results.append(None)
            else:
                results.append((rep, cert, back, ok))
            tally.latencies.append(perf_counter() - t0)
        elapsed = perf_counter() - t_batch

        for (n, d, tri, cubes, meeting), res in zip(expected[0], results):
            if res is None:
                tally.check(False, f"small graph n={n} d={d} raised")
                continue
            rep, cert, back, ok = res
            tally.check(rep.triangle_count == tri and rep.degree_cube_sum == cubes
                        and rep.per_vertex_meeting == meeting
                        and rep.w_count == cubes - 6 * sum(meeting)
                        and ok and back == cert and back.total_triangles == tri,
                        f"small graph n={n} d={d}")
        return elapsed

    def check(self, inputs, expected, tally):
        reports = []
        gc.collect()
        t0 = perf_counter()
        for n, d, k in ENUMERATE_CELLS:
            try:
                reports.append(self.trident.enumerate_and_verify(n, d, k, jobs=1))
            except Exception:
                traceback.print_exc()
                reports.append(None)
        elapsed = perf_counter() - t0
        for cell, bound, rep in zip(ENUMERATE_CELLS, expected[1], reports):
            tally.check(rep is not None and not rep.violation_found
                        and rep.max_cliques_found == bound and rep.matches_prediction,
                        f"enumerate {cell}")
        return elapsed

    def describe(self, samples, tally):
        lat = tally.latencies
        return {
            "small_graphs_per_s": (SMALL_GRAPHS / min(samples["main_s"]), "graphs/s"),
            "small_graph_p50_ms": (1e3 * statistics.median(lat), "ms"),
            "small_graph_p99_ms": (1e3 * statistics.quantiles(lat, n=100)[98], "ms"),
            "small_graph_samples": (len(lat), "count"),
            "enumerate_s": (min(samples["check_s"]), "s"),
        }


WORKLOADS = {w.name: w for w in (Sparse, PeelSparse, PeelDense, Small)}


def check_fingerprint(workload_cls, trident, default_inputs=None) -> tuple[bool, str]:
    """Compare the default seed's generated edge arrays with fingerprints.json.

    ``default_inputs`` are the default seed's inputs when already generated."""
    wl = workload_cls(trident, DEFAULT_SEED, None)
    inputs = default_inputs if default_inputs is not None else wl.generate()
    got = reference.fingerprint(wl.graphs(inputs))
    return got == json.loads(FINGERPRINTS.read_text()).get(workload_cls.name), got
