"""Tests of the benchmark's own generators, references and tracing.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import trident  # noqa: E402
import trident.cli  # noqa: E402
from perfbench import layers, reference, run, tracing, workloads  # noqa: E402
from perfbench.tracing import SpanTable, Tracer  # noqa: E402


def test_planted_graph_respects_degree_cap_and_is_deterministic():
    for seed in (0, 1, 7):
        g = workloads.planted_graph(trident, 300, 16, seed)
        assert max(g.degrees) <= 16
        assert g == workloads.planted_graph(trident, 300, 16, seed)
    assert workloads.planted_graph(trident, 300, 16, 1) != workloads.planted_graph(trident, 300, 16, 2)


def test_small_suite_is_deterministic():
    a = workloads.small_suite(trident, 20, 5)
    b = workloads.small_suite(trident, 20, 5)
    assert reference.fingerprint([(n, e) for n, _, e in a]) == \
        reference.fingerprint([(n, e) for n, _, e in b])
    assert all(1 <= n <= 64 and 1 <= d <= 16 for n, d, _ in a)


@pytest.mark.parametrize("n,d,seed", [(1, 1, 0), (5, 4, 1), (20, 6, 2), (64, 16, 3), (300, 16, 4)])
def test_reference_count_matches_library(n, d, seed):
    g = trident.random_bounded_graph(n, d, seed)
    edges = g.edge_array()
    assert reference.triangle_count(n, edges) == trident.count_triangles(g)
    assert reference.degree_cube_sum(n, edges) == sum(x**3 for x in g.degrees)
    rep = trident.full_report(g)
    meeting = reference.meeting_counts(n, edges)
    assert meeting.tolist() == rep.per_vertex_meeting
    assert rep.w_count == reference.degree_cube_sum(n, edges) - 6 * int(meeting.sum())


def test_reference_count_on_extremal_graph():
    g = trident.build_extremal(40, 5)
    assert reference.triangle_count(40, g.edge_array()) == reference.clique_bound(40, 5, 3)


def _bindings():
    """Every function or cert-I/O attribute the tracer may replace."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "trident" or name.startswith("trident.")):
            for attr, obj in vars(mod).items():
                if callable(obj):
                    out[(name, attr)] = obj
    for attr in tracing.CERT_IO:
        out[("PeelCertificate", attr)] = vars(trident.PeelCertificate)[attr]
    return out


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    g = trident.random_bounded_graph(40, 5, 1)
    trident.save_graph(g, tmp_path / "g.el")
    with Tracer() as tracer:
        assert trident.certify.meeting_counts is not before[("trident.certify", "meeting_counts")]
        code = trident.cli.run(["certify", str(tmp_path / "g.el"), "-d", "5",
                                "-o", str(tmp_path / "c.json")])
        spans = SpanTable(tracer.take())
    assert code == 0
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)
    assert spans.calls("cli.run") == 1
    assert spans.calls("counting.meeting_counts") == spans.counter("certify.peel", "steps") > 0
    assert spans.counter("formats.load_graph", "bytes") == (tmp_path / "g.el").stat().st_size
    # self times partition the top-level span
    assert sum(spans.self_time) == pytest.approx(spans.top_level())


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "no_such_module", "gone")
    extra = ("gone.thing.s", "s", lambda setup, rnd: 1.0, ["gone.thing"])
    monkeypatch.setattr(layers, "SPAN_METRICS", layers.SPAN_METRICS + [extra])
    with Tracer() as tracer:
        trident.count_triangles(trident.build_extremal(10, 3))
        spans = SpanTable(tracer.take())
    assert "gone" in tracer.absent
    values, absent = layers.span_metrics(spans, spans, tracer.installed, tracer.absent)
    assert absent == ["gone.thing.s"]
    assert values["gone.thing.s"] == (0, "s")
    assert values["counting.count_triangles.s"][0] > 0


def test_fingerprint_mismatch_is_detected(tmp_path, monkeypatch):
    ok, digest = workloads.check_fingerprint(workloads.PeelDense, trident)
    assert ok
    wrong = json.loads(workloads.FINGERPRINTS.read_text()) | {"peel-dense": "0" * 64}
    (tmp_path / "fp.json").write_text(json.dumps(wrong))
    monkeypatch.setattr(workloads, "FINGERPRINTS", tmp_path / "fp.json")
    assert workloads.check_fingerprint(workloads.PeelDense, trident) == (False, digest)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_of_its_kind(trace, kind, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code = run.main(["--workload", "peel-dense", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == \
        {(m["name"], m["unit"]) for m in spec[kind]}
