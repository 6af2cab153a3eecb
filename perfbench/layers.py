"""Per-layer metrics, computed from the spans of one traced pass.

Each metric names the spans it needs; when one of them could not be
installed (its function or module no longer exists) the metric is reported
as 0 and listed as absent instead of failing the run.  README.md maps each
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

from .tracing import LAYERS, SpanTable


def _inclusive(name):
    return lambda setup, rnd: rnd.inclusive(name)


def _self(name):
    return lambda setup, rnd: rnd.self_s(name)


def _calls(name):
    return lambda setup, rnd: rnd.calls(name)


def _counter(name, key):
    return lambda setup, rnd: rnd.counter(name, key)


def _rescan_ratio(setup: SpanTable, rnd: SpanTable) -> float:
    """Vertices scanned by meeting_counts inside peel per vertex peeled."""
    peeled = rnd.counter("certify.peel", "vertices_in")
    scanned = rnd.counter("counting.meeting_counts", "vertices_in", under="certify.peel")
    return scanned / peeled if peeled else 0.0


def _graphs_per_s(setup: SpanTable, rnd: SpanTable) -> float:
    elapsed = rnd.inclusive("enumerator.enumerate_and_verify")
    return rnd.counter("enumerator.enumerate_and_verify", "graphs") / elapsed if elapsed else 0.0


# (metric name, unit, value(setup spans, round spans), spans it needs)
SPAN_METRICS = [
    ("formats.load_graph.s", "s", _inclusive("formats.load_graph"), ["formats.load_graph"]),
    ("formats.load_graph.bytes", "bytes", _counter("formats.load_graph", "bytes"), ["formats.load_graph"]),
    ("formats.graph_hash.s", "s", _inclusive("formats.graph_hash"), ["formats.graph_hash"]),
    ("formats.graph_hash.calls", "count", _calls("formats.graph_hash"), ["formats.graph_hash"]),
    ("graph.build_graph.s", "s", _inclusive("graph.build_graph"), ["graph.build_graph"]),
    ("graph.build_graph.calls", "count", _calls("graph.build_graph"), ["graph.build_graph"]),
    ("graph.delete_vertices.s", "s", _inclusive("graph.delete_vertices"), ["graph.delete_vertices"]),
    ("graph.delete_vertices.calls", "count", _calls("graph.delete_vertices"), ["graph.delete_vertices"]),
    ("graph.delete_vertices.vertices_in", "count",
     _counter("graph.delete_vertices", "vertices_in"), ["graph.delete_vertices"]),
    ("counting.count_triangles.s", "s", _inclusive("counting.count_triangles"), ["counting.count_triangles"]),
    ("counting.count_triangles.self_s", "s", _self("counting.count_triangles"), ["counting.count_triangles"]),
    ("fast.forward_triangles.s", "s", _inclusive("fast.forward_triangles"), ["fast.forward_triangles"]),
    ("counting.forward_wedges", "count", _counter("fast.forward_triangles", "wedges"),
     ["fast.forward_triangles"]),
    ("counting.meeting_counts.s", "s", _inclusive("counting.meeting_counts"), ["counting.meeting_counts"]),
    ("counting.meeting_counts.calls", "count", _calls("counting.meeting_counts"), ["counting.meeting_counts"]),
    ("counting.meeting_counts.vertices_in", "count",
     _counter("counting.meeting_counts", "vertices_in"), ["counting.meeting_counts"]),
    ("counting.count_w.s", "s", _inclusive("counting.count_w"), ["counting.count_w"]),
    ("counting.full_report.s", "s", _inclusive("counting.full_report"), ["counting.full_report"]),
    ("counting.full_report.self_s", "s", _self("counting.full_report"), ["counting.full_report"]),
    ("certify.peel.s", "s", _inclusive("certify.peel"), ["certify.peel"]),
    ("certify.peel.self_s", "s", _self("certify.peel"), ["certify.peel"]),
    ("certify.peel.steps", "count", _counter("certify.peel", "steps"), ["certify.peel"]),
    ("certify.rescan_ratio", "ratio", _rescan_ratio, ["certify.peel", "counting.meeting_counts"]),
    ("certify.verify_certificate.s", "s", _inclusive("certify.verify_certificate"),
     ["certify.verify_certificate"]),
    ("certify.verify_certificate.self_s", "s", _self("certify.verify_certificate"),
     ["certify.verify_certificate"]),
    ("certify.cert_io.s", "s", _inclusive("certify.cert_io"), ["certify.cert_io"]),
    ("certify.cert_bytes", "bytes", _counter("certify.cert_io", "bytes"), ["certify.cert_io"]),
    ("enumerator.random_bounded_graph.s", "s",
     lambda setup, rnd: setup.inclusive("enumerator.random_bounded_graph"),
     ["enumerator.random_bounded_graph"]),
    ("enumerator.enumerate_and_verify.s", "s", _inclusive("enumerator.enumerate_and_verify"),
     ["enumerator.enumerate_and_verify"]),
    ("enumerator.enumerate_and_verify.self_s", "s", _self("enumerator.enumerate_and_verify"),
     ["enumerator.enumerate_and_verify"]),
    ("enumerator.graphs_enumerated", "count", _counter("enumerator.enumerate_and_verify", "graphs"),
     ["enumerator.enumerate_and_verify"]),
    ("enumerator.graphs_per_s", "graphs/s", _graphs_per_s, ["enumerator.enumerate_and_verify"]),
    ("enumerator.canonical_form.s", "s", _inclusive("enumerator.canonical_form"),
     ["enumerator.canonical_form"]),
    ("enumerator.canonical_form.calls", "count", _calls("enumerator.canonical_form"),
     ["enumerator.canonical_form"]),
    ("cli.run.s", "s", _inclusive("cli.run"), ["cli.run"]),
    ("cli.run.self_s", "s", _self("cli.run"), ["cli.run"]),
] + [
    # self time of each whole layer (module); the layer's spans need not all exist
    (f"layer.{layer}.self_s", "s", _self(layer), [layer]) for layer in LAYERS.values()
]

# Metrics the runner fills in from the inputs and the untraced/traced timings.
RUN_METRICS = [
    ("graph.n", "count"),
    ("graph.m", "count"),
    ("counting.triangles", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.covered_s", "s"),
    ("trace.spans", "count"),
]

PER_LAYER = [(name, unit) for name, unit, _, _ in SPAN_METRICS] + RUN_METRICS


def span_metrics(setup: SpanTable, rnd: SpanTable, installed: set[str], absent_layers: list[str]):
    """Returns ({name: (value, unit)}, [absent metric names])."""
    values, absent = {}, []
    for name, unit, fn, needs in SPAN_METRICS:
        present = all(n in installed if "." in n else n not in absent_layers for n in needs)
        if present:
            values[name] = (fn(setup, rnd), unit)
        else:
            values[name] = (0, unit)
            absent.append(name)
    return values, absent
