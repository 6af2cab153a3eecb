"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 45 --trace 0

Run from the repository root; trident is imported from ``src/``.  The run
sets up the workload's inputs at least three times and for at least three
seconds.  Then it runs rounds of the workload's two timed jobs, at least
three and until ``--seconds`` have passed.  ``setup_s`` is the fastest
set-up and each job's time its fastest round (README.md, Noise, says
why).  With ``--trace 1`` it then sets up once more and runs a few more
rounds with spans installed around trident's public functions, and
reports the per-layer metrics of ``layers.py`` from the fastest of them
instead.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  ``--workload all``
runs every workload in turn, each ending with its own JSON line.
"""

from __future__ import annotations

import os

# One process and no extra threads: numpy must not start a BLAS thread pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib.util
import json
import platform
import resource
import shutil
import signal
import sys
from pathlib import Path
from statistics import quantiles
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import layers, reference  # noqa: E402
from perfbench.tracing import SpanTable, Tracer  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, Tally, check_fingerprint  # noqa: E402

# Set-up repeats at least this often and until this much time is spent.
SETUP_REPEATS = 3
SETUP_SECONDS = 3.0
# Timed rounds per run, at least.
MIN_ROUNDS = 3
# Traced rounds; the spans of the fastest one are reported.
TRACE_ROUNDS = 3


def _import_trident():
    """Import trident from this checkout's src/, or exit 2 when it is missing."""
    if not (SRC / "trident" / "__init__.py").is_file():
        print(f"error: no trident package under {SRC}; run from the repository root",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import trident
    import trident.cli  # noqa: F401  (the CLI jobs call trident.cli.run)

    return trident


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    def version(mod):
        try:
            return __import__(mod).__version__
        except ImportError:
            return None

    src = hashlib.sha256()
    for path in sorted((SRC / "trident").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": _commit(),
        "src_sha256": src.hexdigest(),
    }


def measure(wl, inputs, expected, seconds: float, tally) -> dict[str, list[float]]:
    """Time rounds of the workload's two jobs (``main`` then ``check``) until
    at least MIN_ROUNDS rounds ran and ``seconds`` have passed."""
    samples: dict[str, list[float]] = {"main_s": [], "check_s": []}
    start = perf_counter()
    while len(samples["main_s"]) < MIN_ROUNDS or perf_counter() - start < seconds:
        samples["main_s"].append(wl.main(inputs, expected, tally))
        samples["check_s"].append(wl.check(inputs, expected, tally))
    return samples


def traced_metrics(wl, inputs, expected, tally, untraced: float, lines: list[str]):
    """One set-up and TRACE_ROUNDS rounds of both jobs with tracing
    installed; returns the per-layer metrics of the fastest round and the
    per-span-name tables."""
    rounds = []
    with Tracer() as tracer:
        inputs = wl.setup()
        setup_spans = SpanTable(tracer.take())
        for _ in range(TRACE_ROUNDS):
            elapsed = wl.main(inputs, expected, tally) + wl.check(inputs, expected, tally)
            rounds.append((elapsed, tracer.take()))
    traced, spans = min(rounds, key=lambda r: r[0])
    round_spans = SpanTable(spans)
    metrics, absent = layers.span_metrics(setup_spans, round_spans, tracer.installed,
                                          tracer.absent)
    graphs = wl.graphs(inputs)
    covered = round_spans.top_level()
    metrics.update({
        "graph.n": (sum(n for n, _ in graphs), "count"),
        "graph.m": (sum(len(reference.edge_keys(n, e)) for n, e in graphs), "count"),
        "counting.triangles": (sum(reference.triangle_count(n, e) for n, e in graphs), "count"),
        "trace.untraced_s": (untraced, "s"),
        "trace.traced_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.covered_s": (covered, "s"),
        "trace.spans": (len(round_spans.spans), "count"),
    })
    lines.append(f"top-level spans cover {covered:.4f} s; untraced jobs {untraced:.4f} s; "
                 f"difference {covered - untraced:+.4f} s; tracing overhead "
                 f"{traced - untraced:+.4f} s")
    lines.append(f"absent per-layer metrics: {', '.join(absent) if absent else 'none'}")
    tables = {"setup": setup_spans.by_name(), "round": round_spans.by_name(), "absent": absent}
    return metrics, tables


def run(name: str, args, trident, workdir: Path) -> tuple[dict, list[str]]:
    cls = WORKLOADS[name]
    wl = cls(trident, args.seed, workdir)
    facts = machine_facts()
    lines = [f"machine: {json.dumps(facts)}"]

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = perf_counter()
        inputs = wl.setup()
        setup_times.append(perf_counter() - t0)
    expected = wl.reference(inputs)

    ok_fp, digest = check_fingerprint(cls, trident, inputs if args.seed == DEFAULT_SEED else None)
    lines.append(f"input fingerprint (seed {DEFAULT_SEED}): {digest} "
                 f"{'matches' if ok_fp else 'DOES NOT MATCH'} perfbench/fingerprints.json")

    tally = Tally()
    samples = measure(wl, inputs, expected, args.seconds, tally)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rounds = len(samples["main_s"])
    lines.append(f"workload {cls.name}, seed {args.seed}: {len(setup_times)} set-ups, "
                 f"{rounds} rounds; each time is the fastest set-up or round")
    people = {"setup_s": (min(setup_times), "s")}
    people.update(wl.describe(samples, tally))
    people["peak_rss_mb"] = (rss_mb, "MB")
    people["ops_attempted"] = (tally.attempted, "count")
    people["ops_failed"] = (tally.failed, "count")
    lines += [f"  {k} = {v:.6g} {u}" for k, (v, u) in people.items()]
    for name, key in zip(wl.job_names, samples):
        q1, q2, q3 = quantiles(samples[key], n=4)
        lines.append(f"  {name} over {rounds} rounds: min {min(samples[key]):.4f} s, "
                     f"quartiles {q1:.4f} {q2:.4f} {q3:.4f} s")

    untraced = min(samples["main_s"]) + min(samples["check_s"])
    if not args.trace:
        metrics = {
            "setup_s": (min(setup_times), "s"),
            "main_s": (min(samples["main_s"]), "s"),
            "check_s": (min(samples["check_s"]), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        metrics, tables = traced_metrics(wl, inputs, expected, tally, untraced, lines)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{cls.name}-seed{args.seed}.json").write_text(json.dumps(
            {"machine": facts, "metrics": {k: v for k, (v, _) in metrics.items()}, **tables},
            indent=1))

    result = {
        "correct": tally.failed == 0 and ok_fp,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    trident = _import_trident()
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    correct = True
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        workdir = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            result, lines = run(name, args, trident, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
