"""Command-line entry point.

Exit codes: 0 success, 1 verification failure (tampered certificate,
violated bound, complement identity mismatch), 2 usage or input-format
error, an unreadable file, a graph too large for memory, or an internal
IdentityViolation; each error is one "error:" line.
Machine output goes to stdout (JSON with --json), errors to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import complement_identity_check, gls_bound
from .certify import PeelCertificate, peel, verify_certificate
from .counting import count_triangles, full_report
from .enumerator import enumerate_and_verify
from .errors import TridentError
from .formats import load_graph


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trident", description=__doc__.strip().splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)
    graph_file = argparse.ArgumentParser(add_help=False)
    graph_file.add_argument("graphfile", help="graph file (.g6 or edge-list text)")
    graph_file.add_argument("--format", choices=["g6", "el"], default=None,
                            help="override format auto-detection by extension")
    on_graph = [graph_file]

    sub.add_parser("count", help="count triangles in a graph file", parents=on_graph)
    sub.add_parser("report", help="full counting report (triangles, W, identities)",
                   parents=on_graph)

    sp = sub.add_parser("bound", help="extremal clique bound for (n, d[, t])")
    sp.add_argument("n", type=int)
    sp.add_argument("d", type=int)
    sp.add_argument("t", type=int, nargs="?", default=3)

    sp = sub.add_parser("certify", help="produce a peeling certificate", parents=on_graph)
    sp.add_argument("-d", type=int, required=True, dest="degree", help="declared max degree")
    sp.add_argument("-o", dest="output", default=None, help="write certificate JSON here")

    sp = sub.add_parser("verify", help="verify a peeling certificate against a graph",
                        parents=on_graph)
    sp.add_argument("certfile", help="certificate JSON produced by certify")

    sp = sub.add_parser("enumerate", help="exhaustive degree-bounded search at small n")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("-t", type=int, default=3)
    sp.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; the search runs in one process")
    sp.add_argument("-o", dest="output", default=None, help="write report JSON here")

    sub.add_parser("complement-check", help="check the complement triangle identity",
                   parents=on_graph)

    for sp in sub.choices.values():  # last, so it ends every command's usage
        sp.add_argument("--json", action="store_true")
    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        return _dispatch(args)
    except (TridentError, OSError, MemoryError) as e:  # bad input, unreadable or too large
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2


def _emit(args, payload: dict, human: str, code: int = 0) -> int:
    print(json.dumps(payload) if args.json else human)
    return code


def _dispatch(args) -> int:
    g = load_graph(args.graphfile, args.format) if "graphfile" in args else None

    if args.command == "count":
        t = count_triangles(g)
        return _emit(args, {"n": g.n, "m": g.m, "triangles": t}, f"triangles={t}")

    if args.command == "report":
        rep = full_report(g).to_dict()
        return _emit(args, rep, "\n".join(f"{k}={v}" for k, v in rep.items()))

    if args.command == "bound":
        params, bound = gls_bound(args.n, args.d, args.t)
        return _emit(
            args,
            {"n": args.n, "d": args.d, "t": args.t, "q": params.q, "r": params.r, "bound": bound},
            f"q={params.q} r={params.r} bound={bound}",
        )

    if args.command == "certify":
        cert = peel(g, args.degree)
        if not args.output:
            print(cert.to_json())
            return 0
        cert.save(args.output)
        return _emit(
            args,
            {"steps": len(cert.steps), "total_triangles": cert.total_triangles,
             "bound": cert.bound, "output": args.output},
            f"steps={len(cert.steps)} total_triangles={cert.total_triangles} "
            f"bound={cert.bound} -> {args.output}",
        )

    if args.command == "verify":
        result = verify_certificate(g, PeelCertificate.load(args.certfile))
        if result.ok:
            return _emit(args, {"ok": True}, "OK")
        print(f"verification failed: {result.reason}", file=sys.stderr)
        if args.json:
            print(json.dumps({"ok": False, "reason": result.reason}))
        return 1

    if args.command == "enumerate":
        rep = enumerate_and_verify(args.n, args.d, args.t, jobs=args.jobs)
        if args.output:
            with open(args.output, "w") as f:
                f.write(rep.to_json() + "\n")
        human = (
            f"graphs={rep.graphs_enumerated} max={rep.max_cliques_found} "
            f"bound={rep.bound} violation={rep.violation_found} "
            f"verdict={rep.uniqueness_verdict}"
        )
        return _emit(args, rep.to_dict(), human, 1 if rep.violation_found else 0)

    if args.command == "complement-check":
        lhs, rhs = complement_identity_check(g)
        return _emit(args, {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}, f"lhs={lhs} rhs={rhs}",
                     0 if lhs == rhs else 1)

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
