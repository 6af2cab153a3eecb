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

    def add_graph_arg(sp):
        sp.add_argument("graphfile", help="graph file (.g6 or edge-list text)")
        sp.add_argument("--format", choices=["g6", "el"], default=None,
                        help="override format auto-detection by extension")

    sp = sub.add_parser("count", help="count triangles in a graph file")
    add_graph_arg(sp)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("report", help="full counting report (triangles, W, identities)")
    add_graph_arg(sp)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("bound", help="extremal clique bound for (n, d[, t])")
    sp.add_argument("n", type=int)
    sp.add_argument("d", type=int)
    sp.add_argument("t", type=int, nargs="?", default=3)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("certify", help="produce a peeling certificate")
    add_graph_arg(sp)
    sp.add_argument("-d", type=int, required=True, dest="degree", help="declared max degree")
    sp.add_argument("-o", dest="output", default=None, help="write certificate JSON here")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("verify", help="verify a peeling certificate against a graph")
    add_graph_arg(sp)
    sp.add_argument("certfile", help="certificate JSON produced by certify")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("enumerate", help="exhaustive degree-bounded search at small n")
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("-d", type=int, required=True)
    sp.add_argument("-t", type=int, default=3)
    sp.add_argument("--jobs", type=int, default=1, help="parallel subtree workers (default 1)")
    sp.add_argument("-o", dest="output", default=None, help="write report JSON here")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("complement-check", help="check the complement triangle identity")
    add_graph_arg(sp)
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


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _dispatch(args) -> int:
    if args.command == "count":
        g = load_graph(args.graphfile, args.format)
        t = count_triangles(g)
        _emit(args, {"n": g.n, "m": g.m, "triangles": t}, f"triangles={t}")
        return 0

    if args.command == "report":
        g = load_graph(args.graphfile, args.format)
        rep = full_report(g)
        human = "\n".join(f"{k}={v}" for k, v in rep.to_dict().items())
        _emit(args, rep.to_dict(), human)
        return 0

    if args.command == "bound":
        params, bound = gls_bound(args.n, args.d, args.t)
        _emit(
            args,
            {"n": args.n, "d": args.d, "t": args.t, "q": params.q, "r": params.r, "bound": bound},
            f"q={params.q} r={params.r} bound={bound}",
        )
        return 0

    if args.command == "certify":
        g = load_graph(args.graphfile, args.format)
        cert = peel(g, args.degree)
        if args.output:
            cert.save(args.output)
            _emit(
                args,
                {"steps": len(cert.steps), "total_triangles": cert.total_triangles,
                 "bound": cert.bound, "output": args.output},
                f"steps={len(cert.steps)} total_triangles={cert.total_triangles} "
                f"bound={cert.bound} -> {args.output}",
            )
        else:
            print(cert.to_json())
        return 0

    if args.command == "verify":
        g = load_graph(args.graphfile, args.format)
        cert = PeelCertificate.load(args.certfile)
        result = verify_certificate(g, cert)
        if result.ok:
            _emit(args, {"ok": True}, "OK")
            return 0
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
        _emit(args, rep.to_dict(), human)
        return 1 if rep.violation_found else 0

    if args.command == "complement-check":
        g = load_graph(args.graphfile, args.format)
        lhs, rhs = complement_identity_check(g)
        _emit(args, {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}, f"lhs={lhs} rhs={rhs}")
        return 0 if lhs == rhs else 1

    raise AssertionError(f"unhandled command {args.command}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
