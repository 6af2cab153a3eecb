import dataclasses
import hashlib
import random

import pytest

from trident import (
    PeelCertificate,
    binomial,
    build_extremal,
    build_graph,
    count_triangles,
    gls_bound,
    peel,
    random_bounded_graph,
    select_vertex,
    verify_certificate,
)
from trident.bounds import _gls
from trident.certify import PeelStep
from trident.errors import DegreeExceeded, EmptyGraph, FormatError, IdentityViolation
from trident.graph import max_degree
from conftest import all_graphs, complete_graph


class TestSelectVertex:
    def test_k3_tie_break(self):
        assert select_vertex(complete_graph(3)) == 0

    def test_isolated_beats_k4(self):
        g = build_graph(5, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert select_vertex(g) == 4

    def test_star_center_wins(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert select_vertex(g) == 0

    def test_guarantee_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randrange(1, 12)
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.5])
            v = select_vertex(g)
            from trident import triangles_meeting
            assert triangles_meeting(g, v) <= binomial(g.degrees[v] + 1, 3)

    def test_empty_rejected(self):
        with pytest.raises(EmptyGraph):
            select_vertex(build_graph(0, []))


class TestPeel:
    def test_extremal_is_tight(self):
        g = build_extremal(11, 3)  # 2K4 + K3
        cert = peel(g, 3)
        assert cert.total_triangles == cert.bound == 9
        assert all(s.triangles_removed == binomial(s.degree_at_choice + 1, 3)
                   for s in cert.steps)

    def test_edgeless(self):
        cert = peel(build_graph(5, []), 1)
        assert len(cert.steps) == 5
        assert cert.total_triangles == 0 <= cert.bound == 0

    def test_c5(self):
        g = build_graph(5, [(i, (i + 1) % 5) for i in range(5)])
        cert = peel(g, 2)
        assert cert.total_triangles == 0
        assert cert.bound == 1

    def test_degree_exceeded(self):
        with pytest.raises(DegreeExceeded):
            peel(complete_graph(4), 2)

    def test_declared_degree_past_the_graph(self, monkeypatch):
        # The step bounds run to the graph's largest degree, not to d: a
        # table of d + 1 entries would not fit in memory at d = 10**18.
        from trident import certify

        g = build_graph(3, [(0, 1)])
        step_bounds, sizes = certify._step_bounds, []

        def guarded(k):
            sizes.append(k)
            if k > max_degree(g):
                raise AssertionError(f"step bounds sized by {k}")
            return step_bounds(k)

        monkeypatch.setattr(certify, "_step_bounds", guarded)
        cert = peel(g, 10**18)
        assert sizes == [1]
        assert cert.d == 10**18 and cert.steps == peel(g, max_degree(g)).steps
        assert verify_certificate(g, cert)

    def test_invariants_random(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randrange(1, 15)
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.4])
            d = max(1, max_degree(g))
            cert = peel(g, d)
            assert cert.total_triangles == count_triangles(g)
            assert cert.total_triangles <= cert.bound == gls_bound(n, d, 3)[1]
            remaining = [s.remaining_vertices for s in cert.steps]
            assert remaining == sorted(remaining, reverse=True)
            assert remaining[-1] == 0
            seen = n
            for s in cert.steps:
                assert s.triangles_removed <= binomial(s.degree_at_choice + 1, 3)
                assert s.degree_at_choice <= d
                assert binomial(s.degree_at_choice + 1, 3) + _gls(
                    seen - s.degree_at_choice - 1, d, 3) <= _gls(seen, d, 3)
                seen = s.remaining_vertices

    def test_telescoping_overshoot_raises(self, monkeypatch):
        # The telescoping step is a hard check, not an assert: a bound that
        # shrinks as vertices go makes the first deletion overshoot it.
        from trident import certify

        monkeypatch.setattr(certify, "_gls", lambda n, d, t: -n)
        with pytest.raises(IdentityViolation):
            peel(complete_graph(4), 3)

    def test_miscounted_step_raises(self, monkeypatch):
        # Every count one short: the first step lists more triangles than counted.
        from trident import certify

        meeting_counts = certify.meeting_counts
        monkeypatch.setattr(certify, "meeting_counts", lambda g: [c - 1 for c in meeting_counts(g)])
        with pytest.raises(IdentityViolation, match=r"^step 0: "):
            peel(random_bounded_graph(40, 5, 7), 5)

    def test_counts_once(self, monkeypatch):
        from trident import certify

        meeting_counts, calls = certify.meeting_counts, []

        def counted(g):
            calls.append(g.n)
            return meeting_counts(g)

        monkeypatch.setattr(certify, "meeting_counts", counted)
        g = random_bounded_graph(200, 9, 0)
        cert = peel(g, 9)
        assert calls == [200] and len(cert.steps) > 1

    def test_deterministic(self):
        g = random_bounded_graph(40, 5, 7)
        a, b = peel(g, 5), peel(g, 5)
        assert a.to_json() == b.to_json()

    def test_certificates_byte_identical(self):
        # One SHA-256 over the certificates of every graph on 1-5 vertices,
        # 200 seeded random graphs with n <= 64 and build_extremal(100, 7),
        # pinned while peel read its step bounds from the public binomial.
        rng = random.Random(0)
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        graphs += [random_bounded_graph(rng.randint(1, 64), rng.randint(1, 8), seed)
                   for seed in range(200)]
        graphs.append(build_extremal(100, 7))
        digest = hashlib.sha256(b"".join(peel(g, max(1, max_degree(g))).to_json().encode() + b"\n"
                                         for g in graphs))
        assert digest.hexdigest() == "7fd6c7005664a60213b127211a0b6b3334d5f135376bace18bc6d3eaae3fe234"

    def test_certificates_byte_identical_past_bit_budget(self):
        # n * n is past DENSE_BIT_BUDGET, so the one count comes from the CSR
        # kernel; pinned while peel recounted the whole graph at every step.
        digest = hashlib.sha256(b"".join(peel(random_bounded_graph(1500, 16, s), 16).to_json().encode()
                                         + b"\n" for s in range(3)))
        assert digest.hexdigest() == "4b1cd08c0eeb505adc684908febe06383e5cb1268f63ea80bbed0ff044e4b1c8"


class TestVerify:
    def test_round_trip_random(self):
        rng = random.Random(33)
        for _ in range(60):
            n = rng.randrange(1, 30)
            d = rng.randrange(1, 8)
            g = random_bounded_graph(n, d, rng.randrange(2**31))
            assert verify_certificate(g, peel(g, d))

    def test_round_trip_exhaustive_small(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                d = max(1, max_degree(g))
                assert verify_certificate(g, peel(g, d))

    def test_wrong_graph_rejected(self):
        g = complete_graph(4)
        other = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        cert = peel(g, 3)
        res = verify_certificate(other, cert)
        assert not res and res.reason == "input hash mismatch"

    def test_tampered_step_count_rejected(self):
        g = build_extremal(9, 3)
        cert = peel(g, 3)
        d = cert.to_dict()
        d["steps"][0]["triangles_removed"] += 1
        res = verify_certificate(g, PeelCertificate.from_dict(d))
        assert not res
        assert "triangles_removed" in res.reason or "bound" in res.reason

    @pytest.mark.parametrize("field,delta", [
        ("n", 1), ("d", 1), ("q", 1), ("r", 1), ("bound", -1), ("total_triangles", 1),
    ])
    def test_tampered_header_rejected(self, field, delta):
        g = build_extremal(8, 3)
        cert = peel(g, 3)
        d = cert.to_dict()
        d[field] += delta
        assert not verify_certificate(g, PeelCertificate.from_dict(d))

    @pytest.mark.parametrize("field", [
        "chosen_vertex", "original_vertex", "degree_at_choice", "remaining_vertices",
    ])
    def test_tampered_step_fields_rejected(self, field):
        g = build_extremal(10, 4)
        cert = peel(g, 4)
        d = cert.to_dict()
        d["steps"][0][field] += 1
        assert not verify_certificate(g, PeelCertificate.from_dict(d))

    def test_truncated_steps_rejected(self):
        g = build_extremal(9, 3)
        cert = peel(g, 3)
        d = cert.to_dict()
        d["steps"] = d["steps"][:-1]
        res = verify_certificate(g, PeelCertificate.from_dict(d))
        assert not res

    def test_json_round_trip(self, tmp_path):
        g = build_extremal(9, 3)
        cert = peel(g, 3)
        p = tmp_path / "cert.json"
        cert.save(p)
        assert PeelCertificate.load(p) == cert
        assert verify_certificate(g, PeelCertificate.load(p))


def _with_step(cert: PeelCertificate, k: int, **changes) -> PeelCertificate:
    steps = list(cert.steps)
    steps[k] = PeelStep(**{**steps[k].to_dict(), **changes})
    return dataclasses.replace(cert, steps=steps)


def _near_extremal():
    g = build_extremal(102, 16)  # 6 K17
    drop = {(0, 1), (17, 30), (40, 41), (85, 101)}
    return build_graph(102, [e for e in g.edges() if e not in drop])


class TestLocalReplay:
    """Round trips and tampers on graphs of 65 to 200 vertices."""

    @pytest.fixture(scope="class")
    def peeled(self):
        rng = random.Random(34)
        cases = []
        for _ in range(12):
            n, d = rng.randrange(65, 201), rng.randrange(1, 17)
            g = random_bounded_graph(n, d, rng.randrange(2**31))
            cases.append((g, peel(g, d)))
        g = _near_extremal()
        cases.append((g, peel(g, 16)))
        return cases

    def test_round_trip(self, peeled):
        for g, cert in peeled:
            assert verify_certificate(g, cert)
        g, cert = peeled[-1]
        assert 0 < cert.total_triangles < cert.bound

    @pytest.mark.parametrize("where", ["middle", "last"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_triangles_removed_tamper(self, peeled, where, delta):
        for g, cert in peeled:
            k = len(cert.steps) // 2 if where == "middle" else len(cert.steps) - 1
            bad = _with_step(cert, k, triangles_removed=cert.steps[k].triangles_removed + delta)
            res = verify_certificate(g, bad)
            assert not res and res.reason == f"step {k}: triangles_removed mismatch"

    @pytest.mark.parametrize("where", ["middle", "last"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_rank_tamper_after_deletions(self, peeled, where, delta):
        # Past step 0 the alive rank differs from the vertex id.
        moved = 0
        for g, cert in peeled:
            k = len(cert.steps) // 2 if where == "middle" else len(cert.steps) - 1
            step = cert.steps[k]
            moved += step.chosen_vertex != step.original_vertex
            bad = _with_step(cert, k, chosen_vertex=step.chosen_vertex + delta)
            res = verify_certificate(g, bad)
            assert not res
            assert res.reason == f"step {k}: chosen vertex inconsistent with relabeling"
        assert moved

    @pytest.mark.parametrize("vertex", [-1, "n"])
    def test_out_of_range_vertex(self, vertex):
        g = random_bounded_graph(80, 6, 5)
        cert = peel(g, 6)
        bad = _with_step(cert, 1, original_vertex=g.n if vertex == "n" else vertex)
        res = verify_certificate(g, bad)
        assert not res and res.reason == "step 1: original vertex already deleted"

    def test_shares_no_code_with_peel(self, monkeypatch):
        from trident import certify, counting

        g = _near_extremal()
        certs = [(g, peel(g, 16))]
        for n in (70, 150):
            h = random_bounded_graph(n, 9, n)
            certs.append((h, peel(h, 9)))

        def refuse(*args, **kwargs):
            raise AssertionError("the replay must not call this")

        for module, name in [(counting, "_counts"), (certify, "_argmin_slack"),
                             (certify, "_step_bounds"), (certify, "meeting_counts")]:
            monkeypatch.setattr(module, name, refuse)
        for h, cert in certs:
            assert verify_certificate(h, cert)


class TestStrictSchema:
    @pytest.fixture
    def data(self):
        return peel(build_extremal(9, 3), 3).to_dict()

    def test_valid_round_trip(self, data):
        assert PeelCertificate.from_dict(data).to_dict() == data

    @pytest.mark.parametrize("text", ["", "not json", "{", "[1, 2]", "null", "3", "[" * 100_000])
    def test_not_a_json_object(self, text):
        with pytest.raises(FormatError):
            PeelCertificate.from_json(text)

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "cert.json"
        p.write_bytes(b'{"n": "\xff"}')
        with pytest.raises(FormatError):
            PeelCertificate.load(p)

    @pytest.mark.parametrize("key", ["bound", "steps", "input_hash", "total_triangles"])
    def test_missing_header_key(self, data, key):
        del data[key]
        with pytest.raises(FormatError, match=key):
            PeelCertificate.from_dict(data)

    def test_extra_header_key(self, data):
        data["comment"] = "hi"
        with pytest.raises(FormatError, match="comment"):
            PeelCertificate.from_dict(data)

    def test_missing_step_key(self, data):
        del data["steps"][1]["degree_at_choice"]
        with pytest.raises(FormatError, match="step 1"):
            PeelCertificate.from_dict(data)

    def test_extra_step_key(self, data):
        data["steps"][0]["note"] = 1
        with pytest.raises(FormatError, match="step 0"):
            PeelCertificate.from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("n", True), ("d", 3.0), ("q", "2"), ("r", None), ("bound", [9]),
        ("total_triangles", False), ("input_hash", 7), ("hash_algorithm", None),
        ("steps", {}), ("steps", [[1, 2, 3, 4, 5]]),
    ])
    def test_wrong_header_type(self, data, key, value):
        data[key] = value
        with pytest.raises(FormatError):
            PeelCertificate.from_dict(data)

    @pytest.mark.parametrize("value", [8.0, True, "8"])
    def test_built_with_wrong_type(self, value):
        # A certificate that from_dict would refuse cannot be built either.
        cert = peel(build_extremal(9, 3), 3)
        with pytest.raises(FormatError, match="total_triangles"):
            dataclasses.replace(cert, total_triangles=value)
        with pytest.raises(FormatError, match="triangles_removed"):
            dataclasses.replace(cert.steps[0], triangles_removed=value)
        with pytest.raises(FormatError, match="steps"):
            dataclasses.replace(cert, steps=[s.to_dict() for s in cert.steps])

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(PeelStep)])
    @pytest.mark.parametrize("value", [True, 1.0, "1", None])
    def test_wrong_step_type(self, data, key, value):
        data["steps"][0][key] = value
        with pytest.raises(FormatError, match=key):
            PeelCertificate.from_dict(data)
