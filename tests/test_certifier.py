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
from trident.errors import DegreeExceeded, EmptyGraph, IdentityViolation
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

    def test_deterministic(self):
        g = random_bounded_graph(40, 5, 7)
        a, b = peel(g, 5), peel(g, 5)
        assert a.to_json() == b.to_json()


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
