import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trident import (
    binomial,
    build_extremal,
    build_graph,
    complement_identity_check,
    count_triangles,
    gls_bound,
    merge_bound,
    shift_inequality_check,
)
from trident.bounds import BoundParams
from trident.errors import IdentityViolation, InvalidArgument
from conftest import complete_graph


class TestBinomial:
    def test_basic(self):
        assert binomial(4, 3) == 4
        assert binomial(2, 3) == 0
        assert binomial(-1, 3) == 0
        assert binomial(0, 0) == 1

    def test_negative_lower_rejected(self):
        with pytest.raises(InvalidArgument):
            binomial(4, -1)

    def test_cubic_identity(self):
        # C(d+1, 3) = (d^3 - d) / 6
        for d in range(1, 101):
            assert 6 * binomial(d + 1, 3) == d**3 - d
        for d in (10**3, 10**6):
            assert 6 * binomial(d + 1, 3) == d**3 - d


class TestGlsBound:
    @pytest.mark.parametrize(
        "n,d,t,q,r,bound",
        [(4, 3, 3, 1, 0, 4), (9, 3, 3, 2, 1, 8), (11, 3, 3, 2, 3, 9)],
    )
    def test_examples(self, n, d, t, q, r, bound):
        params, value = gls_bound(n, d, t)
        assert (params.q, params.r) == (q, r)
        assert value == bound

    def test_invalid(self):
        for bad in [(0, 3), (3, 0), (-1, 2)]:
            with pytest.raises(InvalidArgument):
                gls_bound(*bad)
        with pytest.raises(InvalidArgument):
            gls_bound(4, 3, 2)

    def test_decomposition_invariant(self):
        rng = random.Random(21)
        for _ in range(200):
            n, d = rng.randrange(1, 1000), rng.randrange(1, 50)
            params, _ = gls_bound(n, d)
            assert params.n == params.q * (params.d + 1) + params.r
            assert 0 <= params.r <= params.d

    def test_monotone_in_n(self):
        for d in range(1, 9):
            for t in (3, 4):
                values = [gls_bound(n, d, t)[1] for n in range(1, 60)]
                assert values == sorted(values)

    def test_inconsistent_params_rejected(self):
        with pytest.raises(InvalidArgument):
            BoundParams(n=10, d=3, t=3, q=1, r=1)

    def test_no_wrap_at_scale(self):
        _, v = gls_bound(10**9, 10**6, 3)
        assert v == (10**9 // (10**6 + 1)) * binomial(10**6 + 1, 3) + binomial(
            10**9 % (10**6 + 1), 3
        )


class TestShiftInequality:
    @pytest.mark.parametrize("a,b", [(3, 3), (1, 1), (5, 2)])
    def test_examples(self, a, b):
        assert shift_inequality_check(a, b) is True

    def test_full_range(self):
        assert all(
            shift_inequality_check(a, b) for a in range(1, 501) for b in range(1, a + 1)
        )

    def test_precondition(self):
        with pytest.raises(InvalidArgument):
            shift_inequality_check(2, 3)
        with pytest.raises(InvalidArgument):
            shift_inequality_check(3, 0)


class TestMergeBound:
    def test_examples(self):
        assert merge_bound(2, 2, 4) == 4
        assert merge_bound(4, 3, 4) == 5
        a = 5
        assert merge_bound(a, a, a) == 2 * binomial(a, 3)

    def test_out_of_range(self):
        with pytest.raises(InvalidArgument):
            merge_bound(2, 2, 5)
        with pytest.raises(InvalidArgument):
            merge_bound(3, 1, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 60), st.integers(0, 60), st.data())
    def test_dominates(self, a, b, data):
        c = data.draw(st.integers(max(a, b), a + b))
        assert merge_bound(a, b, c) >= binomial(a, 3) + binomial(b, 3)


class TestComplementIdentity:
    def test_k3(self):
        assert complement_identity_check(complete_graph(3)) == (1, 1)

    def test_edge_plus_isolated(self):
        assert complement_identity_check(build_graph(3, [(0, 1)])) == (0, 0)

    def test_empty(self):
        lhs, rhs = complement_identity_check(build_graph(6, []))
        assert lhs == rhs == binomial(6, 3)

    def test_random(self):
        rng = random.Random(22)
        for _ in range(300):
            n = rng.randrange(1, 33)
            g = build_graph(
                n,
                [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3],
            )
            lhs, rhs = complement_identity_check(g)
            assert lhs == rhs

    def test_complement_graph_not_built(self, monkeypatch):
        # The complement is counted over complemented n-bit rows.
        from trident import graph

        def refuse(g):
            raise AssertionError("complement_identity_check built the complement graph")

        monkeypatch.setattr(graph, "complement", refuse)
        rng = random.Random(23)
        for n in (1, 5, 17, 40):
            g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < 0.3])
            lhs, rhs = complement_identity_check(g)
            assert lhs == rhs

    def test_too_large_rejected(self):
        with pytest.raises(InvalidArgument):
            complement_identity_check(build_graph(2**12 + 1, []))

    def test_odd_degree_sum_raises(self):
        # The parity of sum d(v)(n-1-d(v)) is a hard check, not an assert.
        g = build_graph(3, [(0, 1)])
        g.degrees = [1, 0, 0]  # 1 * (3 - 1 - 1) is odd
        with pytest.raises(IdentityViolation):
            complement_identity_check(g)


def test_bound_attained_by_construction():
    for d in range(1, 9):
        for n in range(1, 61):
            assert count_triangles(build_extremal(n, d)) == gls_bound(n, d, 3)[1]
