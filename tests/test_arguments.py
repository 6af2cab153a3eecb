"""One integer rule for every public entry point.

An integer argument takes an int or a numpy integer, never a bool, a
float, a string or None, and carries it on as a Python int.  The
generator's n, d and seed are covered by ``TestRandomBounded`` in
``test_enumerator.py``.
"""

import json

import numpy as np
import pytest

from trident import (
    BoundParams,
    binomial,
    build_extremal,
    build_graph,
    count_cliques,
    enumerate_and_verify,
    gls_bound,
    merge_bound,
    peel,
    shift_inequality_check,
)
from trident.errors import InvalidArgument, InvalidCliqueSize

G = build_extremal(9, 3)

# name -> (call of the argument's value, a valid value, the first refused int, error class)
ENTRY_POINTS = {
    "build_graph n": (lambda x: build_graph(x, [(0, 1)]), 5, -1, InvalidArgument),
    "build_extremal n": (lambda x: build_extremal(x, 3), 6, 0, InvalidArgument),
    "build_extremal d": (lambda x: build_extremal(6, x), 2, 0, InvalidArgument),
    "binomial k": (lambda x: binomial(x, 2), 5, None, InvalidArgument),
    "binomial j": (lambda x: binomial(5, x), 2, -1, InvalidArgument),
    "gls_bound n": (lambda x: gls_bound(x, 3), 8, 0, InvalidArgument),
    "gls_bound d": (lambda x: gls_bound(8, x), 3, 0, InvalidArgument),
    "gls_bound t": (lambda x: gls_bound(8, 3, x), 4, 2, InvalidArgument),
    "BoundParams n": (lambda x: BoundParams(x, 3, 3, 2, 0), 8, 0, InvalidArgument),
    "BoundParams d": (lambda x: BoundParams(8, x, 3, 2, 0), 3, 0, InvalidArgument),
    "BoundParams t": (lambda x: BoundParams(8, 3, x, 2, 0), 3, 2, InvalidArgument),
    "BoundParams q": (lambda x: BoundParams(8, 3, 3, x, 0), 2, -1, InvalidArgument),
    "BoundParams r": (lambda x: BoundParams(7, 3, 3, 1, x), 3, -1, InvalidArgument),
    "shift_inequality_check a": (lambda x: shift_inequality_check(x, 3), 5, 2, InvalidArgument),
    "shift_inequality_check b": (lambda x: shift_inequality_check(5, x), 3, 0, InvalidArgument),
    "merge_bound a": (lambda x: merge_bound(x, 3, 5), 4, -1, InvalidArgument),
    "merge_bound b": (lambda x: merge_bound(4, x, 5), 3, -1, InvalidArgument),
    "merge_bound c": (lambda x: merge_bound(4, 3, x), 5, 3, InvalidArgument),
    "count_cliques t": (lambda x: count_cliques(G, x), 3, 0, InvalidCliqueSize),
    "peel d": (lambda x: peel(G, x), 3, 0, InvalidArgument),
    "enumerate_and_verify n": (lambda x: enumerate_and_verify(x, 2), 4, 0, InvalidArgument),
    "enumerate_and_verify d": (lambda x: enumerate_and_verify(4, x), 2, 0, InvalidArgument),
    "enumerate_and_verify t": (lambda x: enumerate_and_verify(4, 2, x), 3, 2, InvalidArgument),
    "enumerate_and_verify jobs": (lambda x: enumerate_and_verify(4, 2, jobs=x), 1, 0,
                                  InvalidArgument),
}
NOT_INTEGERS = [True, False, np.bool_(True), 1.0, "3", None]


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_non_integers_refused(entry, value):
    call, _, _, error = ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_range_start(entry):
    call, valid, below, error = ENTRY_POINTS[entry]
    call(valid)
    if below is not None:
        with pytest.raises(error):
            call(below)


@pytest.mark.parametrize("kind", [np.int64, np.uint8])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_numpy_integers_equal_ints(entry, kind):
    call, valid, _, _ = ENTRY_POINTS[entry]
    assert call(kind(valid)) == call(valid)


def test_numpy_integers_carried_out_as_ints():
    params = gls_bound(np.int64(8), np.uint8(3), np.int32(3))[0]
    assert all(type(v) is int for v in vars(params).values())
    report = enumerate_and_verify(np.int64(4), np.int64(2), np.uint8(3))
    assert report.to_json() == enumerate_and_verify(4, 2).to_json()
    assert json.loads(report.to_json())["n"] == 4
    cert = peel(G, np.int64(3))
    assert type(cert.d) is int and cert.to_json() == peel(G, 3).to_json()
    assert type(build_graph(np.uint8(5), []).n) is int


def test_message_names_the_rule():
    with pytest.raises(InvalidArgument, match=r"^vertex count must be an integer >= 1, got True$"):
        gls_bound(True, 1)
    with pytest.raises(InvalidArgument, match=r"^upper index must be an integer, got 1\.0$"):
        binomial(1.0, 1)
    with pytest.raises(InvalidCliqueSize, match=r"^clique size must be an integer >= 1, got 0$"):
        count_cliques(G, 0)
