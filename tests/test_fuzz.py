"""Fuzz the readers: on any input they return a result or raise a TridentError.

Every vertex count the strategies can write is either small or rejected
before anything is allocated, so no example builds a large graph.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from trident import PeelCertificate, build_extremal, peel, read_edge_list, read_graph6
from trident.cli import run
from trident.errors import TridentError
from trident.formats import _g6_encode_n

FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def only_trident_errors(read, data):
    try:
        read(data)
    except TridentError:
        pass


# -- graph6 -----------------------------------------------------------------

g6_chars = st.characters(min_codepoint=63, max_codepoint=126)


@st.composite
def g6_strings(draw):
    """graph6 headers for n <= 80 with bodies of about the right length."""
    n = draw(st.integers(0, 80))
    need = (n * (n - 1) // 2 + 5) // 6
    size = draw(st.sampled_from([need, need, need - 1, need + 1]))
    body = draw(st.text(g6_chars, min_size=max(size, 0), max_size=max(size, 0)))
    prefix = draw(st.sampled_from(["", ">>graph6<<", ">>sparse6<<", " "]))
    return prefix + _g6_encode_n(n).decode() + body


@FUZZ
@given(st.one_of(st.text(max_size=40), st.text(g6_chars, max_size=40), g6_strings()))
def test_read_graph6(line):
    only_trident_errors(read_graph6, line)


# -- edge lists ---------------------------------------------------------------

# Random text whose only digit is 0 (int() reads every Unicode digit): every
# number in it is 0, so no header asks for a large graph.
no_large_numbers = st.text(st.characters(exclude_categories=("Cs", "Nd"), include_characters="0"),
                           max_size=60)
endpoints = st.one_of(st.integers(-3, 12), st.integers(-2**70, 2**70))
tokens = st.one_of(endpoints.map(str), st.text(max_size=4), st.just("#"))


@st.composite
def edge_list_files(draw):
    """Well-formed files with endpoints over +-2**70, and some broken lines."""
    n = draw(st.one_of(st.integers(-2, 12), st.integers(2**32, 2**70)))  # the large n are rejected
    lines = draw(st.lists(st.one_of(st.tuples(endpoints, endpoints).map(lambda e: f"{e[0]} {e[1]}"),
                                    st.lists(tokens, max_size=3).map(" ".join)), max_size=8))
    m = draw(st.sampled_from([len(lines), len(lines), len(lines) + 1]))
    return "\n".join([f"{n} {m}", *lines]) + "\n"


@FUZZ
@given(st.one_of(no_large_numbers, edge_list_files()))
def test_read_edge_list(text):
    only_trident_errors(read_edge_list, text)


# -- certificates -------------------------------------------------------------

CERT = peel(build_extremal(9, 3), 3).to_dict()
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def certificate_texts(draw):
    """A valid certificate with one header or step field replaced or dropped."""
    data = json.loads(json.dumps(CERT))
    target = data
    if draw(st.booleans()):
        target = data["steps"][draw(st.integers(0, len(data["steps"]) - 1))]
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(json_values)
    return json.dumps(data)


@FUZZ
@given(st.one_of(st.text(max_size=40), json_values.map(json.dumps), certificate_texts()))
def test_certificate_from_json(text):
    only_trident_errors(PeelCertificate.from_json, text)


# -- the CLI ------------------------------------------------------------------


@FUZZ
@given(st.one_of(st.tuples(st.just("g.g6"), st.one_of(st.text(g6_chars, max_size=40), g6_strings())),
                 st.tuples(st.just("g.el"), st.one_of(no_large_numbers, edge_list_files()))))
def test_cli_exit_codes(named_text):
    name, text = named_text
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()), redirect_stderr(err):
        path = Path(tmp) / name
        path.write_bytes(text.encode("utf-8"))
        code = run(["count", str(path)])
    assert code in (0, 2)
    assert (code == 2) == err.getvalue().startswith("error:")
    assert err.getvalue().count("\n") == (code == 2)
