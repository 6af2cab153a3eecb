import hashlib
import random
from contextlib import contextmanager
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trident import (
    build_graph,
    formats,
    graph_hash,
    load_graph,
    random_bounded_graph,
    read_edge_list,
    read_graph6,
    save_graph,
    write_edge_list,
    write_graph6,
)
from trident.errors import FormatError, InvalidArgument, InvalidVertex, SelfLoopRejected, TridentError
from conftest import complete_graph, petersen


def random_graph(rng, n, p=0.4):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])


class TestEdgeList:
    def test_round_trip(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_graph(rng, rng.randrange(0, 12))
            assert read_edge_list(write_edge_list(g)) == g

    def test_comments_ignored(self):
        g = read_edge_list("# a comment\n3 2\n0 1\n# another\n1 2\n")
        assert g == build_graph(3, [(0, 1), (1, 2)])

    def test_bad_header(self):
        with pytest.raises(FormatError):
            read_edge_list("3\n")

    def test_wrong_edge_count(self):
        with pytest.raises(FormatError):
            read_edge_list("3 2\n0 1\n")


# Edge-list texts and what the reader makes of them: (n, edges) or the exact
# error.  Line breaks and whitespace are those of str.splitlines and
# str.split, and tokens are whatever int() reads.
PATH_3 = (3, [(0, 1), (1, 2)])
EDGE_LIST_CORPUS = [
    ("3 2\r\n0 1\r\n1 2\r\n", PATH_3),
    ("3 2\r0 1\r1 2\r", PATH_3),
    ("3\t2\n0\t1\n\t1 \t 2\t\n", PATH_3),
    ("3 2\v0 1\f1 2\x1c", PATH_3),
    ("4 2\x1d0 1\x1e2 3", (4, [(0, 1), (2, 3)])),
    ("4 2\x1f\n0\x1f1\n2 3\n", (4, [(0, 1), (2, 3)])),
    ("\n\n3 1\n\n \n\t\n0 2\n\n\x1f\n", (3, [(0, 2)])),
    ("# c\n#\n3 2\n# between\n0 1\n   # indented\n#0 1\n1 2\n# end", PATH_3),
    ("3 2\n0 1\n1 0\n", (3, [(0, 1)])),
    ("0 0\n", (0, [])),
    ("5 0 \n", (5, [])),
    ("3 1\n0 1 # c\n", (FormatError, "bad edge line '0 1 # c'")),
    ("3 1\n0 1#c\n", (FormatError, "non-integer edge line '0 1#c'")),
    ("3 1 # c\n0 1\n", (FormatError, "expected header 'n m', got '3 1 # c'")),
    ("1_1 1\n+0 1_0\n", (11, [(0, 10)])),
    ("+3 1\n+2 -0\n", (3, [(0, 2)])),
    ("3 1\n0 -1\n", (InvalidVertex, "edge (0, -1) endpoint not in [0, 3)")),
    ("3 1\n0 0000000000000000000002\n", (3, [(0, 2)])),
    ("3 1\n-0000000000000000000000 2\n", (3, [(0, 2)])),
    ("3 1\n0 1000000000000000000\n", (InvalidVertex, "edge (0, 1000000000000000000) endpoint not in [0, 3)")),
    ("3 1\n0 9223372036854775808\n",
     (InvalidVertex, "edge (0, 9223372036854775808) endpoint is not an integer in [0, 3)")),
    ("3 1\n0 -9223372036854775809\n",
     (InvalidVertex, "edge (0, -9223372036854775809) endpoint is not an integer in [0, 3)")),
    ("3 1\n0 123456789012345678901\n",
     (InvalidVertex, "edge (0, 123456789012345678901) endpoint is not an integer in [0, 3)")),
    ("3 2\n1 2\n0 -123456789012345678901\n",
     (InvalidVertex, "edge (0, -123456789012345678901) endpoint is not an integer in [0, 3)")),
    ("12345678901234567890123 0\n",
     (InvalidArgument, "vertex count 12345678901234567890123 is too large: n*n must stay below 2**63")),
    ("3 12345678901234567890123\n", (FormatError, "header declares 12345678901234567890123 edges, file has 0")),
    ("", (FormatError, "empty edge-list file")),
    ("\n \n", (FormatError, "empty edge-list file")),
    ("# only a comment\n", (FormatError, "empty edge-list file")),
    ("3\n", (FormatError, "expected header 'n m', got '3'")),
    ("3 1 2\n0 1\n", (FormatError, "expected header 'n m', got '3 1 2'")),
    ("3 x\n0 1\n", (FormatError, "non-integer header '3 x'")),
    ("3 0x1\n0 1\n", (FormatError, "non-integer header '3 0x1'")),
    ("3 1_\n0 1\n", (FormatError, "non-integer header '3 1_'")),
    ("3 2\n0 1\n", (FormatError, "header declares 2 edges, file has 1")),
    ("3 1\n0 1\n1 2\n", (FormatError, "header declares 1 edges, file has 2")),
    ("3 -1\n", (FormatError, "header declares -1 edges, file has 0")),
    ("-1 0\n", (InvalidArgument, "vertex count must be a nonnegative integer, got -1")),
    ("3 1\n0\n", (FormatError, "bad edge line '0'")),
    ("3 1\n  0  x  \n", (FormatError, "non-integer edge line '0  x'")),
    ("3 1\n- 1\n", (FormatError, "non-integer edge line '- 1'")),
    ("3 1\n--1 0\n", (FormatError, "non-integer edge line '--1 0'")),
    ("3 1\n0 1__0\n", (FormatError, "non-integer edge line '0 1__0'")),
    ("3 1\n0 _1\n", (FormatError, "non-integer edge line '0 _1'")),
    ("3 2\n0 x\n0 1 2\n", (FormatError, "non-integer edge line '0 x'")),
    ("3 2\n0 1 2\n0 x\n", (FormatError, "bad edge line '0 1 2'")),
    ("3 1\n1 1\n", (SelfLoopRejected, "self-loop (1, 1) rejected")),
    # int() refuses more than 4300 digits.
    ("3 1\n0 " + "1" * 5000 + "\n", (FormatError, "non-integer edge line " + repr("0 " + "1" * 5000))),
]


def sparse_and_small_graphs():
    """The sparse benchmark graphs of seeds 0-3, then a seeded 300-graph
    suite with n <= 64 and d <= 16."""
    graphs = [random_bounded_graph(16_500, 16, seed) for seed in range(4)]
    rng = random.Random(0)
    for _ in range(300):
        n, d = rng.randrange(1, 65), rng.randrange(1, 17)
        graphs.append(random_bounded_graph(n, d, rng.randrange(2**31)))
    return graphs


def reference_read_edge_list(text):
    """The per-line reader that the numpy codec replaced, kept as its reference."""
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise FormatError("empty edge-list file")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"expected header 'n m', got {rows[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise FormatError(f"non-integer header {rows[0]!r}") from None
    if len(rows) - 1 != m:
        raise FormatError(f"header declares {m} edges, file has {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"non-integer edge line {ln!r}") from None
    return build_graph(n, edges)


def outcome(read, text):
    try:
        g = read(text)
    except TridentError as e:
        return type(e), str(e)
    return g.n, g.edge_list()


# ASCII edge lists with every line break and blank of str.splitlines and
# str.split, tokens int() reads in other ways, and broken lines.  Every
# header asks for a small graph or one build_graph refuses before allocating.
line_breaks = st.sampled_from(["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"])
blanks = st.sampled_from([" ", "\t", "  ", "\x1f", " \t"])
edge_tokens = st.one_of(
    st.integers(-1, 12).map(str),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["+1", "-0", "00", "1_0", "_1", "1_", "1__0", "-", "+", "#", "#1", "0x1", "1e3"]),
    st.text(st.characters(max_codepoint=127), max_size=3),
)


@st.composite
def ascii_edge_lists(draw):
    n = draw(st.one_of(st.integers(-2, 12), st.integers(2**32, 2**70)))
    lines = draw(st.lists(st.lists(edge_tokens, max_size=3), max_size=8))
    m = draw(st.sampled_from([len(lines), len(lines), len(lines) + 1]))
    text = f"{n}{draw(blanks)}{m}"
    for tokens in lines:
        text += draw(line_breaks) + draw(st.sampled_from(["", " "])) + draw(blanks).join(tokens)
    return text + draw(st.sampled_from(["", "\n", " \n"]))


class TestEdgeListCodec:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ascii_edge_lists())
    def test_matches_reference_reader(self, text):
        assert outcome(read_edge_list, text) == outcome(reference_read_edge_list, text)


    @pytest.mark.parametrize("text, expected", EDGE_LIST_CORPUS)
    def test_corpus(self, text, expected):
        if isinstance(expected[0], int):
            assert read_edge_list(text) == build_graph(*expected)
        else:
            error, message = expected
            with pytest.raises(error) as info:
                read_edge_list(text)
            assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("text", ["\u0663 0\n", "3 1\n0 1\u00a0\n", "3 1\n0 1\n# caf\u00e9\n", "3 0\u2028"])
    def test_non_ascii_rejected(self, text):
        with pytest.raises(FormatError, match="non-ASCII character at offset"):
            read_edge_list(text)

    def test_digest_and_round_trip(self):
        # The SHA-256 of the text written before the numpy codec.
        graphs = sparse_and_small_graphs()
        texts = [write_edge_list(g) for g in graphs]
        digest = hashlib.sha256("".join(texts).encode("ascii")).hexdigest()
        assert digest == "afbccc4ac045a22fc951025af5aa6a1cc7a1ad4f9b3d66be18a082d20dccbb48"
        for g, text in zip(graphs, texts):
            assert read_edge_list(text) == g
            assert graph_hash(g) == hashlib.sha256(text.encode("ascii")).hexdigest()

    def test_writer_formats_every_width(self):
        g = build_graph(10**6, [(0, 9), (9, 10), (99, 100), (0, 999_999), (123_456, 654_321)])
        assert write_edge_list(g) == "1000000 5\n0 9\n0 999999\n9 10\n99 100\n123456 654321\n"
        assert write_edge_list(build_graph(1, [])) == "1 0\n"
        assert write_edge_list(build_graph(0, [])) == "0 0\n"


@contextmanager
def strict_spy():
    """Record, per call, whether ``formats._strict_edge_list`` accepted its bytes."""
    accepted, real = [], formats._strict_edge_list

    def spy(raw):
        parsed = real(raw)
        accepted.append(parsed is not None)
        return parsed

    with mock.patch.object(formats, "_strict_edge_list", spy):
        yield accepted


def general_outcome(text):
    """The outcome of the reader with its strict path switched off."""
    with mock.patch.object(formats, "_strict_edge_list", lambda raw: None):
        return outcome(read_edge_list, text)


def strict_outcome(text):
    """The outcome of the strict path alone; None when it refuses the text."""
    parsed = formats._strict_edge_list(text.encode("ascii"))
    return None if parsed is None else outcome(lambda _: build_graph(*parsed), text)


@st.composite
def trident_lines(draw):
    """Token pairs of a header and 1-8 edge lines in the writer's form."""
    n = draw(st.integers(2, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=8))
    return [[str(n), str(len(edges))]] + [[str(u), str(v)] for u, v in edges]


def _join(lines, ends=None):
    ends = ends or ["\n"] * len(lines)
    return "".join(" ".join(tokens) + end for tokens, end in zip(lines, ends))


def _with_token(lines, i, j, token):
    lines = [list(tokens) for tokens in lines]
    lines[i][j] = token
    return _join(lines)


def _with_end(lines, i, end):
    ends = ["\n"] * len(lines)
    ends[i] = end
    return _join(lines, ends)


# One mutation of a writer-form text each: whether the strict path accepts
# the result, and how to make it from the lines, a line index i, a token
# index j and hypothesis' draw.  The last line is an edge line.
MUTATIONS = {
    "none": (True, lambda ls, i, j, draw: _join(ls)),
    "tab": (False, lambda ls, i, j, draw: _join(ls[:i] + [["\t".join(ls[i])]] + ls[i + 1:])),
    "cr": (False, lambda ls, i, j, draw: _with_end(ls, i, "\r")),
    "crlf": (False, lambda ls, i, j, draw: _with_end(ls, i, "\r\n")),
    "leading space": (False, lambda ls, i, j, draw: _with_token(ls, i, 0, " " + ls[i][0])),
    "trailing space": (False, lambda ls, i, j, draw: _with_end(ls, i, " \n")),
    "no final newline": (False, lambda ls, i, j, draw: _join(ls)[:-1]),
    "blank line": (False, lambda ls, i, j, draw: _join(ls[:i] + [[]] + ls[i:])),
    "comment line": (False, lambda ls, i, j, draw: _join(ls[:i] + [["#", "c"]] + ls[i:])),
    "sign": (False, lambda ls, i, j, draw: _with_token(ls, i, j, draw(st.sampled_from("+-")) + ls[i][j])),
    "19 digits": (False, lambda ls, i, j, draw: _with_token(
        ls, i, j, draw(st.one_of(st.just(ls[i][j].zfill(19)), st.integers(10**18, 10**19 - 1).map(str))))),
    "leading zeros": (True, lambda ls, i, j, draw: _with_token(
        ls, i, j, ls[i][j].zfill(draw(st.integers(2, 18))))),
    "m off by one": (False, lambda ls, i, j, draw: _with_token(
        ls, 0, 1, str(int(ls[0][1]) + draw(st.sampled_from([-1, 1]))))),
    "self-loop": (True, lambda ls, i, j, draw: _with_token(ls, -1, 1 - j, ls[-1][j])),
    "endpoint >= n": (True, lambda ls, i, j, draw: _with_token(
        ls, -1, j, str(int(ls[0][0]) + draw(st.integers(0, 10**17))))),
}


class TestStrictEdgeList:
    """The strict path against the general path and the reference reader."""

    def test_writer_output_takes_strict_path(self):
        for g in sparse_and_small_graphs():
            text = write_edge_list(g)
            with strict_spy() as accepted:
                result = outcome(read_edge_list, text)
            assert accepted == [True]
            assert result == strict_outcome(text) == general_outcome(text) == (g.n, g.edge_list())
            assert result == outcome(reference_read_edge_list, text)

    @pytest.mark.parametrize("name", list(MUTATIONS))
    @settings(max_examples=40, deadline=None)
    @given(lines=trident_lines(), data=st.data())
    def test_one_mutation(self, name, lines, data):
        strict, mutate = MUTATIONS[name]
        i = data.draw(st.integers(0, len(lines) - 1))
        j = data.draw(st.integers(0, 1))
        text = mutate(lines, i, j, data.draw)
        with strict_spy() as accepted:
            result = outcome(read_edge_list, text)
        assert accepted == [strict]
        assert result == outcome(reference_read_edge_list, text)
        if strict:
            assert strict_outcome(text) == general_outcome(text) == result
        else:
            assert strict_outcome(text) is None

    @pytest.mark.parametrize("block", [1, 5, 16])
    def test_blocks_cut_inside_lines(self, monkeypatch, tmp_path, block):
        rng = random.Random(5)
        graphs = [random_bounded_graph(rng.randrange(1, 65), rng.randrange(1, 17), rng.randrange(2**31))
                  for _ in range(20)]
        graphs += [random_bounded_graph(300, 7, 1), build_graph(0, []), build_graph(5, []),
                   build_graph(10**6, [(0, 9), (9, 10), (99, 100), (0, 999_999), (123_456, 654_321)])]
        texts = [write_edge_list(g) for g in graphs]
        monkeypatch.setattr(formats, "_BLOCK_BYTES", block)
        for g, text in zip(graphs, texts):
            assert write_edge_list(g) == text
            assert graph_hash(g) == hashlib.sha256(text.encode("ascii")).hexdigest()
            save_graph(g, tmp_path / "g.el")
            assert (tmp_path / "g.el").read_text() == text
            with strict_spy() as accepted:
                h = load_graph(tmp_path / "g.el")
            assert accepted == [True]
            assert np.array_equal(h._indptr, g._indptr) and np.array_equal(h._indices, g._indices)


class TestGraph6:
    def test_round_trip_small(self):
        rng = random.Random(2)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(0, 14))
            assert read_graph6(write_graph6(g)) == g

    def test_round_trip_long_form(self):
        # n > 62 exercises the multi-byte vertex-count encoding
        g = build_graph(70, [(0, 69), (1, 2), (30, 40)])
        assert read_graph6(write_graph6(g)) == g

    def test_matches_networkx(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(1, 12))
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edge_list())
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert write_graph6(g) == theirs
            back = nx.from_graph6_bytes(write_graph6(g).encode())
            assert sorted(map(tuple, map(sorted, back.edges()))) == g.edge_list()

    def test_matches_networkx_long_header(self):
        # 63 <= n <= 300 takes the four-byte vertex count.
        rng = random.Random(4)
        for _ in range(12):
            g = random_graph(rng, rng.randrange(63, 301), rng.choice([0.0, 0.02, 0.3, 1.0]))
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edge_list())
            assert write_graph6(g) == nx.to_graph6_bytes(h, header=False).decode().strip()
            assert read_graph6(write_graph6(g)) == g

    @pytest.mark.parametrize("n", [2, 3, 5, 6, 7, 70])
    def test_padding_bits_ignored(self, n):
        g = build_graph(n, [(0, 1)])
        text = write_graph6(g)
        assert (n * (n - 1) // 2) % 6  # the last byte has padding bits
        pad = 63 >> (n * (n - 1) // 2) % 6
        padded = text[:-1] + chr(((ord(text[-1]) - 63) | pad) + 63)
        assert padded != text
        assert read_graph6(padded) == g

    def test_no_neighbor_masks(self, monkeypatch):
        from trident.graph import Graph

        def refuse(self):
            raise AssertionError("graph6 built n-bit neighbor masks")

        monkeypatch.setattr(Graph, "neighbor_masks", refuse)
        g = build_graph(200, [(0, 199), (5, 6), (100, 150)])
        assert read_graph6(write_graph6(g)) == g

    def test_header_accepted(self):
        g = complete_graph(4)
        assert read_graph6(">>graph6<<" + write_graph6(g)) == g

    def test_non_ascii_rejected(self):
        with pytest.raises(FormatError):
            read_graph6("Bé")

    def test_other_header_rejected(self):
        with pytest.raises(FormatError):
            read_graph6(">>sparse6<<:Cdv")

    def test_bad_length_rejected(self):
        with pytest.raises(FormatError):
            read_graph6("C")  # n=4 needs one body byte

    def test_petersen(self):
        g = petersen()
        assert read_graph6(write_graph6(g)) == g


class TestFiles:
    def test_auto_detection(self, tmp_path):
        g = complete_graph(5)
        save_graph(g, tmp_path / "g.g6")
        save_graph(g, tmp_path / "g.el")
        assert load_graph(tmp_path / "g.g6") == g
        assert load_graph(tmp_path / "g.el") == g
        assert load_graph(tmp_path / "g.el", fmt="el") == g

    @pytest.mark.parametrize("name", ["g.el", "g.g6"])
    def test_non_ascii_byte_rejected(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"3 1\n0 1\n# caf\xc3\xa9\n")
        with pytest.raises(FormatError) as info:
            load_graph(path)
        assert str(info.value) == f"non-ASCII byte at offset 13 of {path}"

    def test_format_override(self, tmp_path):
        g = complete_graph(3)
        p = tmp_path / "weird.txt"
        p.write_text(write_graph6(g) + "\n")
        assert load_graph(p, fmt="g6") == g


class TestHash:
    def test_stable_and_label_sensitive(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        same = build_graph(3, [(1, 2), (0, 1), (1, 0)])
        other = build_graph(3, [(0, 1), (0, 2)])
        assert graph_hash(g) == graph_hash(same)
        assert graph_hash(g) != graph_hash(other)
        assert len(graph_hash(g)) == 64
