import random

import networkx as nx
import pytest

from trident import (
    build_graph,
    graph_hash,
    load_graph,
    read_edge_list,
    read_graph6,
    save_graph,
    write_edge_list,
    write_graph6,
)
from trident.errors import FormatError
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
