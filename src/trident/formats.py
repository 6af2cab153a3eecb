"""Graph serialization: edge-list text, graph6, canonical text and hashing.

Edge-list format: first non-comment line is "n m", followed by m lines
"u v" with 0-based endpoints; lines starting with '#' are ignored.

graph6 follows the standard McKay encoding (upper triangle, column-major,
6 bits per printable character); the only accepted header is the optional
">>graph6<<" prefix.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .errors import FormatError
from .graph import Graph, build_graph

G6_HEADER = ">>graph6<<"


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
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


# -- graph6 ---------------------------------------------------------------


def _g6_encode_n(n: int) -> bytes:
    if n < 0:
        raise FormatError("negative vertex count")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return b"~" + bytes([63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    if n <= 68719476735:
        return b"~~" + bytes(63 + ((n >> s) & 63) for s in range(30, -1, -6))
    raise FormatError(f"n={n} too large for graph6")


def _g6_decode_n(data: bytes) -> tuple[int, bytes]:
    if not data:
        raise FormatError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, data[1:]
    if len(data) >= 2 and data[1] == 126:
        chunk, rest = data[2:8], data[8:]
        if len(chunk) != 6:
            raise FormatError("truncated graph6 vertex count")
    else:
        chunk, rest = data[1:4], data[4:]
        if len(chunk) != 3:
            raise FormatError("truncated graph6 vertex count")
    n = 0
    for b in chunk:
        n = (n << 6) | (b - 63)
    return n, rest


def g6_encode(n: int, positions) -> bytes:
    """graph6 of the n-vertex graph whose upper-triangle bits are set at
    ``positions``: the pair i < j is bit j(j-1)/2 + i, six bits to a byte."""
    head = _g6_encode_n(n)
    k = np.asarray(positions, np.int64)
    body = np.zeros((n * (n - 1) // 2 + 5) // 6, np.uint8)
    np.bitwise_or.at(body, k // 6, (32 >> k % 6).astype(np.uint8))
    body += 63
    return head + body.tobytes()


def write_graph6(g: Graph) -> str:
    i, j = g.edge_array().T
    return g6_encode(g.n, j * (j - 1) // 2 + i).decode("ascii")


def read_graph6(line: str) -> Graph:
    line = line.strip()
    if line.startswith(">>"):
        if not line.startswith(G6_HEADER):
            raise FormatError(f"unsupported header in {line[:20]!r}")
        line = line[len(G6_HEADER):]
    try:
        data = line.encode("ascii")
    except UnicodeEncodeError:
        raise FormatError("non-ASCII character in graph6 string") from None
    if data.translate(None, bytes(range(63, 127))):  # any byte left is invalid
        raise FormatError("invalid graph6 character")
    n, rest = _g6_decode_n(data)
    need = n * (n - 1) // 2
    if len(rest) != (need + 5) // 6:
        raise FormatError(f"graph6 body length {len(rest)} wrong for n={n}")
    # Only the bytes that are not 63 hold edge bits; the padding bits are dropped.
    body = np.frombuffer(rest, np.uint8) - 63
    at = np.flatnonzero(body)
    byte, bit = np.nonzero(np.unpackbits(body[at, None], axis=1)[:, 2:])
    k = at[byte] * 6 + bit
    k = k[k < need]
    cols = np.arange(n, dtype=np.int64)
    j = np.searchsorted(cols * (cols - 1) // 2, k, side="right") - 1
    return build_graph(n, np.stack([k - j * (j - 1) // 2, j], axis=1))


# -- hashing --------------------------------------------------------------


def graph_hash(g: Graph, algorithm: str = "sha256") -> str:
    """Digest of the sorted edge list, the canonical text certificates hash."""
    return hashlib.new(algorithm, write_edge_list(g).encode("ascii")).hexdigest()


# -- file loading ---------------------------------------------------------


def load_graph(path: str | Path, fmt: str | None = None) -> Graph:
    """Load a graph file; format from ``fmt`` or inferred from the extension."""
    path = Path(path)
    if fmt is None:
        fmt = "g6" if path.suffix == ".g6" else "el"
    try:
        text = path.read_bytes().decode("ascii")
    except UnicodeDecodeError as e:
        raise FormatError(f"non-ASCII byte at offset {e.start} of {path}") from None
    if fmt == "g6":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 1:
            raise FormatError(f"expected a single graph6 line in {path}")
        return read_graph6(lines[0])
    if fmt == "el":
        return read_edge_list(text)
    raise FormatError(f"unknown format {fmt!r}")


def save_graph(g: Graph, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    if fmt is None:
        fmt = "g6" if path.suffix == ".g6" else "el"
    if fmt == "g6":
        path.write_text(write_graph6(g) + "\n")
    elif fmt == "el":
        path.write_text(write_edge_list(g))
    else:
        raise FormatError(f"unknown format {fmt!r}")
