"""Graph serialization: edge-list text, graph6, canonical text and hashing.

Edge-list format: ASCII text whose first non-comment line is "n m",
followed by m lines "u v" with 0-based endpoints; blank lines and lines
starting with '#' are ignored.  Lines and tokens are split as
``str.splitlines`` and ``str.split`` split them, and tokens are read as
``int()`` reads them.  Both directions work on the text as one uint8 array.

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


def _edge_list_bytes(g: Graph) -> bytes:
    """The edge-list text as ASCII bytes: "n m", then "u v" per sorted edge.

    Each endpoint goes into a field of ``width`` uint8 cells and its
    separator, one digit place at a time from the right; dropping the
    leading zeros leaves the text of every line in row order."""
    edges = g.edge_array()
    width = len(str(int(edges.max()))) if edges.size else 1
    cells = np.empty((len(edges), 2, width + 1), np.uint8)
    keep = np.ones(cells.shape, bool)
    cells[:, :, width] = [ord(" "), ord("\n")]
    rest = edges
    for place in range(width - 1, -1, -1):
        rest, cells[:, :, place] = np.divmod(rest, 10)
        if place:
            keep[:, :, place - 1] = rest > 0  # else a leading zero
    cells[:, :, :width] += ord("0")
    return f"{g.n} {g.m}\n".encode("ascii") + cells[keep].tobytes()


def write_edge_list(g: Graph) -> str:
    return _edge_list_bytes(g).decode("ascii")


def _line_at(text: str, breaks: np.ndarray, pos: int) -> str:
    """The stripped line of ``text`` that holds offset ``pos``."""
    i = int(np.searchsorted(breaks, pos))
    lo = int(breaks[i - 1]) + 1 if i else 0
    hi = int(breaks[i]) if i < len(breaks) else len(text)
    return text[lo:hi].strip()


def _token_values(text: str, data: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """``int()`` of each token ``text[starts[k]:ends[k]]``.

    Returns (values, bad): int64 values, or a list when one leaves int64,
    and the mask of the tokens ``int()`` refuses.  Plain tokens,
    ``-?[0-9]{1,18}``, are read one digit place at a time from the end;
    ``int()`` reads the rest (signs, underscores, long digit runs)."""
    neg = data[starts] == ord("-")
    digits = ends - starts - neg
    values = np.zeros(len(starts), np.int64)
    top = np.zeros(len(starts), np.uint8)  # the largest digit - '0', wrapped
    at = ends.copy()
    for place in range(min(int(digits.max(initial=0)), 18)):
        at -= 1
        d = data.take(at, mode="clip") - np.uint8(ord("0"))
        d *= digits > place
        np.maximum(top, d, out=top)
        values += d.astype(np.int64) * 10**place
    np.negative(values, out=values, where=neg)
    bad = np.zeros(len(starts), bool)
    big = {}
    for k in np.flatnonzero((top > 9) | (digits < 1) | (digits > 18)).tolist():
        try:
            v = int(text[starts[k]:ends[k]])
        except ValueError:
            bad[k] = True
            continue
        if -2**63 <= v < 2**63:
            values[k] = v
        else:
            big[k] = v
    if big:
        values = values.tolist()
        for k, v in big.items():
            values[k] = v
    return values, bad


def read_edge_list(text: str) -> Graph:
    """Parse edge-list text: ASCII only, lines split and stripped as
    ``str.splitlines`` and ``str.split`` do, blank and ``#`` lines skipped.

    The text is read as one uint8 array: token bounds come from the
    whitespace mask, each line's first token from the line breaks."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as e:
        raise FormatError(f"non-ASCII character at offset {e.start} of the edge list") from None
    data = np.frombuffer(raw, np.uint8)
    # ASCII whitespace is 9-13 and 28-32; line breaks are 10-13 and 28-30.
    space = np.ones(len(data) + 2, bool)  # a separator on either side
    np.less(data - np.uint8(9), 5, out=space[1:-1])
    space[1:-1] |= data - np.uint8(28) < 5
    bounds = np.flatnonzero(space[1:] != space[:-1])
    del space
    starts, ends = bounds[0::2], bounds[1::2]
    breaks = np.flatnonzero((data - np.uint8(10) < 4) | (data - np.uint8(28) < 3))
    first = np.zeros(len(starts) + 1, bool)
    first[np.searchsorted(starts, breaks)] = True
    first[0] = True
    heads = np.flatnonzero(first[:-1])  # first token of each non-blank line
    sizes = np.diff(heads, append=len(starts))
    keep = data[starts[heads]] != ord("#")
    heads, sizes = heads[keep], sizes[keep]
    if not len(heads):
        raise FormatError("empty edge-list file")
    header = _line_at(text, breaks, starts[heads[0]])
    if sizes[0] != 2:
        raise FormatError(f"expected header 'n m', got {header!r}")
    pair = slice(heads[0], heads[0] + 2)
    values, bad = _token_values(text, data, starts[pair], ends[pair])
    if bad.any():
        raise FormatError(f"non-integer header {header!r}")
    n, m = map(int, values)
    if len(heads) - 1 != m:
        raise FormatError(f"header declares {m} edges, file has {len(heads) - 1}")
    heads, sizes = heads[1:], sizes[1:]
    shape = np.flatnonzero(sizes != 2)
    rows = heads[:shape[0]] if len(shape) else heads  # the two-token lines before any other
    tokens = np.stack([rows, rows + 1], axis=1).ravel()
    values, bad = _token_values(text, data, starts[tokens], ends[tokens])
    if bad.any():
        pos = starts[tokens[np.argmax(bad)]]
        raise FormatError(f"non-integer edge line {_line_at(text, breaks, pos)!r}")
    if len(shape):
        raise FormatError(f"bad edge line {_line_at(text, breaks, starts[heads[shape[0]]])!r}")
    if isinstance(values, list):  # an endpoint outside int64: build_graph names it
        return build_graph(n, zip(values[0::2], values[1::2]))
    return build_graph(n, values.reshape(-1, 2))


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
    return hashlib.new(algorithm, _edge_list_bytes(g)).hexdigest()


# -- file loading ---------------------------------------------------------


def _format(path: Path, fmt: str | None) -> str:
    """``fmt``, or "g6" for a .g6 file and "el" otherwise; FormatError if unknown."""
    if fmt is None:
        fmt = "g6" if path.suffix == ".g6" else "el"
    if fmt not in ("g6", "el"):
        raise FormatError(f"unknown format {fmt!r}")
    return fmt


def load_graph(path: str | Path, fmt: str | None = None) -> Graph:
    """Load a graph file; format from ``fmt`` or inferred from the extension."""
    path = Path(path)
    fmt = _format(path, fmt)
    try:
        text = path.read_bytes().decode("ascii")
    except UnicodeDecodeError as e:
        raise FormatError(f"non-ASCII byte at offset {e.start} of {path}") from None
    if fmt == "el":
        return read_edge_list(text)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise FormatError(f"expected a single graph6 line in {path}")
    return read_graph6(lines[0])


def save_graph(g: Graph, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    if _format(path, fmt) == "g6":
        path.write_text(write_graph6(g) + "\n")
    else:
        path.write_bytes(_edge_list_bytes(g))
