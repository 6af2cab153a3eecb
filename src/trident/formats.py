"""Graph serialization: edge-list text, graph6, canonical text and hashing.

Edge-list format: ASCII text whose first non-comment line is "n m",
followed by m lines "u v" with 0-based endpoints; blank lines and lines
starting with '#' are ignored.  Lines and tokens are split as
``str.splitlines`` and ``str.split`` split them, and tokens are read as
``int()`` reads them.

The writer formats the sorted edges with numpy, a run of CSR rows at a
time, into the bytes that ``graph_hash`` digests and ``save_graph`` writes.
The reader takes a file's bytes as they are.  Text in the writer's form,
also with CRLF line ends or a tab between the two tokens, is parsed by
``np.fromstring`` in blocks of a few MB; all other text is read one line
at a time with ``str.splitlines``, ``str.split`` and ``int()``, which
gives every error.

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
# Bytes of text the strict edge-list reader parses at a time; the writer
# formats _BLOCK_BYTES // 8 int64 CSR entries at a time.
_BLOCK_BYTES = 1 << 22


def _edge_list_blocks(g: Graph):
    """The edge-list text as ASCII byte blocks: "n m", then "u v" per sorted edge.

    The edges u < v come from runs of CSR rows of at most _BLOCK_BYTES // 8
    entries, or from one longer row.  Each endpoint goes into a field of
    ``width`` uint8 cells and its separator, one digit place at a time from
    the right; dropping the leading zeros leaves the text of every line in
    row order."""
    yield f"{g.n} {g.m}\n".encode("ascii")
    for edges in g._edge_runs(max(_BLOCK_BYTES // 8, 1)):
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
        yield cells[keep].tobytes()


def write_edge_list(g: Graph) -> str:
    return b"".join(_edge_list_blocks(g)).decode("ascii")


def _plain(text: bytes) -> bytes:
    """``text`` with CRLF line ends as "\\n" and tabs as spaces."""
    if b"\r" in text or b"\t" in text:
        text = text.replace(b"\r\n", b"\n").replace(b"\t", b" ")
    return text


def _strict_edge_list(raw: bytes) -> tuple[int, np.ndarray] | None:
    """(n, edges) of ``raw`` when it is text of the form the writer writes,
    up to CRLF line ends and tab separators, else None.

    Once ``_plain`` has made CRLF "\\n" and tabs spaces, that text holds only
    digits, ' ' and '\\n', every line is "<1-18 digits> <1-18 digits>\\n",
    and the header's m counts the lines after it.  The lines are read in
    blocks of about _BLOCK_BYTES, each cut after a line break, into one
    preallocated (m, 2) array.  Text-mode ``np.fromstring`` reads a block's
    values; as it may stop quietly at a token it cannot read, their count
    must equal the block's separators."""
    if not raw.endswith(b"\n"):
        return None
    start = raw.find(b"\n") + 1
    header = _plain(raw[:start])[:-1].split(b" ")
    if len(header) != 2 or not all(t.isdigit() and len(t) <= 18 for t in header):
        return None
    n, m = map(int, header)
    if raw.count(b"\n", start) != m:
        return None
    edges = np.empty((m, 2), np.int64)
    values, done = edges.reshape(-1), 0
    while start < len(raw):
        end = raw.find(b"\n", start + _BLOCK_BYTES - 1) + 1 or len(raw)
        block = _plain(raw[start:end])
        data = np.frombuffer(block, np.uint8)
        seps = np.flatnonzero(data < ord("0"))  # ' ', '\n' and any other byte below '0'
        gaps = np.diff(seps, prepend=-1)  # token length + 1
        if (data.max() > ord("9") or len(seps) % 2 or gaps.min() < 2 or gaps.max() > 19
                or (data[seps[0::2]] != ord(" ")).any() or (data[seps[1::2]] != ord("\n")).any()):
            return None
        part = np.fromstring(block, np.int64, sep=" ")
        if len(part) != len(seps):
            return None
        values[done:done + len(part)] = part
        done += len(part)
        start = end
    return n, edges


def _read_edge_list(raw: bytes) -> tuple[int, np.ndarray | list]:
    """(n, edges) of ASCII edge-list bytes: by ``_strict_edge_list`` when it
    accepts them, else one line at a time.

    The edges are an (m, 2) int64 array, or a list of pairs when an
    endpoint leaves int64, so that ``build_graph`` names it."""
    strict = _strict_edge_list(raw)
    if strict is not None:
        return strict
    lines = map(str.strip, raw.decode("ascii").splitlines())
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    if not rows:
        raise FormatError("empty edge-list file")
    header = rows.pop(0)
    head = header.split()
    if len(head) != 2:
        raise FormatError(f"expected header 'n m', got {header!r}")
    try:
        n, m = map(int, head)
    except ValueError:
        raise FormatError(f"non-integer header {header!r}") from None
    if len(rows) != m:
        raise FormatError(f"header declares {m} edges, file has {len(rows)}")
    values = []
    for ln in rows:
        pair = ln.split()
        if len(pair) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            values += map(int, pair)
        except ValueError:
            raise FormatError(f"non-integer edge line {ln!r}") from None
    del rows
    try:
        return n, np.array(values, np.int64).reshape(-1, 2)
    except OverflowError:
        return n, list(zip(values[0::2], values[1::2]))


def read_edge_list(text: str) -> Graph:
    """Parse edge-list text: ASCII only, lines split and stripped as
    ``str.splitlines`` and ``str.split`` do, blank and ``#`` lines skipped."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError as e:
        raise FormatError(f"non-ASCII character at offset {e.start} of the edge list") from None
    n, edges = _read_edge_list(raw)
    del raw  # not held through the build
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


def graph_hash(g: Graph) -> str:
    """SHA-256 digest of the sorted edge list, the canonical text certificates hash."""
    digest = hashlib.sha256()
    for block in _edge_list_blocks(g):
        digest.update(block)
    return digest.hexdigest()


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
    data = path.read_bytes()
    if not data.isascii():
        offset = int(np.argmax(np.frombuffer(data, np.uint8) > 127))
        raise FormatError(f"non-ASCII byte at offset {offset} of {path}")
    if fmt == "el":
        n, edges = _read_edge_list(data)
        del data  # not held through the build
        return build_graph(n, edges)
    lines = [ln for ln in data.decode("ascii").splitlines() if ln.strip()]
    if len(lines) != 1:
        raise FormatError(f"expected a single graph6 line in {path}")
    return read_graph6(lines[0])


def save_graph(g: Graph, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    if _format(path, fmt) == "g6":
        path.write_text(write_graph6(g) + "\n")
    else:
        with path.open("wb") as f:
            f.writelines(_edge_list_blocks(g))
