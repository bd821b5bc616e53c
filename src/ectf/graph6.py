"""Standard graph6 encoding and decoding, bit-exact.

Encoding: size header (one byte n+63 for n <= 62, or '~' plus three
6-bit bytes for n <= 258047), then the upper triangle of the adjacency
matrix in column-major order, packed big-endian into 6-bit groups, each
offset by 63.  Files hold one graph per line, ASCII, newline-terminated.
"""

from __future__ import annotations

import os
from typing import Iterable

from .graphs import MAX_VERTICES, CapacityError, Graph

HEADER = b">>graph6<<"


class Graph6ParseError(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def encode_graph6(g: Graph) -> bytes:
    """Encode a graph as a graph6 byte string (no trailing newline)."""
    n = g.order
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise CapacityError(f"graph6 encoding for n = {n} > 258047 not supported")
    bits = []
    rows = g.rows
    for v in range(1, n):
        col = rows[v]
        for u in range(v):
            bits.append((col >> u) & 1)
    body = bytearray()
    for i in range(0, len(bits), 6):
        group = bits[i : i + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        body.append(val + 63)
    return head + bytes(body)


def decode_graph6(data: bytes | str) -> Graph:
    """Decode one graph6 byte string into a Graph."""
    if isinstance(data, str):
        data = data.encode("ascii")
    base = 0
    if data.startswith(HEADER):
        base = len(HEADER)
        data = data[base:]
    data = data.rstrip(b"\r\n")
    if not data:
        raise Graph6ParseError("empty graph6 string", base)

    def check_bytes(lo: int, hi: int) -> None:
        for i in range(lo, min(hi, len(data))):
            if not (63 <= data[i] <= 126):
                raise Graph6ParseError(
                    f"byte {data[i]} outside graph6 range 63..126", base + i
                )

    pos = 4 if data[0] == 126 else 1
    check_bytes(0, pos)
    if pos == 4:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6ParseError("graph6 sizes above 258047 not supported", base + 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated size header", base + len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
    else:
        n = data[0] - 63
    # reject from the header alone, before any work on the n^2/2-bit body
    if n > MAX_VERTICES:
        raise CapacityError(
            f"graph6 header declares {n} vertices, beyond the representation "
            f"limit of {MAX_VERTICES} (= 2^15) vertices"
        )
    check_bytes(pos, len(data))
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos < nbytes:
        raise Graph6ParseError(
            f"need {nbytes} adjacency bytes for n = {n}, found {len(data) - pos}",
            base + len(data),
        )
    if len(data) - pos > nbytes:
        raise Graph6ParseError("trailing bytes after adjacency data", base + pos + nbytes)
    rows = [0] * n
    bit = 0
    for v in range(1, n):
        for u in range(v):
            i = bit // 6
            k = 5 - bit % 6
            if (data[pos + i] - 63) >> k & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            bit += 1
    if nbits % 6:
        tail = data[pos + nbytes - 1] - 63
        if tail & ((1 << (6 - nbits % 6)) - 1):
            raise Graph6ParseError("nonzero padding bits", base + pos + nbytes - 1)
    return Graph(rows, validate=False)


def write_graph6_file(path: str | os.PathLike, graphs: Iterable[Graph]) -> None:
    """Write graphs one per line, ASCII, newline-terminated."""
    with open(path, "wb") as fh:
        for g in graphs:
            fh.write(encode_graph6(g))
            fh.write(b"\n")


def read_graph6_file(path: str | os.PathLike) -> list[Graph]:
    """Read all graphs from a one-per-line graph6 file."""
    out = []
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(decode_graph6(line))
    return out
