"""Standard graph6 encoding and decoding, bit-exact.

Encoding: size header (one byte n+63 for n <= 62, or '~' plus three
6-bit bytes for n <= 258047), then the upper triangle of the adjacency
matrix in column-major order, packed big-endian into 6-bit groups, each
offset by 63.  Files hold one graph per line, ASCII, newline-terminated.

Both directions work on row blocks of the packed adjacency (the layout of
`Graph.packed()`): the strict lower triangle of a block, read row by row,
is the next stretch of the graph6 bit stream.  Beyond the body bytes and
the packed matrix, no intermediate is larger than one block of about
2^20 bits, whatever the order.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from .graphs import MAX_VERTICES, CapacityError, Graph

HEADER = b">>graph6<<"


class Graph6ParseError(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# matrix entries per row block
_BLOCK = 1 << 20


def _row_blocks(n: int):
    """Row blocks [lo, hi) of an n-vertex matrix, each with at most about
    _BLOCK entries in its first hi columns.  lo is a multiple of 24, so a
    block starts on a whole byte of the packed rows and, the lo(lo-1)/2
    bits before it being a multiple of 6, on a whole byte of graph6."""
    step = max(24, _BLOCK // max(n, 1) // 24 * 24)
    for lo in range(0, n, step):
        yield lo, min(n, lo + step)


# a 6-bit group and its bits, most significant first
_BITS = np.unpackbits(np.arange(64, dtype=np.uint8)[:, None], axis=1)[:, 2:]
_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def _lower(lo: int, hi: int) -> np.ndarray:
    """Strict lower triangle of rows lo..hi-1, columns 0..hi-1.  Its entries
    in row-major order are the graph6 bits of those rows: column v of the
    upper triangle, read top to bottom, is row v of the lower one."""
    return np.arange(hi) < np.arange(lo, hi)[:, None]


def encode_graph6(g: Graph) -> bytes:
    """Encode a graph as a graph6 byte string (no trailing newline)."""
    n = g.order
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise CapacityError(f"graph6 encoding for n = {n} > 258047 not supported")
    packed = g.packed().view(np.uint8)
    body = [head]
    for lo, hi in _row_blocks(n):
        rows = np.unpackbits(
            packed[lo:hi, : (hi + 7) // 8], axis=1, count=hi, bitorder="little"
        )
        bits = rows[_lower(lo, hi)]
        # zero padding up to a whole 6-bit group, in the last block only
        bits = np.pad(bits, (0, -len(bits) % 6)).reshape(-1, 6)
        body.append((bits @ _WEIGHTS + 63).tobytes())
    return b"".join(body)


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
    # six data bits per byte: 63..126 maps to 0..63, anything else wraps past 63
    sixes = np.frombuffer(data, dtype=np.uint8) - np.uint8(63)

    def check_bytes(lo: int, hi: int) -> None:
        bad = sixes[lo:hi] > 63
        if bad.any():
            i = lo + int(bad.argmax())
            raise Graph6ParseError(f"byte {data[i]} outside graph6 range 63..126", base + i)

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
    pad = -nbits % 6
    if pad and sixes[pos + nbytes - 1] & ((1 << pad) - 1):
        raise Graph6ParseError("nonzero padding bits", base + pos + nbytes - 1)
    body = sixes[pos:]
    packed = np.zeros((n, 8 * max(1, (n + 63) // 64)), dtype=np.uint8)
    for lo, hi in _row_blocks(n):
        start, stop = lo * (lo - 1) // 2, hi * (hi - 1) // 2
        bits = np.take(_BITS, body[start // 6 : (stop + 5) // 6], axis=0).ravel()
        block = np.zeros((hi - lo, hi), dtype=bool)
        block[_lower(lo, hi)] = bits[: stop - start]
        # rows lo..hi-1 left of the diagonal, then the mirror image: columns
        # lo..hi-1 of rows 0..hi-1
        packed[lo:hi, : (hi + 7) // 8] = np.packbits(block, axis=1, bitorder="little")
        mirror = np.ascontiguousarray(block.T)
        packed[:hi, lo // 8 : (hi + 7) // 8] |= np.packbits(mirror, axis=1, bitorder="little")
    return Graph._from_packed(packed.view("<u8"))


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
