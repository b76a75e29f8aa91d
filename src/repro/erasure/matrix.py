"""Matrix algebra over GF(2^8).

Matrices are 2-D numpy ``uint8`` arrays interpreted element-wise as field
elements.  Provides the multiply / invert / solve primitives that the
Reed-Solomon and Cauchy codecs are built on.

There is one production kernel, the *packed-word* multiply-accumulate of
:class:`PackedMatrix` + :class:`Accumulator`: a coefficient matrix is
compiled once into 256-entry lookup tables whose entries carry the products
for several output rows side by side in one machine word, so folding input
bytes is one ``np.take`` plus one in-place XOR into word-typed accumulators,
de-interleaved into byte rows only when the result is read.  Streaming
encode/decode/repair, the block fold, :func:`apply_to_shards` and
:func:`matmul` all run it; the tests pin it byte for byte against a
per-coefficient oracle (``tests/erasure/reference_gf.py``).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.erasure.galois import GF256
from repro.sim.metrics import PERF

#: Input bytes per table gather (all columns of one gather together).
#: Bounds the kernel's temporaries — a uint16 index and at most 8 packed
#: bytes per input byte — and keeps them cache-resident.
PIECE_BYTES = 1 << 16

#: Lane-group widths, widest first: output rows are split greedily, so 4
#: rows share one uint32 table, 10 rows are 8 + 2 — never a padding lane.
_LANE_DTYPES = ((8, np.uint64), (4, np.uint32), (2, np.uint16), (1, np.uint8))


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix that has no inverse over GF(2^8)."""


class PackedMatrix:
    """An ``(r, m)`` coefficient matrix compiled for the packed-word kernel.

    Unit-vector rows (a surviving data shard's row of a decode matrix) need
    no multiplication: ``units`` lists them as ``(row, column)`` and the
    kernel XORs their one input straight through.  The other rows are split
    into lane groups; ``groups`` holds, per group, the row indices and a
    flat word table with ``table[256 * j + b]`` = the products
    ``coeffs[row, j] * b`` of the group's rows, one per byte lane
    (``bases[j] = 256 * j``).  Lanes are written and read back through
    ``uint8`` views and XOR never carries across bytes, so the word type is
    only a wider load/store — host endianness cannot matter.  Instances are
    immutable and cached wherever their matrix already is (a codec's parity
    rows, its decode-matrix LRU).
    """

    __slots__ = ("coeffs", "units", "groups", "bases")

    def __init__(self, coeffs: np.ndarray) -> None:
        coeffs = np.array(coeffs, dtype=np.uint8)
        if coeffs.ndim != 2 or coeffs.shape[1] > 256:
            raise ValueError(
                f"coeffs must be (r, m <= 256), got shape {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        self.coeffs = coeffs
        columns = coeffs.shape[1]
        self.bases = (np.arange(columns, dtype=np.uint16) * 256)[:, None]
        is_unit = (np.count_nonzero(coeffs, axis=1) == 1) & (
            coeffs.sum(axis=1, dtype=np.int64) == 1
        )
        self.units: Tuple[Tuple[int, int], ...] = tuple(
            (int(row), int(coeffs[row].argmax()))
            for row in np.flatnonzero(is_unit)
        )
        dense = [int(row) for row in np.flatnonzero(~is_unit)]
        mul = GF256.mul_table()
        groups: List[Tuple[Tuple[int, ...], np.ndarray]] = []
        while dense:
            lanes, dtype = next(
                pair for pair in _LANE_DTYPES if pair[0] <= len(dense)
            )
            rows, dense = tuple(dense[:lanes]), dense[lanes:]
            table = np.empty((columns, 256, lanes), dtype=np.uint8)
            for lane, row in enumerate(rows):
                table[:, :, lane] = np.take(mul, coeffs[row], axis=0)
            groups.append((rows, table.view(dtype).reshape(-1)))
        self.groups = tuple(groups)


class Accumulator:
    """``r`` output rows of ``length`` bytes, built one input chunk at a time.

    ``fold(column, chunk, offset)`` is the kernel:
    ``out[i, offset:offset+len] ^= coeffs[i, column] * chunk`` for every row
    ``i``, as one table gather and one XOR per lane group — byte-identical
    to the per-coefficient product over the whole zero-padded stripe.
    The word accumulators and the gather temporaries are allocated once;
    :meth:`reset` zeroes the rows for the next stripe.
    """

    def __init__(self, matrix: PackedMatrix, length: int) -> None:
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        self.matrix = matrix
        self.length = length
        gather = min(PIECE_BYTES, matrix.coeffs.shape[1] * length)
        self._index = np.empty(gather, dtype=np.uint16)
        #: Per lane group: the row words, the gathered products, their
        #: XOR over the columns of one gather.
        self._buffers = [
            (
                np.zeros(length, dtype=table.dtype),
                np.empty(gather, dtype=table.dtype),
                np.empty(min(length, PIECE_BYTES // 2), dtype=table.dtype),
            )
            for _, table in matrix.groups
        ]
        self._copies = np.zeros((len(matrix.units), length), dtype=np.uint8)

    def reset(self) -> None:
        """Zero every output row, keeping the buffers."""
        for words, _, _ in self._buffers:
            words.fill(0)
        self._copies.fill(0)

    def fold(self, column: int, chunk, offset: int = 0) -> None:
        """XOR ``coeffs[:, column] * chunk`` into the rows at ``offset``.

        Args:
            column: Which input shard the chunk belongs to.
            chunk: C-contiguous bytes-like object, or a ``uint8`` array; a
                ``(c, n)`` array is ``c`` chunks of the consecutive shards
                ``column .. column + c - 1``, folded in the same gather.
            offset: Byte position of the chunk within the output rows.
        """
        data = np.atleast_2d(
            chunk
            if isinstance(chunk, np.ndarray)
            else np.frombuffer(chunk, dtype=np.uint8)
        )
        if data.ndim != 2 or data.dtype != np.uint8:
            raise ValueError(
                f"chunk must be uint8 of rank <= 2, got {data.dtype} "
                f"{data.shape}"
            )
        matrix = self.matrix
        count, width = data.shape
        columns = matrix.coeffs.shape[1]
        if column < 0 or column + count > columns:
            raise ValueError(
                f"columns [{column}, {column + count}) outside [0, {columns})"
            )
        if offset < 0 or offset + width > self.length:
            raise ValueError(
                f"chunk of {width} bytes at offset {offset} overruns "
                f"buffer of {self.length}"
            )
        first, last = 256 * column, 256 * (column + count)
        step = max(1, PIECE_BYTES // max(1, count))
        for start in range(0, width, step):
            piece = data[:, start : start + step]
            low = offset + start
            high = low + piece.shape[1]
            # A lone column's bytes index its 256 table entries as they
            # are; several columns are offset into their tables first.
            index = piece
            if count != 1:
                index = self._index[: piece.size].reshape(piece.shape)
                np.add(piece, matrix.bases[:count], out=index)
            for (rows, table), (words, products, folded) in zip(
                matrix.groups, self._buffers
            ):
                products = products[: piece.size].reshape(piece.shape)
                # Every index lies inside the table; "wrap" only spares
                # numpy the bounds-checking copy of the default mode.
                np.take(table[first:last], index, out=products, mode="wrap")
                if count != 1:
                    folded = folded[: high - low]
                    np.bitwise_xor.reduce(products, axis=0, out=folded)
                else:
                    folded = products[0]
                np.bitwise_xor(words[low:high], folded, out=words[low:high])
                PERF.bump("gf.kernel_calls")
                PERF.bump("gf.symbol_mults", len(rows) * piece.size)
        for slot, (_, unit_column) in enumerate(matrix.units):
            if column <= unit_column < column + count:
                window = self._copies[slot, offset : offset + width]
                np.bitwise_xor(window, data[unit_column - column], out=window)

    def rows(self) -> List[np.ndarray]:
        """The ``r`` output rows as ``uint8`` views, in row order.

        A packed row is a strided view of its byte lane — the copy that
        consumes it (``tobytes``, an assignment) is the de-interleave.  The
        views alias the accumulators: consume them before the next
        :meth:`fold` or :meth:`reset`.
        """
        views = {
            row: self._copies[slot]
            for slot, (row, _) in enumerate(self.matrix.units)
        }
        for (rows, _), (words, _, _) in zip(self.matrix.groups, self._buffers):
            lanes = words.view(np.uint8).reshape(self.length, len(rows))
            for lane, row in enumerate(rows):
                views[row] = lanes[:, lane]
        return [views[row] for row in range(len(views))]


def identity(size: int) -> np.ndarray:
    """The ``size x size`` identity matrix."""
    return np.eye(size, dtype=np.uint8)


def apply_to_shards(
    coeffs: Union[np.ndarray, PackedMatrix], shards: np.ndarray
) -> np.ndarray:
    """Apply a coefficient matrix to a stack of byte shards.

    This is whole-stripe encoding/decoding: given ``m`` input shards of
    ``L`` bytes each (an ``(m, L)`` uint8 array) and an ``(r, m)``
    coefficient matrix, produce ``r`` output shards — a cache-sized piece
    of every shard at a time through one reused :class:`Accumulator`.

    Args:
        coeffs: ``(r, m)`` coefficient matrix, or its cached
            :class:`PackedMatrix`.
        shards: ``(m, L)`` array, one row per input shard.

    Returns:
        ``(r, L)`` array, one row per output shard.
    """
    matrix = coeffs if isinstance(coeffs, PackedMatrix) else PackedMatrix(coeffs)
    shards = np.ascontiguousarray(shards, dtype=np.uint8)
    rows, columns = matrix.coeffs.shape
    if shards.ndim != 2 or columns != shards.shape[0]:
        raise ValueError(
            f"incompatible shapes: coeffs {(rows, columns)}, shards {shards.shape}"
        )
    length = shards.shape[1]
    out = np.empty((rows, length), dtype=np.uint8)
    step = max(1, PIECE_BYTES // max(1, columns))
    accumulator = Accumulator(matrix, min(length, step))
    for start in range(0, length, step):
        stop = min(start + step, length)
        accumulator.reset()
        accumulator.fold(0, shards[:, start:stop])
        for row, values in zip(out, accumulator.rows()):
            row[start:stop] = values[: stop - start]
    return out


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product ``a @ b`` over GF(2^8): ``(r, m) x (m, c) -> (r, c)``."""
    return apply_to_shards(a, b)


def matvec(a: np.ndarray, x: Sequence[int]) -> np.ndarray:
    """Matrix-vector product over GF(2^8)."""
    column = np.asarray(x, dtype=np.uint8).reshape(-1, 1)
    return matmul(a, column).reshape(-1)


def _row_reduce(work: np.ndarray, pivot_columns: int) -> int:
    """Gauss-Jordan elimination, in place, pivoting on the leading
    ``pivot_columns`` columns of an int32 work matrix; returns the rank."""
    rows, cols = work.shape
    found = 0
    for col in range(pivot_columns):
        # Find a pivot at or below the rows already reduced.
        pivot_row = next(
            (r for r in range(found, rows) if work[r, col] != 0), None
        )
        if pivot_row is None:
            continue
        if pivot_row != found:
            work[[found, pivot_row]] = work[[pivot_row, found]]
        # Normalise the pivot row, then clear the column everywhere else.
        pivot_inv = GF256.inv(int(work[found, col]))
        for j in range(cols):
            work[found, j] = GF256.mul(pivot_inv, int(work[found, j]))
        for r in range(rows):
            if r == found or work[r, col] == 0:
                continue
            factor = int(work[r, col])
            for j in range(cols):
                work[r, j] ^= GF256.mul(factor, int(work[found, j]))
        found += 1
        if found == rows:
            break
    return found


def invert(matrix: np.ndarray) -> np.ndarray:
    """Invert a square matrix over GF(2^8) by Gauss-Jordan elimination.

    Raises:
        SingularMatrixError: If the matrix is singular.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    size = matrix.shape[0]
    # Reduce the augmented [M | I]; full rank leaves [I | M^-1].
    work = np.concatenate([matrix, identity(size)], axis=1).astype(np.int32)
    if _row_reduce(work, size) != size:
        raise SingularMatrixError("matrix is singular over GF(2^8)")
    return work[:, size:].astype(np.uint8)


def rank(matrix: np.ndarray) -> int:
    """Rank of a matrix over GF(2^8) (row echelon elimination)."""
    work = np.asarray(matrix, dtype=np.uint8).astype(np.int32)
    return _row_reduce(work, work.shape[1])


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """The ``rows x cols`` Vandermonde matrix ``V[i, j] = i ** j`` over GF(2^8).

    Any ``cols`` distinct rows of a Vandermonde matrix are linearly
    independent, which is the property RS coding relies on.
    """
    if rows > 256:
        raise ValueError("at most 256 distinct evaluation points exist in GF(2^8)")
    out = np.zeros((rows, cols), dtype=np.uint8)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = GF256.pow(i, j)
    return out
