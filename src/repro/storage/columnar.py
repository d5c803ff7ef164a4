"""Columnar batches over heap pages: the executor's data carrier.

A :class:`ColumnBatch` covers a run of rows under one :class:`Scope`.
Storage is row-major (tuples straight off the heap pages or out of a
join), with *late-materialised* columns: :meth:`ColumnBatch.column`
builds the requested slot's column on first access and caches it, so a
filter touching two of eight attributes never transposes the other six.
Integer columns pack into ``array('q')`` (the project is pure stdlib —
``dependencies = []``); anything else stays a plain list.

Selection vectors are byte masks (``bytearray`` of 0/1): predicates fill
a mask over the batch, :meth:`ColumnBatch.take` gathers the survivors
with :func:`itertools.compress` (C speed), and downstream operators only
ever see surviving elements — which is what lets batch predicate
evaluation charge each expensive-UDF call only for selection-vector
survivors.

The batch reader (:func:`batches_from_heap`) sits on the existing
:meth:`~repro.storage.heap.HeapFile.scan_pages`, so sequential I/O is
charged per heap page through the buffer pool, one page at a time.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Iterable, Iterator

from repro.expr.expressions import Scope

#: Default number of rows per batch. Large enough to amortise per-batch
#: bookkeeping, small enough to keep intermediate gathers cache-friendly.
DEFAULT_BATCH_ROWS = 1024

#: Integer columns pack into this array typecode (signed 64-bit).
_INT_TYPECODE = "q"


def _pack_column(values: list) -> "array | list":
    """Pack a column into ``array('q')`` when every value is a machine
    int; otherwise keep the list (strings, floats, NULLs, mixed)."""
    try:
        return array(_INT_TYPECODE, values)
    except (TypeError, OverflowError):
        return values


class ColumnBatch:
    """A fixed scope's worth of rows with lazily-materialised columns."""

    __slots__ = ("scope", "rows", "length", "_columns")

    def __init__(self, scope: Scope, rows: list[tuple]) -> None:
        self.scope = scope
        self.rows = rows
        self.length = len(rows)
        self._columns: dict[int, "array | list"] = {}

    @classmethod
    def from_rows(cls, scope: Scope, rows: list[tuple]) -> "ColumnBatch":
        return cls(scope, rows)

    def column(self, slot: int) -> "array | list":
        """The slot's packed column, materialised on first access."""
        column = self._columns.get(slot)
        if column is None:
            column = _pack_column([row[slot] for row in self.rows])
            self._columns[slot] = column
        return column

    def take(self, mask: bytearray) -> "ColumnBatch":
        """Gather the selection-vector survivors into a new batch."""
        if 0 not in mask:  # every row survived (C-speed byte scan)
            return self
        return ColumnBatch(self.scope, list(compress(self.rows, mask)))

    def iter_rows(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return self.length


def batches_from_rows(
    scope: Scope, rows: Iterable[tuple], batch_rows: int = DEFAULT_BATCH_ROWS
) -> Iterator[ColumnBatch]:
    """Chunk a row stream into column batches."""
    buffer: list[tuple] = []
    append = buffer.append
    for row in rows:
        append(row)
        if len(buffer) >= batch_rows:
            yield ColumnBatch(scope, buffer)
            buffer = []
            append = buffer.append
    if buffer:
        yield ColumnBatch(scope, buffer)


def batches_from_heap(
    heap, scope: Scope, batch_rows: int = DEFAULT_BATCH_ROWS
) -> Iterator[ColumnBatch]:
    """Columnar batch reader over heap pages.

    Pages are pulled through :meth:`HeapFile.scan_pages`, which charges
    one sequential I/O per page via the buffer pool — the identical
    charge stream a tuple-at-a-time sequential scan produces, just
    grouped batch-at-a-time.
    """
    buffer: list[tuple] = []
    for page in heap.scan_pages():
        buffer.extend(page.rows)
        if len(buffer) >= batch_rows:
            yield ColumnBatch(scope, buffer)
            buffer = []
    if buffer:
        yield ColumnBatch(scope, buffer)
