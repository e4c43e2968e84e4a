"""Transactions submitted by benchmark clients.

The paper's benchmark transactions are "simple increments of a shared
counter"; what matters for the evaluation is their count and timing, not
their content, so the transaction object carries only identity, timing,
and a small payload descriptor.

At rest a transaction is one row of its target's arrival column
(``repro.workload.generator``): a client id (``'q'``), a submission
instant (``'d'``, the double a Python ``float`` is) and an id implied by
its position.  A validator's :class:`TransactionPool` holds no rows of
its own, only windows on those columns; :meth:`TransactionPool.take`
slices the rows once, into the sealed :class:`TransactionBatch` a vertex
carries as its block.
"""

from __future__ import annotations

import dataclasses
from array import array
from itertools import chain, repeat
from typing import (
    TYPE_CHECKING, Any, ClassVar, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.types import SimTime, ValidatorId

if TYPE_CHECKING:
    from repro.workload.generator import _Column


class Transaction(NamedTuple):
    """One client transaction.

    A ``NamedTuple`` rather than a frozen dataclass: transactions are
    created once per submission on the workload hot path, and tuple
    construction avoids the per-field ``object.__setattr__`` cost of
    frozen dataclasses.
    """

    tx_id: int
    client_id: int
    submitted_at: SimTime
    target_validator: ValidatorId
    kind: str = "counter_increment"
    payload_bytes: int = 64


@dataclasses.dataclass(slots=True, eq=False)
class TransactionBatch:
    """A sealed block of counter increments submitted to one validator, as parallel columns.

    Row ``i`` is ``Transaction(ids[i], clients[i], submitted_at[i],
    target)``; iteration builds those tuples on demand.  ``ids`` is a
    ``range`` when the rows are one window of an arrival column, and an
    ``array('q')`` when they span a crash gap or a column rebuild.  A
    batch never changes once taken.
    """

    target: ValidatorId
    ids: Union[range, array]
    clients: array
    submitted_at: array
    # A vertex keeps a sealed block as it is (``dag.vertex.make_vertex``).
    sealed: ClassVar[bool] = True

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Transaction]:
        return map(Transaction, self.ids, self.clients, self.submitted_at, repeat(self.target))


class _Rows(NamedTuple):
    """Pooled rows copied off their column: what a window reads of one."""

    first_id: int
    clients: array
    submitted_at: array


class TransactionPool:
    """A validator's pending transactions: windows on arrival columns, oldest first.

    A window ``[column, start, stop]`` holds the rows of ids ``[start,
    stop)`` of a ``generator._Column``, whose row ``i`` carries id
    ``column.first_id + i``; ids rather than row numbers, so a column can
    drop a delivered prefix under a window.  The merged arrivals open and
    extend windows as rows arrive (:meth:`add`), and a column keeps every
    row from its oldest pooled one on.  Rows that arrive while the
    validator is crashed are never pooled, so a window ends at a crash
    and the next one starts after the gap; the rows pooled before the
    crash are copied off their column (:meth:`detach`), which can then
    drop what arrives during the downtime.  A window keeps its column
    when the columns are rebuilt.
    """

    __slots__ = ("target", "windows", "received")

    def __init__(self, target: ValidatorId) -> None:
        self.target = target
        self.windows: List[List[Any]] = []
        # Rows ever pooled.
        self.received = 0

    def __len__(self) -> int:
        return sum(stop - start for _, start, stop in self.windows)

    def add(self, column: _Column, start: int, stop: int) -> None:
        """Pool the rows of ids ``[start, stop)`` of ``column``."""
        self.received += stop - start
        windows = self.windows
        if windows:
            last = windows[-1]
            if last[0] is column and last[2] == start:
                last[2] = stop
                return
        windows.append([column, start, stop])

    def oldest(self, column: _Column) -> Optional[int]:
        """The id of the oldest row pooled from ``column``, ``None`` when none is."""
        for window in self.windows:
            if window[0] is column:
                return window[1]
        return None

    def detach(self) -> None:
        """Copy every pooled row off its column.

        A crashed validator's pool is read again only after it recovers;
        until then its windows would keep their columns from dropping the
        rows that arrive, and are skipped, during the downtime.
        """
        for window in self.windows:
            column, start, stop = window
            low, high = start - column.first_id, stop - column.first_id
            window[0] = _Rows(start, column.clients[low:high], column.submitted_at[low:high])

    def take(self, limit: int) -> TransactionBatch:
        """Remove and return, sealed, the oldest ``limit`` rows (all, when fewer)."""
        windows = self.windows
        runs: List[range] = []
        clients, submitted_at = array("q"), array("d")
        while windows and limit > 0:
            window = windows[0]
            column, start, stop = window
            stop = min(stop, start + limit)
            low, high = start - column.first_id, stop - column.first_id
            runs.append(range(start, stop))
            clients += column.clients[low:high]
            submitted_at += column.submitted_at[low:high]
            limit -= stop - start
            if stop == window[2]:
                del windows[0]
            else:
                window[1] = stop
        # One window's ids are one run; across a crash gap or a rebuild they are not.
        ids = runs[0] if len(runs) == 1 else array("q", chain.from_iterable(runs))
        return TransactionBatch(self.target, ids, clients, submitted_at)


def transaction_columns(block: Iterable[Any]) -> Tuple[Sequence[int], Sequence[SimTime]]:
    """The id and submission-time columns of the transactions in any block
    (a batch's own, to be read only; of another block, built here, the ids
    as a ``range`` when they are one)."""
    if type(block) is TransactionBatch:
        return block.ids, block.submitted_at
    rows = [item for item in block if isinstance(item, Transaction)]
    ids = [row.tx_id for row in rows]
    if ids and ids == list(range(ids[0], ids[0] + len(ids))):
        ids = range(ids[0], ids[0] + len(ids))
    return ids, [row.submitted_at for row in rows]
