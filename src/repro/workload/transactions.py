"""Transactions submitted by benchmark clients.

The paper's benchmark transactions are "simple increments of a shared
counter"; what matters for the evaluation is their count and timing, not
their content, so the transaction object carries only identity, timing,
and a small payload descriptor.

At rest a transaction is one cell in each of three stdlib ``array``
columns: ids and client ids ``'q'`` (signed 64-bit), submission instants
``'d'`` (the double a Python ``float`` is: every instant reads back bit
for bit) — 8 bytes a field, where a list pays an 8-byte slot and a 24-32
byte boxed number.  Whatever a batch is built from is coerced to these
types once, where the batch is constructed; a value a column cannot hold
is refused there with ``WorkloadError``, before anything changes.
"""

from __future__ import annotations

import dataclasses
import sys
from array import array
from itertools import repeat
from typing import Any, Iterable, Iterator, List, NamedTuple, Tuple

from repro.errors import WorkloadError
from repro.types import SimTime, ValidatorId


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


def as_column(typecode: str, values: Iterable[Any]) -> array:
    """``values`` as a column of that type: themselves when they already are one,
    else copied (via a list, which ``array`` reads at twice an iterator's speed)."""
    if type(values) is array and values.typecode == typecode:
        return values
    try:
        return array(typecode, list(values))
    except (OverflowError, TypeError):
        raise WorkloadError(f"{values!r} is no {typecode!r} column of a batch") from None


@dataclasses.dataclass(slots=True, eq=False)
class TransactionBatch:
    """Counter increments submitted to one validator, as parallel columns.

    Row ``i`` is ``Transaction(ids[i], clients[i], submitted_at[i],
    target)``; iteration builds those tuples on demand.  A batch is
    what a client delivers and what a validator pools; what
    :meth:`take` returns is ``sealed``, never to change again, and that
    is what a vertex carries as its block.  A batch owns the columns it
    is built from (``array``s of the module's types are kept as they
    are, anything else is copied into one): the caller keeps no
    reference to them.  A refused column leaves the batch as it was.
    """

    target: ValidatorId
    ids: array = dataclasses.field(default_factory=lambda: array("q"))
    clients: array = dataclasses.field(default_factory=lambda: array("q"))
    submitted_at: array = dataclasses.field(default_factory=lambda: array("d"))
    sealed: bool = False

    def __post_init__(self) -> None:
        self.ids = as_column("q", self.ids)
        self.clients = as_column("q", self.clients)
        self.submitted_at = as_column("d", self.submitted_at)
        if not len(self.ids) == len(self.clients) == len(self.submitted_at):
            raise WorkloadError(f"the columns of a batch for validator {self.target} differ in length")

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Transaction]:
        return map(Transaction, self.ids, self.clients, self.submitted_at, repeat(self.target))

    def extend(self, batch: "TransactionBatch") -> None:
        """Add every row of ``batch``, in order."""
        if self.sealed or batch.target != self.target:
            raise WorkloadError(f"a batch for validator {self.target} does not take {batch!r}")
        self.ids += batch.ids
        self.clients += batch.clients
        self.submitted_at += batch.submitted_at

    def take(self, limit: int) -> "TransactionBatch":
        """Remove and return, sealed, the first ``limit`` rows (all, when fewer)."""
        taken = TransactionBatch(
            self.target, self.ids[:limit], self.clients[:limit], self.submitted_at[:limit], sealed=True
        )
        del self.ids[:limit], self.clients[:limit], self.submitted_at[:limit]
        return taken


def transaction_columns(block: Iterable[Any]) -> Tuple[array, array]:
    """The id and submission-time columns of the transactions in any block
    (a batch's own, to be read only; of another block, built here)."""
    if type(block) is TransactionBatch:
        return block.ids, block.submitted_at
    rows = [item for item in block if isinstance(item, Transaction)]
    return as_column("q", [row.tx_id for row in rows]), as_column("d", [row.submitted_at for row in rows])


def is_id_run(ids: array) -> bool:
    """Whether the id column ``ids`` (not empty) is ``ids[0], ids[0] + 1, ...``.

    The column is read as one unsigned integer in the host's byte order,
    ``ids[k]`` in lane ``k`` of ``itemsize`` bytes, and compared with the
    run's integer: ``ids[0]`` in every lane plus each lane's number.
    Lanes under half their range carry nothing into their neighbours, so
    equal integers mean equal lanes; no id is boxed.
    """
    first, count, width = ids[0], len(ids), 8 * ids.itemsize
    if first < 0 or first + count > 1 << width - 1:
        return False
    size, typecode, ones, ramp = _LANES
    if count > size or typecode != ids.typecode:
        size, typecode = max(count, 2 * size), ids.typecode
        ones = int.from_bytes(array(typecode, [1]) * size, sys.byteorder)
        ramp = int.from_bytes(array(typecode, range(size)), sys.byteorder)
        _LANES[:] = size, typecode, ones, ramp
    mask = (1 << width * count) - 1
    return int.from_bytes(ids, sys.byteorder) == (ones & mask) * first + (ramp & mask)


# Lanes, their type, one in every lane and each lane's number, for the
# widest id column met so far.
_LANES: List[Any] = [0, "", 0, 0]
