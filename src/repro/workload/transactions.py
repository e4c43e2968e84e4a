"""Transactions submitted by benchmark clients.

The paper's benchmark transactions are "simple increments of a shared
counter"; what matters for the evaluation is their count and timing, not
their content, so the transaction object carries only identity, timing,
and a small payload descriptor.
"""

from __future__ import annotations

import dataclasses
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

    def canonical_fields(self):
        """Fields participating in content digests."""
        return (self.tx_id, self.client_id, self.kind, self.payload_bytes)


def counter_increment(
    tx_id: int,
    client_id: int,
    submitted_at: SimTime,
    target_validator: ValidatorId,
) -> Transaction:
    """Build the shared-counter increment transaction used by the paper."""
    return Transaction(
        tx_id=tx_id,
        client_id=client_id,
        submitted_at=submitted_at,
        target_validator=target_validator,
    )


@dataclasses.dataclass(slots=True, eq=False)
class TransactionBatch:
    """Counter increments submitted to one validator, as parallel columns.

    Row ``i`` is ``Transaction(ids[i], clients[i], submitted_at[i],
    target)``; ``len``, iteration and indexing build those tuples on
    demand, and a batch equals (and hashes as) the tuple of its rows.  A
    batch is what a client delivers and what a validator pools; what
    :meth:`take` returns is ``sealed``, never to change again, and that
    is what a vertex carries as its block.  A batch owns the lists it is
    built from: the caller keeps no reference to them.
    """

    target: ValidatorId
    ids: List[int] = dataclasses.field(default_factory=list)
    clients: List[int] = dataclasses.field(default_factory=list)
    submitted_at: List[SimTime] = dataclasses.field(default_factory=list)
    sealed: bool = False

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Transaction]:
        return map(Transaction, self.ids, self.clients, self.submitted_at, repeat(self.target))

    def __getitem__(self, index: int) -> Transaction:
        return Transaction(self.ids[index], self.clients[index], self.submitted_at[index], self.target)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (TransactionBatch, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def append(self, transaction: Transaction) -> None:
        """Add one row; only an increment submitted to ``target`` is one."""
        if self.sealed or tuple(transaction[3:]) != (self.target, *Transaction._field_defaults.values()):
            raise WorkloadError(f"{transaction!r} is no row of a batch for validator {self.target}")
        self.ids.append(transaction.tx_id)
        self.clients.append(transaction.client_id)
        self.submitted_at.append(transaction.submitted_at)

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


def transaction_columns(block: Iterable[Any]) -> Tuple[List[int], List[SimTime]]:
    """The id and submission-time columns of the transactions in any block
    (a batch's own, to be read only; of another block, built here)."""
    if type(block) is TransactionBatch:
        return block.ids, block.submitted_at
    rows = [item for item in block if isinstance(item, Transaction)]
    return [row.tx_id for row in rows], [row.submitted_at for row in rows]
