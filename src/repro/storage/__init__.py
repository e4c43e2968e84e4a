"""Storage substrate: an in-memory persistent store.

The production implementation persists DAG vertices and consensus state in
RocksDB so a validator can crash and recover without losing safety.  The
simulator replaces RocksDB with an in-memory store whose contents survive
a simulated crash (the store object outlives the crashed validator's
protocol state), so recovery rebuilds the DAG from it deterministically.
"""

from repro.storage.store import PersistentStore

__all__ = ["PersistentStore"]
