"""Unit tests for the storage substrate."""

import pytest

from repro.errors import StorageError
from repro.storage.store import PersistentStore


class TestPersistentStore:
    def test_default_column_families_exist(self):
        store = PersistentStore()
        for name in PersistentStore.DEFAULT_FAMILIES:
            assert name in store.families

    def test_put_and_get(self):
        store = PersistentStore()
        family = store.family("vertices")
        family.put("key", "value")
        assert family.get("key") == "value"
        assert family.contains("key")

    def test_get_missing_returns_default(self):
        family = PersistentStore().family("vertices")
        assert family.get("missing") is None
        assert family.get("missing", 42) == 42

    def test_delete(self):
        family = PersistentStore().family("vertices")
        family.put("key", 1)
        family.delete("key")
        assert not family.contains("key")
        family.delete("key")  # idempotent

    def test_family_is_created_on_demand(self):
        store = PersistentStore()
        store.family("new-family").put("a", 1)
        assert "new-family" in store.families

    def test_open_family_requires_existence(self):
        with pytest.raises(StorageError):
            PersistentStore().open_family("does-not-exist")

    def test_families_are_isolated(self):
        store = PersistentStore()
        store.family("a").put("key", "in-a")
        store.family("b").put("key", "in-b")
        assert store.family("a").get("key") == "in-a"
        assert store.family("b").get("key") == "in-b"

    def test_counters(self):
        store = PersistentStore()
        store.family("a").put("x", 1)
        store.family("a").put("y", 2)
        store.family("a").get("x")
        assert store.total_writes() == 2
        assert store.total_keys() == 2
        assert store.family("a").reads == 1

    def test_items_and_keys(self):
        family = PersistentStore().family("a")
        family.put(1, "one")
        family.put(2, "two")
        assert sorted(family.keys()) == [1, 2]
        assert dict(family.items()) == {1: "one", 2: "two"}

    def test_wipe_erases_everything(self):
        store = PersistentStore()
        store.family("a").put("x", 1)
        store.wipe()
        assert store.total_keys() == 0

    def test_overwrite_replaces_value(self):
        family = PersistentStore().family("a")
        family.put("k", 1)
        family.put("k", 2)
        assert family.get("k") == 2
        assert len(family) == 1

