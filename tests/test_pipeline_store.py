"""Tests for the pluggable artifact stores and their shared file I/O."""

import os
import pickle

import pytest

from repro.obs.context import RunContext, current
from repro.pipeline.store import (
    ARTIFACT_FORMAT,
    STORE_DIR_ENV,
    DirStore,
    MemoryStore,
    NullStore,
    StoreStats,
    atomic_write_pickle,
    read_pickle,
)


def _codes() -> list[str]:
    return [record["code"] for record in current().recorder.warnings]


class TestAtomicPickleIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "obj.pkl"
        atomic_write_pickle(path, {"a": [1, 2, 3]})
        assert read_pickle(path) == {"a": [1, 2, 3]}

    def test_no_tmp_litter(self, tmp_path):
        atomic_write_pickle(tmp_path / "obj.pkl", 42)
        assert [p.name for p in tmp_path.iterdir()] == ["obj.pkl"]

    def test_read_missing_is_none(self, tmp_path):
        assert read_pickle(tmp_path / "absent.pkl") is None

    def test_read_garbage_is_none(self, tmp_path):
        path = tmp_path / "bad.pkl"
        path.write_bytes(b"this is not a pickle")
        assert read_pickle(path) is None

    def test_write_to_unwritable_dir_raises(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.pkl"
        with pytest.raises(OSError):
            atomic_write_pickle(missing, 1)


class TestStoreStats:
    def test_arithmetic(self):
        a = StoreStats(hits=3, misses=1, writes=2, corrupt=0)
        b = StoreStats(hits=1, misses=1, writes=0, corrupt=1)
        assert (a + b).hits == 4
        assert (a - b).misses == 0
        assert a.lookups == 4
        assert a.hit_rate == 0.75

    def test_as_dict(self):
        stats = StoreStats(hits=1, misses=3)
        assert stats.as_dict() == {
            "hits": 1, "misses": 3, "writes": 0, "corrupt": 0,
            "hit_rate": 0.25,
        }

    def test_empty_hit_rate_is_zero(self):
        assert StoreStats().hit_rate == 0.0


class TestMemoryStore:
    def test_round_trip_returns_same_object(self):
        store = MemoryStore()
        payload = {"rows": [1, 2]}
        store.put("k1", payload, meta={"stage": "analyze"})
        artifact = store.get("k1")
        assert artifact.payload is payload
        assert artifact.meta == {"stage": "analyze"}

    def test_stats_count_hits_and_misses(self):
        store = MemoryStore()
        assert store.get("absent") is None
        store.put("k", 1)
        store.get("k")
        assert store.stats == StoreStats(hits=1, misses=1, writes=1)

    def test_contains_does_not_count(self):
        store = MemoryStore()
        store.put("k", 1)
        assert store.contains("k")
        assert not store.contains("absent")
        assert store.stats.lookups == 0

    def test_delete_and_clear(self):
        store = MemoryStore()
        store.put("a", 1)
        store.put("b", 2)
        assert store.delete("a")
        assert not store.delete("a")
        assert store.keys() == ["b"]
        assert store.clear() == 1
        assert len(store) == 0


class TestNullStore:
    def test_keeps_nothing(self):
        store = NullStore()
        artifact = store.put("k", {"rows": [1]}, meta={"stage": "mine"})
        # the write still hands back the artifact the caller folds
        assert artifact.payload == {"rows": [1]}
        assert store.get("k") is None
        assert not store.contains("k")
        assert store.meta_of("k") is None
        assert not store.delete("k")
        assert store.keys() == []
        assert store.stats == StoreStats(misses=1, writes=1)


class TestDirStore:
    def test_round_trip_across_instances(self, tmp_path):
        DirStore(tmp_path).put("a" * 64, {"x": 1}, meta={"stage": "mine"})
        artifact = DirStore(tmp_path).get("a" * 64)
        assert artifact.payload == {"x": 1}
        assert artifact.meta["stage"] == "mine"

    def test_layout_shards_by_key_prefix(self, tmp_path):
        key = "ab" + "0" * 62
        DirStore(tmp_path).put(key, 1)
        assert (tmp_path / "objects" / "ab" / f"{key}.pkl").exists()

    def test_size_of_and_keys(self, tmp_path):
        store = DirStore(tmp_path)
        key = "cd" + "0" * 62
        store.put(key, list(range(100)))
        assert store.size_of(key) > 100
        assert store.keys() == [key]
        assert store.size_of("absent") is None

    def test_delete_removes_the_file(self, tmp_path):
        store = DirStore(tmp_path)
        key = "ef" + "0" * 62
        store.put(key, 1)
        assert store.delete(key)
        assert not store.contains(key)
        assert not store.delete(key)

    def test_truncated_entry_warns_and_recomputes(self, tmp_path):
        store = DirStore(tmp_path)
        key = "11" + "0" * 62
        store.put(key, {"x": 1})
        path = tmp_path / "objects" / "11" / f"{key}.pkl"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        fresh = DirStore(tmp_path)
        assert fresh.get(key) is None  # a miss, never bad bytes
        assert _codes() == ["store-corrupt"]
        assert fresh.stats.corrupt == 1
        assert not path.exists()  # the poisoned entry is dropped

    def test_bitflip_fails_the_payload_digest(self, tmp_path):
        store = DirStore(tmp_path)
        key = "22" + "0" * 62
        store.put(key, {"x": 1})
        path = tmp_path / "objects" / "22" / f"{key}.pkl"
        envelope = pickle.loads(path.read_bytes())
        envelope["payload"] = envelope["payload"][:-1] + bytes(
            [envelope["payload"][-1] ^ 0xFF]
        )
        path.write_bytes(pickle.dumps(envelope))

        assert DirStore(tmp_path).get(key) is None
        assert _codes() == ["store-corrupt"]

    def test_envelope_header_mismatch_is_corrupt(self, tmp_path):
        store = DirStore(tmp_path)
        key = "33" + "0" * 62
        path = tmp_path / "objects" / "33" / f"{key}.pkl"
        path.parent.mkdir(parents=True)
        payload = pickle.dumps({"x": 1})
        import hashlib

        path.write_bytes(pickle.dumps({
            "format": ARTIFACT_FORMAT,
            "key": "not-the-same-key",
            "meta": {},
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "payload": payload,
        }))
        assert store.get(key) is None
        assert _codes() == ["store-corrupt"]

    def test_racing_writers_never_produce_a_torn_read(self, tmp_path):
        # two processes sharding the same corpus can race a put() on the
        # same shard key; the atomic-rename envelope means readers see
        # one complete payload or the other, never a mixture
        import threading

        key = "44" + "0" * 62
        payloads = [
            {"writer": w, "rows": [w] * 200} for w in range(2)
        ]
        writers = [DirStore(tmp_path), DirStore(tmp_path)]
        start = threading.Barrier(3)
        observed: list[object] = []
        errors: list[BaseException] = []

        def write(index: int) -> None:
            try:
                start.wait()
                for _ in range(50):
                    writers[index].put(
                        key, payloads[index], meta={"stage": "mine"}
                    )
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        done = threading.Event()

        def read() -> None:
            try:
                reader = DirStore(tmp_path)
                start.wait()
                while not done.is_set() or not observed:
                    artifact = reader.get(key)
                    if artifact is not None:
                        observed.append(artifact.payload)
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(0,)),
            threading.Thread(target=write, args=(1,)),
            threading.Thread(target=read),
        ]
        for thread in threads:
            thread.start()
        for thread in threads[:2]:
            thread.join()
        done.set()
        threads[2].join()

        assert errors == []
        assert observed  # the reader saw at least one complete write
        assert all(payload in payloads for payload in observed)
        final = DirStore(tmp_path).get(key)
        assert final.payload in payloads
        # no reader ever tripped the corruption path
        assert "store-corrupt" not in _codes()
        assert all(store.stats.corrupt == 0 for store in writers)

    def test_unusable_root_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store dir should be")
        store = DirStore(blocker)
        assert store.root is None
        assert _codes() == ["store-dir-degraded"]
        store.put("k", 1)
        assert store.get("k").payload == 1  # memory fallback still works


class TestGlobalStore:
    """The store a run context builds on first use."""

    def test_default_is_memory(self):
        assert RunContext().store.kind == "memory"

    def test_store_dir_builds_a_dir_store_and_exports_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(STORE_DIR_ENV, raising=False)
        context = RunContext(store_dir=tmp_path / "artifacts")
        assert context.store.kind == "dir"
        assert context.store is context.store
        assert STORE_DIR_ENV not in os.environ

    def test_env_var_enables_dir_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_DIR_ENV, str(tmp_path / "from-env"))
        assert RunContext.from_env().store.kind == "dir"
        assert RunContext().store.kind == "memory"

    def test_the_store_is_built_on_first_use(self, tmp_path):
        context = RunContext(store_dir=tmp_path / "artifacts")
        assert not (tmp_path / "artifacts").exists()
        context.store
        assert (tmp_path / "artifacts").is_dir()
