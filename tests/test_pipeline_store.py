"""Tests for the pluggable artifact stores and their shared file I/O."""

import hashlib
import os
import pickle
import zlib

import pytest

from repro.obs.context import RunContext, current
from repro.pipeline import Pipeline
from repro.pipeline.store import (
    ARTIFACT_FORMAT,
    STORE_DIR_ENV,
    DirStore,
    NullStore,
    StoreStats,
    atomic_write_pickle,
    read_pickle,
)


def _codes() -> list[str]:
    return [record["code"] for record in current().recorder.warnings]


def _entry(root, key: str):
    return root / "objects" / key[:2] / f"{key}.pkl"


def _write_envelope(path, **envelope) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps(envelope))


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
        a = StoreStats(hits=3, misses=1, writes=2, corrupt=0,
                       bytes_written=700)
        b = StoreStats(hits=1, misses=1, writes=0, corrupt=1,
                       bytes_written=200)
        assert (a + b).hits == 4
        assert (a - b).misses == 0
        assert (a + b).bytes_written == 900
        assert (a - b).bytes_written == 500
        assert a.lookups == 4
        assert a.hit_rate == 0.75

    def test_as_dict(self):
        stats = StoreStats(hits=1, misses=3)
        assert stats.as_dict() == {
            "hits": 1, "misses": 3, "writes": 0, "corrupt": 0,
            "bytes_written": 0, "hit_rate": 0.25,
        }

    def test_empty_hit_rate_is_zero(self):
        assert StoreStats().hit_rate == 0.0


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

    def test_stats_count_hits_and_misses(self, tmp_path):
        store = DirStore(tmp_path)
        assert store.get("absent") is None
        store.put("k", 1)
        store.get("k")
        assert store.stats == StoreStats(
            hits=1, misses=1, writes=1,
            bytes_written=_entry(tmp_path, "k").stat().st_size,
        )

    def test_contains_does_not_count(self, tmp_path):
        store = DirStore(tmp_path)
        store.put("k", 1)
        assert store.contains("k")
        assert not store.contains("absent")
        assert store.stats.lookups == 0

    def test_delete_and_clear(self, tmp_path):
        store = DirStore(tmp_path)
        store.put("a", 1)
        store.put("b", 2)
        assert store.delete("a")
        assert not store.delete("a")
        assert store.keys() == ["b"]
        assert store.clear() == 1
        assert store.keys() == []

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

    def test_repetitive_payload_round_trips_compressed(self, tmp_path):
        key = "55" + "0" * 62
        payload = {"log": "commit 0a1b2c\nM\tsrc/app.py\n" * 2000}
        DirStore(tmp_path).put(key, payload, meta={"stage": "generate"})
        artifact = DirStore(tmp_path).get(key)
        assert artifact.payload == payload
        assert artifact.meta == {"stage": "generate"}
        plain = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        assert _entry(tmp_path, key).stat().st_size < plain / 10

    def test_envelope_holds_plain_meta_and_a_zlib_payload(self, tmp_path):
        key = "56" + "0" * 62
        DirStore(tmp_path).put(key, "x" * 10_000, meta={"stage": "mine"})
        envelope = pickle.loads(_entry(tmp_path, key).read_bytes())
        assert envelope["meta"] == {"stage": "mine"}
        assert zlib.decompress(envelope["payload"]) == pickle.dumps(
            "x" * 10_000, protocol=pickle.HIGHEST_PROTOCOL
        )
        assert DirStore(tmp_path).meta_of(key) == {"stage": "mine"}

    def test_contains_and_meta_of_refuse_what_get_refuses(self, tmp_path):
        older, flipped, good = ("88" + "0" * 62, "99" + "0" * 62,
                                "aa" + "0" * 62)
        store = DirStore(tmp_path)
        for key in (older, flipped, good):
            store.put(key, {"x": 1}, meta={"stage": "mine"})
        envelope = pickle.loads(_entry(tmp_path, older).read_bytes())
        _write_envelope(
            _entry(tmp_path, older),
            **{**envelope, "format": "repro-artifact-v1"},
        )
        envelope = pickle.loads(_entry(tmp_path, flipped).read_bytes())
        envelope["payload"] = envelope["payload"][:-1] + bytes(
            [envelope["payload"][-1] ^ 0xFF]
        )
        _write_envelope(_entry(tmp_path, flipped), **envelope)
        damaged = {
            key: _entry(tmp_path, key).read_bytes() for key in (older, flipped)
        }

        reader = DirStore(tmp_path)
        assert reader.contains(good)
        assert reader.meta_of(good) == {"stage": "mine"}
        for key, data in damaged.items():
            assert not reader.contains(key)
            assert reader.meta_of(key) is None
            # read-only: the file stays, nothing warns, nothing counts
            assert _entry(tmp_path, key).read_bytes() == data
        assert _codes() == []
        assert reader.stats == StoreStats()
        # get refuses the same two entries, and drops them
        assert reader.get(older) is None and reader.get(flipped) is None
        assert _codes() == ["store-corrupt"]
        assert not any(_entry(tmp_path, key).exists() for key in damaged)

    def test_a_put_that_could_not_be_written_keeps_nothing(self, tmp_path):
        key = "bb" + "0" * 62
        other = "bc" + "0" * 62
        # a file where the key's prefix directory belongs: the write fails
        (tmp_path / "objects").mkdir()
        (tmp_path / "objects" / "bb").write_text("")
        store = DirStore(tmp_path)
        store.put(key, {"x": 1}, meta={"stage": "mine"})
        store.put(key, {"x": 2}, meta={"stage": "mine"})
        assert _codes() == ["store-dir-degraded"]  # warned once
        assert not store.contains(key)
        assert store.meta_of(key) is None
        assert store.get(key) is None
        assert store.keys() == []
        assert not store.delete(key)
        assert store.stats.bytes_written == 0
        # the rest of the directory is still written and served
        store.put(other, {"x": 3})
        assert store.keys() == [other]
        assert DirStore(tmp_path).get(other).payload == {"x": 3}

    def test_valid_digest_over_a_non_zlib_stream_is_corrupt(self, tmp_path):
        key = "66" + "0" * 62
        path = _entry(tmp_path, key)
        # the plain pickle a v1 envelope held, under the current tag:
        # its digest checks out, but it does not inflate
        payload = pickle.dumps({"x": 1})
        _write_envelope(
            path, format=ARTIFACT_FORMAT, key=key, meta={},
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            payload=payload,
        )
        store = DirStore(tmp_path)
        assert store.get(key) is None
        assert _codes() == ["store-corrupt"]
        assert store.stats.corrupt == 1
        assert not path.exists()

    def test_an_older_format_is_a_quiet_miss(self, tmp_path):
        key = "77" + "0" * 62
        path = _entry(tmp_path, key)
        payload = pickle.dumps({"x": 1})
        _write_envelope(
            path, format="repro-artifact-v1", key=key, meta={},
            payload_sha256=hashlib.sha256(payload).hexdigest(),
            payload=payload,
        )
        store = DirStore(tmp_path)
        assert store.meta_of(key) is None
        assert store.get(key) is None
        assert _codes() == []
        assert store.stats.corrupt == 0
        assert store.stats.misses == 1
        assert not path.exists()  # dropped, so the upgrade happens once
        store.put(key, {"x": 2})
        assert DirStore(tmp_path).get(key).payload == {"x": 2}

    def test_bytes_written_is_what_the_puts_left_on_disk(self, tmp_path):
        store = DirStore(tmp_path)
        keys = [f"{index:02d}" + "0" * 62 for index in range(3)]
        for index, key in enumerate(keys):
            store.put(key, list(range(100 * index)))
        on_disk = sum(
            path.stat().st_size
            for path in tmp_path.glob("objects/*/*.pkl")
        )
        assert store.stats.bytes_written == on_disk
        store.put(keys[0], "rewritten")  # a rewrite counts again
        assert store.stats.bytes_written == (
            on_disk + _entry(tmp_path, keys[0]).stat().st_size
        )
        reader = DirStore(tmp_path)
        assert reader.get(keys[1]) is not None
        assert reader.stats.bytes_written == 0

    def test_memory_and_null_stores_write_no_bytes(self, tmp_path):
        # a DirStore whose directory is unusable keeps nothing
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store dir should be")
        for store in (DirStore(blocker), NullStore()):
            store.put("k", "x" * 1000)
            assert store.stats.bytes_written == 0

    def test_generate_shards_are_stored_compressed(self, tmp_path):
        # a guard on the store's largest stage: 12 projects' git logs
        # and DDL versions must shrink to under half their plain
        # pickles (about a fifth at 195 projects)
        store = DirStore(tmp_path)
        pipe = Pipeline(scale=16, store=store)
        pipe.study()
        stored = plain = 0
        for shard in pipe.shards():
            key = shard.keys["generate"]
            stored += store.size_of(key)
            plain += len(pickle.dumps(
                store.get(key).payload, protocol=pickle.HIGHEST_PROTOCOL
            ))
        assert len(pipe.shards()) == 12
        assert stored < plain / 2

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

    def test_unusable_root_keeps_nothing(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store dir should be")
        store = DirStore(blocker)
        assert store.root is None
        assert _codes() == ["store-dir-degraded"]
        store.put("k", 1)
        assert _codes() == ["store-dir-degraded"]  # warned once
        # a put neither writes the envelope nor keeps the artifact
        assert store.get("k") is None
        assert not store.contains("k")
        assert store.meta_of("k") is None
        assert store.keys() == []
        assert not store.delete("k")
        assert store.stats == StoreStats(misses=1, writes=1)
        assert blocker.read_text() == "a file where the store dir should be"


class TestGlobalStore:
    """The store a run context builds on first use."""

    def test_default_keeps_nothing(self):
        store = RunContext().store
        assert isinstance(store, NullStore)
        assert store.kind == "null"
        store.put("k", {"rows": [1]})
        assert store.get("k") is None
        assert store.keys() == []

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
        assert RunContext().store.kind == "null"

    def test_the_store_is_built_on_first_use(self, tmp_path):
        context = RunContext(store_dir=tmp_path / "artifacts")
        assert not (tmp_path / "artifacts").exists()
        context.store
        assert (tmp_path / "artifacts").is_dir()
