"""Pluggable artifact stores backing the stage pipeline.

An artifact is one stage's output — the generated corpus, the mined
histories, the analysis rows, a rendered report — addressed by the
stage fingerprint (:mod:`repro.pipeline.fingerprint`) and carried with
a metadata envelope (stage name, parameters, warnings raised while
computing, the stage's metrics delta and compute seconds), so a warm
run can replay the observability side-channels of the cold one.

Two implementations share the interface:

* :class:`NullStore` — keeps nothing, so every lookup misses; the
  store of a run without a store directory, which then holds only the
  reduce artifacts its :class:`~repro.pipeline.graph.Pipeline`
  memoises for the run.
* :class:`DirStore` — an on-disk store rooted at ``--store-dir`` /
  :data:`STORE_DIR_ENV`.  Entries are single files written atomically
  (temp file + ``os.replace``), each a pickled envelope whose payload
  is the zlib-compressed pickle, carrying its own SHA-256: a truncated
  or bit-flipped entry fails the digest (or the inflate, or the
  unpickle) and is treated as a miss with a ``store-corrupt`` warning
  — the pipeline recomputes, it never serves bad bytes.  An envelope
  of another :data:`ARTIFACT_FORMAT` is an older layout, dropped as a
  plain miss.  An unusable root, or a put that cannot be written,
  warns ``store-dir-degraded`` once and keeps nothing: a store either
  writes the envelope or keeps nothing, so an unusable directory never
  holds a run's artifacts in memory.

The store is the one cache that outlives a schema history: every
artifact key carries its stage's code version, so a version bump
recomputes instead of replaying stale work.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

#: Environment variable naming a run's on-disk store when
#: ``--store-dir`` is not given.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Format tag of the on-disk artifact envelope.  An entry with any
#: other tag is an older layout: a miss (dropped and recomputed), not
#: corruption.  v2 compresses the payload; v1 stored the plain pickle.
ARTIFACT_FORMAT = "repro-artifact-v2"

#: Why :meth:`DirStore._read_envelope` refused an envelope of another
#: :data:`ARTIFACT_FORMAT`: an older layout, a quiet miss.
OLDER_FORMAT = "older format"

#: zlib level of a stored payload.  Level 1 takes a 195-project store
#: from 10.1 to 2.8 MiB: a project's git log and DDL versions repeat
#: themselves, and every DDL version (under 7 KiB) lies within zlib's
#: 32 KiB window of the one before it.  Level 6 saves about 0.3 MiB
#: more at twice the compression time of a generate shard.
COMPRESSION_LEVEL = 1


# ----------------------------------------------------------------------
# atomic pickle-file I/O

def atomic_write_pickle(path: Path, obj: object) -> int:
    """Pickle ``obj`` to ``path`` atomically (temp file + replace).

    Returns the bytes written.  Raises ``OSError`` on an unwritable
    destination — callers decide whether that degrades or propagates.
    """
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
            size = fh.tell()
        os.replace(tmp_name, path)
        return size
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def read_pickle(path: Path) -> object | None:
    """Unpickle ``path``; ``None`` on any read/format problem."""
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, IndexError):
        return None


# ----------------------------------------------------------------------
# the store interface

@dataclass(frozen=True)
class StoreStats:
    """Monotone counters of one store's life so far.

    ``bytes_written`` counts the envelope bytes a :class:`DirStore`'s
    puts wrote to disk (what its directory grew by); a
    :class:`NullStore`, and a ``DirStore`` whose directory is unusable,
    read 0.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    bytes_written: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def __add__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            writes=self.writes + other.writes,
            corrupt=self.corrupt + other.corrupt,
            bytes_written=self.bytes_written + other.bytes_written,
        )

    def __sub__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            writes=self.writes - other.writes,
            corrupt=self.corrupt - other.corrupt,
            bytes_written=self.bytes_written - other.bytes_written,
        )

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "bytes_written": self.bytes_written,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass
class Artifact:
    """One stored stage output: the payload plus its envelope metadata."""

    key: str
    payload: object
    meta: dict = field(default_factory=dict)


class ArtifactStore:
    """Interface + shared counters; concrete stores implement `_raw_*`."""

    kind = "null"

    #: The ``store-dir-degraded`` warning this store raised (it warns
    #: once); a store that cannot degrade leaves it unset.
    degraded: dict | None = None

    def __init__(self) -> None:
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0
        self._bytes_written = 0

    @property
    def stats(self) -> StoreStats:
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            writes=self._writes,
            corrupt=self._corrupt,
            bytes_written=self._bytes_written,
        )

    # -- the public protocol -------------------------------------------
    def get(self, key: str) -> Artifact | None:
        """The artifact under ``key``, or ``None`` (counted as a miss)."""
        artifact = self._raw_get(key)
        if artifact is None:
            self._misses += 1
        else:
            self._hits += 1
        return artifact

    def put(self, key: str, payload: object, meta: dict | None = None
            ) -> Artifact:
        """Store a payload; returns the stored artifact."""
        artifact = Artifact(key=key, payload=payload, meta=dict(meta or {}))
        self._raw_put(artifact)
        self._writes += 1
        return artifact

    def absorb(self, stats: StoreStats, degraded: dict | None = None) -> None:
        """Count what a copy of this store did in another process.

        A pool worker writes a shard's artifacts through the copy of
        the run's store its task carried; ``stats`` is what that copy
        counted there.  ``degraded`` is the copy's
        ``store-dir-degraded`` warning: it is replayed into the run
        unless this store has warned already, so a run warns once
        whichever process first failed to write.
        """
        self._hits += stats.hits
        self._misses += stats.misses
        self._writes += stats.writes
        self._corrupt += stats.corrupt
        self._bytes_written += stats.bytes_written
        if degraded is not None and self.degraded is None:
            from ..obs.context import current

            self.degraded = degraded
            current().recorder.replay(degraded)

    def contains(self, key: str) -> bool:
        """Whether ``key`` is present — no hit/miss accounting."""
        raise NotImplementedError

    def meta_of(self, key: str) -> dict | None:
        """The envelope meta under ``key`` without touching the payload.

        Introspection only (like :meth:`contains`): no hit/miss
        accounting, and implementations avoid materialising the payload
        where they can — the stage-version drift guard reads metas for
        every stage and must not deserialise whole corpus shards to do
        it.  ``None`` when absent or unreadable.
        """
        artifact = self._raw_get(key)
        return None if artifact is None else dict(artifact.meta)

    def delete(self, key: str) -> bool:
        """Drop ``key``; True when an entry was actually removed."""
        raise NotImplementedError

    def keys(self) -> list[str]:
        raise NotImplementedError

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        removed = 0
        for key in self.keys():
            removed += bool(self.delete(key))
        return removed

    def size_of(self, key: str) -> int | None:
        """Approximate stored size in bytes, when knowable."""
        return None

    # -- implemented by subclasses -------------------------------------
    def _raw_get(self, key: str) -> Artifact | None:
        raise NotImplementedError

    def _raw_put(self, artifact: Artifact) -> None:
        raise NotImplementedError


class NullStore(ArtifactStore):
    """A store that keeps nothing: every lookup misses.

    The store of every run without a store directory — the CLI without
    ``--store-dir`` or ``REPRO_STORE_DIR``, ``run_study`` — so each
    shard's history is released once its analysis folds, and a
    one-shot run's memory does not grow with the corpus.
    """

    def _raw_get(self, key: str) -> Artifact | None:
        return None

    def _raw_put(self, artifact: Artifact) -> None:
        pass

    def contains(self, key: str) -> bool:
        return False

    def delete(self, key: str) -> bool:
        return False

    def keys(self) -> list[str]:
        return []


class DirStore(ArtifactStore):
    """On-disk artifact store shared across processes and runs.

    Layout: ``root/objects/<key[:2]>/<key>.pkl``, one envelope file per
    artifact.  The envelope records the compressed payload bytes *and*
    their SHA-256, so corruption is detected before anything is
    inflated or materialised; its ``meta`` stays uncompressed, so
    :meth:`meta_of` sweeps never inflate a payload.  When the root is
    unusable, or a write fails, the store warns once and keeps nothing,
    as a :class:`NullStore` would, rather than failing the run.
    """

    kind = "dir"

    def __init__(self, root: str | Path):
        super().__init__()
        self.root: Path | None = None
        try:
            (Path(root) / "objects").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self._warn_degraded(root, exc)
        else:
            self.root = Path(root)

    # -- warnings ------------------------------------------------------
    def _warn_degraded(self, root, exc: OSError) -> None:
        if self.degraded is not None:
            return
        from ..obs.events import warn

        self.degraded = warn(
            "store-dir-degraded",
            f"artifact store dir {str(root)!r} unusable "
            f"({exc.__class__.__name__}: {exc}); artifacts are not kept",
            store_dir=str(root),
        )

    def _warn_corrupt(self, key: str, path: Path, reason: str) -> None:
        self._corrupt += 1
        from ..obs.events import warn

        warn(
            "store-corrupt",
            f"artifact {key[:12]} unreadable ({reason}); "
            "entry dropped, stage will recompute",
            key=key,
            path=str(path),
        )
        self._drop(path)

    @staticmethod
    def _drop(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass

    # -- layout --------------------------------------------------------
    def _path_for(self, key: str) -> Path:
        assert self.root is not None
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    # -- protocol ------------------------------------------------------
    def _read_envelope(self, key: str) -> tuple[dict | None, str | None]:
        """The envelope stored under ``key``, checked as a read checks it.

        ``(envelope, None)`` when the file unpickles to an envelope
        whose format, key and payload digest all match — everything
        :meth:`get` checks before it inflates the payload.  Otherwise
        ``(None, reason)``: ``None`` for no file, :data:`OLDER_FORMAT`
        for an older layout, and what is wrong for a damaged entry.
        Reading only: it drops no file, warns nothing, counts nothing.
        """
        path = self._path_for(key)
        if not path.exists():
            return None, None
        envelope = read_pickle(path)
        if not isinstance(envelope, dict):
            return None, "not an artifact envelope"
        if envelope.get("format") != ARTIFACT_FORMAT:
            return None, OLDER_FORMAT
        if envelope.get("key") != key:
            return None, "envelope header mismatch"
        compressed = envelope.get("payload")
        if (
            not isinstance(compressed, bytes)
            or hashlib.sha256(compressed).hexdigest()
            != envelope.get("payload_sha256")
        ):
            return None, "payload digest mismatch"
        return envelope, None

    def _raw_get(self, key: str) -> Artifact | None:
        if self.root is None:
            return None
        envelope, reason = self._read_envelope(key)
        path = self._path_for(key)
        if envelope is None:
            if reason == OLDER_FORMAT:
                # an older layout's entry, not damage: drop it quietly
                # and let the stage recompute and rewrite it
                self._drop(path)
            elif reason is not None:
                self._warn_corrupt(key, path, reason)
            return None
        try:
            payload_bytes = zlib.decompress(envelope["payload"])
        except zlib.error:
            self._warn_corrupt(key, path, "payload does not decompress")
            return None
        try:
            payload = pickle.loads(payload_bytes)
        except Exception:  # digest passed but unpicklable: treat as corrupt
            self._warn_corrupt(key, path, "payload does not unpickle")
            return None
        codec = envelope.get("codec")
        if codec is not None:
            from .codec import decode_payload

            try:
                payload = decode_payload(codec, payload)
            except Exception:
                # unknown codec name or undecodable bytes: recompute,
                # never serve a half-decoded payload
                self._warn_corrupt(key, path, f"payload codec {codec!r}")
                return None
        return Artifact(
            key=key, payload=payload, meta=dict(envelope.get("meta") or {})
        )

    def _raw_put(self, artifact: Artifact) -> None:
        if self.root is None:
            return
        payload = artifact.payload
        codec = artifact.meta.get("codec")
        if codec is not None:
            from .codec import encode_payload

            payload = encode_payload(codec, payload)
        compressed = zlib.compress(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            COMPRESSION_LEVEL,
        )
        envelope = {
            "format": ARTIFACT_FORMAT,
            "key": artifact.key,
            "meta": artifact.meta,
            "payload_sha256": hashlib.sha256(compressed).hexdigest(),
            "payload": compressed,
        }
        if codec is not None:
            envelope["codec"] = codec
        path = self._path_for(artifact.key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            self._bytes_written += atomic_write_pickle(path, envelope)
        except OSError as exc:
            # a read-only or full store keeps nothing of this artifact
            self._warn_degraded(path.parent, exc)

    def contains(self, key: str) -> bool:
        """Whether ``key`` holds an entry :meth:`get` would serve.

        Checked up to the inflate: an older-format or damaged file reads
        as absent, as it does to :meth:`get`, but stays on disk — only
        a read drops it.
        """
        if self.root is None:
            return False
        return self._read_envelope(key)[0] is not None

    def meta_of(self, key: str) -> dict | None:
        if self.root is None:
            return None
        envelope, _ = self._read_envelope(key)
        # the payload stays opaque bytes — metas are cheap to sweep
        return None if envelope is None else dict(envelope.get("meta") or {})

    def delete(self, key: str) -> bool:
        if self.root is None:
            return False
        try:
            self._path_for(key).unlink()
        except OSError:
            return False
        return True

    def keys(self) -> list[str]:
        if self.root is None:
            return []
        return sorted(
            path.stem for path in (self.root / "objects").glob("*/*.pkl")
        )

    def size_of(self, key: str) -> int | None:
        if self.root is None:
            return None
        path = self._path_for(key)
        try:
            return path.stat().st_size
        except OSError:
            return None
