"""Pluggable artifact stores backing the stage pipeline.

An artifact is one stage's output — the generated corpus, the mined
histories, the analysis rows, a rendered report — addressed by the
stage fingerprint (:mod:`repro.pipeline.fingerprint`) and carried with
a metadata envelope (stage name, parameters, warnings raised while
computing, the stage's metrics delta and compute seconds), so a warm
run can replay the observability side-channels of the cold one.

Two implementations share the interface:

* :class:`MemoryStore` — a process-local dict; the default, and what
  tests use.  Payloads are stored as live objects (no pickle round
  trip), so repeated lookups return the *same* object — callers treat
  artifacts as immutable, exactly like parse-cache entries.
* :class:`DirStore` — an on-disk store rooted at ``--store-dir`` /
  :data:`STORE_DIR_ENV`.  Entries are single files written atomically
  (temp file + ``os.replace``), each a pickled envelope whose payload
  bytes carry their own SHA-256: a truncated or bit-flipped entry
  fails the digest (or the unpickle) and is treated as a miss with a
  ``store-corrupt`` warning — the pipeline recomputes, it never serves
  bad bytes.  An unusable root degrades to memory-only with a
  ``store-dir-degraded`` warning, mirroring the parse cache.

The atomic pickle-file helpers (:func:`atomic_write_pickle`,
:func:`read_pickle`) are shared with :class:`repro.perf.cache.ParseCache`
— the parse cache is just another client of the same storage idiom.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

#: Environment variable naming a run's on-disk store when
#: ``--store-dir`` is not given.
STORE_DIR_ENV = "REPRO_STORE_DIR"

#: Format tag of the on-disk artifact envelope.
ARTIFACT_FORMAT = "repro-artifact-v1"


# ----------------------------------------------------------------------
# shared atomic pickle-file I/O (also used by the parse cache)

def atomic_write_pickle(path: Path, obj: object) -> None:
    """Pickle ``obj`` to ``path`` atomically (temp file + replace).

    Raises ``OSError`` on an unwritable destination — callers decide
    whether that degrades or propagates.
    """
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp_name, path)
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
    """Monotone counters of one store's life so far."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0

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
        )

    def __sub__(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            writes=self.writes - other.writes,
            corrupt=self.corrupt - other.corrupt,
        )

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
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

    def __init__(self) -> None:
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0

    @property
    def stats(self) -> StoreStats:
        return StoreStats(
            hits=self._hits,
            misses=self._misses,
            writes=self._writes,
            corrupt=self._corrupt,
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


class MemoryStore(ArtifactStore):
    """Process-local artifact store (the default; also the test double)."""

    kind = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._entries: dict[str, Artifact] = {}

    def _raw_get(self, key: str) -> Artifact | None:
        return self._entries.get(key)

    def _raw_put(self, artifact: Artifact) -> None:
        self._entries[artifact.key] = artifact

    def contains(self, key: str) -> bool:
        return key in self._entries

    def delete(self, key: str) -> bool:
        return self._entries.pop(key, None) is not None

    def keys(self) -> list[str]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class NullStore(ArtifactStore):
    """A store that keeps nothing: every lookup misses.

    For one-shot studies (``run_study``): each shard's history is
    released once its analysis folds, as if no store were there.
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
    artifact.  The envelope records the payload bytes *and* their
    SHA-256, so corruption is detected before any payload object is
    materialised.  When the root is unusable the store degrades to a
    memory-backed one (with a warning) rather than failing the run.
    """

    kind = "dir"

    def __init__(self, root: str | Path):
        super().__init__()
        self.root: Path | None = None
        self._memory: dict[str, Artifact] = {}
        self._degrade_warned = False
        try:
            (Path(root) / "objects").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            self._warn_degraded(root, exc)
        else:
            self.root = Path(root)

    # -- warnings ------------------------------------------------------
    def _warn_degraded(self, root, exc: OSError) -> None:
        if self._degrade_warned:
            return
        self._degrade_warned = True
        from ..obs.events import warn

        warn(
            "store-dir-degraded",
            f"artifact store dir {str(root)!r} unusable "
            f"({exc.__class__.__name__}: {exc}); running memory-only",
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
        try:
            path.unlink()
        except OSError:
            pass

    # -- layout --------------------------------------------------------
    def _path_for(self, key: str) -> Path:
        assert self.root is not None
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    # -- protocol ------------------------------------------------------
    def _raw_get(self, key: str) -> Artifact | None:
        if self.root is None:
            return self._memory.get(key)
        path = self._path_for(key)
        if not path.exists():
            return None
        envelope = read_pickle(path)
        if not isinstance(envelope, dict):
            self._warn_corrupt(key, path, "not an artifact envelope")
            return None
        if (
            envelope.get("format") != ARTIFACT_FORMAT
            or envelope.get("key") != key
        ):
            self._warn_corrupt(key, path, "envelope header mismatch")
            return None
        payload_bytes = envelope.get("payload")
        digest = envelope.get("payload_sha256")
        if (
            not isinstance(payload_bytes, bytes)
            or hashlib.sha256(payload_bytes).hexdigest() != digest
        ):
            self._warn_corrupt(key, path, "payload digest mismatch")
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
            self._memory[artifact.key] = artifact
            return
        payload = artifact.payload
        codec = artifact.meta.get("codec")
        if codec is not None:
            from .codec import encode_payload

            payload = encode_payload(codec, payload)
        payload_bytes = pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL
        )
        envelope = {
            "format": ARTIFACT_FORMAT,
            "key": artifact.key,
            "meta": artifact.meta,
            "payload_sha256": hashlib.sha256(payload_bytes).hexdigest(),
            "payload": payload_bytes,
        }
        if codec is not None:
            envelope["codec"] = codec
        path = self._path_for(artifact.key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_pickle(path, envelope)
        except OSError as exc:
            # a read-only or full store keeps the artifact in memory
            self._warn_degraded(path.parent, exc)
            self._memory[artifact.key] = artifact

    def contains(self, key: str) -> bool:
        if self.root is None:
            return key in self._memory
        return key in self._memory or self._path_for(key).exists()

    def meta_of(self, key: str) -> dict | None:
        if key in self._memory:
            return dict(self._memory[key].meta)
        if self.root is None:
            return None
        path = self._path_for(key)
        if not path.exists():
            return None
        envelope = read_pickle(path)
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != ARTIFACT_FORMAT
            or envelope.get("key") != key
        ):
            return None
        # the payload stays opaque bytes — metas are cheap to sweep
        return dict(envelope.get("meta") or {})

    def delete(self, key: str) -> bool:
        removed = self._memory.pop(key, None) is not None
        if self.root is not None:
            path = self._path_for(key)
            if path.exists():
                try:
                    path.unlink()
                    removed = True
                except OSError:
                    pass
        return removed

    def keys(self) -> list[str]:
        found = set(self._memory)
        if self.root is not None:
            found.update(
                path.stem
                for path in (self.root / "objects").glob("*/*.pkl")
            )
        return sorted(found)

    def size_of(self, key: str) -> int | None:
        if self.root is None:
            return None
        path = self._path_for(key)
        try:
            return path.stat().st_size
        except OSError:
            return None
