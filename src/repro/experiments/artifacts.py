"""Content-keyed artifact cache behind the scenario engine.

The sweep engine splits a federation run into stages (data → pre-train →
federate → evaluate).  The data and pre-train stages are pure functions
of their inputs, and the federate stage is pure *per client update*
(each update is a function of the client's construction identity, the
round index and the broadcast GM state — see :class:`RoundCache`), so
those outputs are cached here under **content keys** — stable hashes of
everything that determines the result bit-for-bit.  Two layers:

* an **in-memory memo** shared by all cells of a sweep (and by every
  sweep run through the same engine), with per-key locks so concurrent
  cells wanting the same artifact compute it exactly once while the
  losers wait;
* an optional **on-disk store** (``cache_dir``) holding fingerprint
  datasets, pre-trained GM states and client updates as ``.npz``
  archives and finished cell results as JSON, which is what makes
  partially completed sweeps resumable across processes.

Client updates live in the memo as private array copies: a hit hands
out a fresh copy, and a store copies the caller's update in.  Their
``.npz`` encoding (:func:`encode_update` / :func:`decode_update`) runs
only on the disk layer.  A disk entry that fails to read or decode —
a killed writer or tampering — is deleted and recomputed, never raised.

Keys include a schema version; bump :data:`SCHEMA_VERSION` whenever the
meaning of a cached payload changes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import threading
from typing import Callable, Dict, List, Optional, Tuple, cast

import numpy as np

from repro.data.datasets import FingerprintDataset
from repro.fl.aggregation import ClientUpdate
from repro.fl.state import state_from_bytes, state_signature, state_to_bytes
from repro.nn.serialization import StateDict, load_state, save_state

__all__ = [
    "ArtifactCache",
    "RoundCache",
    "StageStats",
    "content_key",
    "state_signature",
]

#: bump when cached payload semantics change (invalidates old cache dirs)
SCHEMA_VERSION = 1


def content_key(payload: Dict) -> str:
    """Stable 16-hex-digit key from a JSON-serializable payload."""
    canonical = json.dumps(
        {"schema": SCHEMA_VERSION, **payload}, sort_keys=True, default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class StageStats:
    """Thread-safe hit/miss counters per pipeline stage."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Dict[str, Dict[str, int]] = {}

    def record(self, stage: str, hit: bool) -> None:
        with self._lock:
            entry = self._counts.setdefault(stage, {"hits": 0, "misses": 0})
            entry["hits" if hit else "misses"] += 1

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        with self._lock:
            return {stage: dict(c) for stage, c in self._counts.items()}

    def merge(self, counts: Dict[str, Dict[str, int]]) -> None:
        """Fold another process's counter deltas into these stats (the
        sweep engine's process executor reports per-worker counters)."""
        with self._lock:
            for stage, stage_counts in counts.items():
                entry = self._counts.setdefault(
                    stage, {"hits": 0, "misses": 0}
                )
                for kind, value in stage_counts.items():
                    entry[kind] = entry.get(kind, 0) + value

    @staticmethod
    def delta(
        before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
    ) -> Dict[str, Dict[str, int]]:
        """Counter difference between two snapshots (one sweep's share)."""
        out: Dict[str, Dict[str, int]] = {}
        for stage, counts in after.items():
            base = before.get(stage, {})
            diff = {
                kind: counts[kind] - base.get(kind, 0) for kind in counts
            }
            if any(diff.values()):
                out[stage] = diff
        return out


class _KeyedLocks:
    """Per-key locks so one artifact is computed at most once at a time."""

    def __init__(self):
        self._guard = threading.Lock()
        self._locks: Dict[object, threading.Lock] = {}

    def lock(self, key: object) -> threading.Lock:
        with self._guard:
            return self._locks.setdefault(key, threading.Lock())


class ArtifactCache:
    """Two-layer (memory + optional disk) cache for stage artifacts.

    Args:
        cache_dir: Root directory for the on-disk layer, or ``None`` for a
            purely in-memory cache (artifacts still shared within the
            process, nothing persisted).
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir
        self.stats = StageStats()
        self._memo: Dict[Tuple[str, str], object] = {}
        self._memo_lock = threading.Lock()
        self._locks = _KeyedLocks()

    # -- generic get-or-compute -------------------------------------------
    def get_or_compute(
        self,
        stage: str,
        key: str,
        compute: Callable[[], object],
        load_disk: Optional[Callable[[str], object]] = None,
        save_disk: Optional[Callable[[str, object], None]] = None,
        suffix: str = "",
    ) -> Tuple[object, bool]:
        """Return ``(artifact, was_hit)`` for one stage/key.

        Lookup order: in-memory memo, then disk (when configured), then
        ``compute()``.  Concurrent callers with the same key serialize on
        a per-key lock, so the artifact is computed exactly once.
        """
        memo_key = (stage, key)
        with self._memo_lock:
            if memo_key in self._memo:
                self.stats.record(stage, hit=True)
                return self._memo[memo_key], True
        with self._locks.lock(memo_key):
            with self._memo_lock:
                if memo_key in self._memo:
                    self.stats.record(stage, hit=True)
                    return self._memo[memo_key], True
            path = self._path(stage, key, suffix)
            artifact = None
            hit = False
            if path and load_disk and os.path.exists(path):
                try:
                    artifact = load_disk(path)
                    hit = True
                # repro: allow[REP302] killed-writer/tampered cache entry: recompute, don't crash the sweep
                except Exception:
                    # a killed writer predating atomic replace, or manual
                    # tampering — recompute rather than crash the sweep
                    # (another process may win the same cleanup race)
                    with contextlib.suppress(OSError):
                        os.remove(path)
            if not hit:
                artifact = compute()
                if path and save_disk:
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    # write-to-temp + rename so an interrupted sweep never
                    # leaves a truncated artifact behind; the temp name
                    # keeps the suffix (save_state appends .npz otherwise)
                    # and is per-process/thread so cache dirs shared across
                    # processes never interleave writes into one temp file
                    tmp = self._path(stage, _tmp_name(key), suffix)
                    save_disk(tmp, artifact)
                    os.replace(tmp, path)
            with self._memo_lock:
                self._memo[memo_key] = artifact
            self.stats.record(stage, hit=hit)
            return artifact, hit

    def _path(self, stage: str, key: str, suffix: str = "") -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, stage, key + suffix)

    # -- datasets ---------------------------------------------------------
    def get_datasets(
        self,
        key: str,
        compute: Callable[[], Tuple[FingerprintDataset, Dict[str, FingerprintDataset]]],
    ) -> Tuple[Tuple[FingerprintDataset, Dict[str, FingerprintDataset]], bool]:
        """The (train, per-device tests) bundle of one building survey."""
        return self.get_or_compute(
            "data",
            key,
            compute,
            load_disk=_load_datasets,
            save_disk=_save_datasets,
            suffix=".npz",
        )

    # -- pre-trained states -----------------------------------------------
    def get_pretrained(
        self, key: str, compute: Callable[[], StateDict]
    ) -> Tuple[StateDict, bool]:
        """The post-pre-train GM state dict for one model/data pairing."""
        return self.get_or_compute(
            "pretrain",
            key,
            compute,
            load_disk=load_state,
            save_disk=lambda path, state: save_state(state, path),
            suffix=".npz",
        )

    # -- federate round updates -------------------------------------------
    def get_client_update(
        self, key: str, compute: Callable[[], ClientUpdate]
    ) -> Tuple[ClientUpdate, bool]:
        """One client's update for one (round, broadcast-state) pairing.

        A hit returns a fresh copy of the cached update; a miss computes
        the update, stores a copy of it and hands the caller's own update
        back.  Either way the caller never aliases a cache entry.  The
        ``.npz`` encoding runs only when ``cache_dir`` is set, to persist
        the entry or to load one a previous run persisted.
        """
        with self._locks.lock(("federate", key)):
            cached = self._load_update(key)
            if cached is None:
                update = compute()
                self._save_update(key, update)
        self.stats.record("federate", hit=cached is not None)
        if cached is None:
            return update, False
        return _copy_update(cached), True

    def peek_client_update(self, key: str) -> Optional[ClientUpdate]:
        """A fresh copy of the cached update for ``key``, or ``None`` —
        never computes.

        The probe half of the batched client engine's consult/populate
        split: a cohort probes every fold first, trains only the misses in
        one stacked program, then stores them via
        :meth:`store_client_update`.  A probe records one federate hit or
        miss — the store records nothing — so engines that probe+store and
        engines that call :meth:`get_client_update` report identical
        counter totals for identical work.
        """
        with self._locks.lock(("federate", key)):
            cached = self._load_update(key)
        self.stats.record("federate", hit=cached is not None)
        return None if cached is None else _copy_update(cached)

    def store_client_update(self, key: str, update: ClientUpdate) -> ClientUpdate:
        """Store a copy of one computed update; returns ``update`` itself.

        Counterpart of :meth:`peek_client_update` (which already counted
        the miss).  The memo keeps its own copy of the arrays, so the
        caller may go on mutating ``update`` without changing what a later
        hit returns.
        """
        with self._locks.lock(("federate", key)):
            self._save_update(key, update)
        return update

    def _load_update(self, key: str) -> Optional[ClientUpdate]:
        """The memo's update for ``key``, else the disk entry, else ``None``.

        Callers hold the key's lock and must not mutate the result.  A
        disk entry is decoded once, kept in the memo, and deleted when it
        fails to read or decode so the caller recomputes it.
        """
        memo_key = ("federate", key)
        with self._memo_lock:
            cached = self._memo.get(memo_key)
        if cached is not None:
            return cast(ClientUpdate, cached)
        path = self._path("federate", key, ".npz")
        if path is None or not os.path.exists(path):
            return None
        try:
            update = decode_update(_read_bytes(path))
        # repro: allow[REP302] killed-writer/tampered cache entry: recompute, don't crash the sweep
        except Exception:
            # a killed writer predating atomic replace, or manual
            # tampering — recompute rather than crash the sweep
            # (another process may win the same cleanup race)
            with contextlib.suppress(OSError):
                os.remove(path)
            return None
        with self._memo_lock:
            self._memo[memo_key] = update
        return update

    def _save_update(self, key: str, update: ClientUpdate) -> None:
        """Memo a private copy of ``update`` and persist it when
        ``cache_dir`` is set.  Callers hold the key's lock."""
        path = self._path("federate", key, ".npz")
        if path:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = self._path("federate", _tmp_name(key), ".npz")
            _write_bytes(tmp, encode_update(update))
            os.replace(tmp, path)
        with self._memo_lock:
            self._memo[("federate", key)] = _copy_update(update)

    # -- finished cells (resume) ------------------------------------------
    def load_cell(self, key: str) -> Optional[Dict]:
        """A previously stored cell record, or None."""
        path = self._path("cells", key, ".json")
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            # torn or tampered record: recompute rather than crash resume
            with contextlib.suppress(OSError):
                os.remove(path)
            return None

    def store_cell(self, key: str, record: Dict) -> None:
        """Persist one finished cell for later resumption."""
        path = self._path("cells", key, ".json")
        if path is None:
            return
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = self._path("cells", _tmp_name(key), ".json")
        with open(tmp, "w") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)


def _tmp_name(key: str) -> str:
    """Per-process/thread temp basename for one artifact key."""
    return f".tmp-{os.getpid()}-{threading.get_ident()}-{key}"


def _copy_update(update: ClientUpdate) -> ClientUpdate:
    """``update`` with freshly allocated state arrays."""
    return dataclasses.replace(
        update, state={name: np.copy(t) for name, t in update.state.items()}
    )


class RoundCache:
    """Federate-stage cache handle for one sweep cell.

    Built by the engine per federation cell and attached to the
    :class:`~repro.fl.server.FederatedServer`.  Each per-client update is
    keyed on the cell's *training identity* (data key, framework + full
    kwargs, federation schedule, seed, dtype), the client's index and
    attack assignment, the round index, and the **broadcast GM state
    signature** — everything that determines the update bit-for-bit, and
    nothing that doesn't (notably not the aggregation strategy, the
    sweep label or ε for honest clients), so ε-grid / strategy-ablation
    cells that broadcast the same state share their honest-client (and
    for strategy ablations, even malicious) training.

    Only rounds whose broadcast state matches ``shared_signature`` (the
    cell's pre-trained GM — i.e. every federation's first round) are
    cached: later rounds' broadcasts diverge per cell the moment an
    attack differs, so caching them would grow the store without ever
    hitting.  Pass ``shared_signature=None`` to cache every round.

    Args:
        artifacts: The engine's two-layer stage cache.
        base: Cell-identity payload shared by every key.
        client_attacks: Per-client-index attack assignment
            (``[name, ε]`` for malicious indices, ``None`` for honest).
        shared_signature: Broadcast signature gate (see above).
    """

    def __init__(
        self,
        artifacts: ArtifactCache,
        base: Dict[str, object],
        client_attacks: List[Optional[List[object]]],
        shared_signature: Optional[str] = None,
    ):
        self.artifacts = artifacts
        self.base = dict(base)
        self.client_attacks = list(client_attacks)
        self.shared_signature = shared_signature

    def broadcast_signature(self, state: StateDict) -> str:
        """The signature the server hands back to :meth:`get_update`."""
        return state_signature(state)

    def cacheable(self, broadcast_signature: str) -> bool:
        """Whether this round's broadcast passes the signature gate."""
        return (
            self.shared_signature is None
            or broadcast_signature == self.shared_signature
        )

    def _key(
        self, client_index: int, round_index: int, broadcast_signature: str
    ) -> str:
        """Content key for one (client, round, broadcast) triple.

        Deliberately **engine-free**: the serial loop and the batched
        cohort produce bit-identical updates, so a round computed by one
        engine must be a hit for the other.
        """
        return content_key(
            {
                **self.base,
                "client": client_index,
                "attack": self.client_attacks[client_index],
                "round": round_index,
                "broadcast": broadcast_signature,
            }
        )

    def lookup(
        self, client_index: int, round_index: int, broadcast_signature: str
    ) -> Optional[ClientUpdate]:
        """Probe for one client's cached update without computing.

        Non-cacheable rounds return ``None`` and leave the counters
        untouched; cacheable rounds record one federate hit or miss.
        Pair every miss with a :meth:`store` once the update is trained.
        """
        if not self.cacheable(broadcast_signature):
            return None
        return self.artifacts.peek_client_update(
            self._key(client_index, round_index, broadcast_signature)
        )

    def store(
        self,
        client_index: int,
        round_index: int,
        broadcast_signature: str,
        update: ClientUpdate,
    ) -> ClientUpdate:
        """Populate one client's update after a :meth:`lookup` miss.

        Returns ``update`` itself; the cache keeps its own copy.
        Non-cacheable rounds pass ``update`` through unstored.
        """
        if not self.cacheable(broadcast_signature):
            return update
        return self.artifacts.store_client_update(
            self._key(client_index, round_index, broadcast_signature), update
        )

    def get_update(
        self,
        client_index: int,
        round_index: int,
        broadcast_signature: str,
        compute: Callable[[], ClientUpdate],
    ) -> ClientUpdate:
        """The cached update for one (client, round, broadcast) triple,
        computing (and storing) it on a miss.  Non-cacheable rounds (the
        signature gate) fall straight through to ``compute`` and leave
        the hit/miss counters untouched."""
        if not self.cacheable(broadcast_signature):
            return compute()
        key = self._key(client_index, round_index, broadcast_signature)
        update, _ = self.artifacts.get_client_update(key, compute)
        return update


def encode_update(update: ClientUpdate) -> bytes:
    """A :class:`ClientUpdate` as one compressed ``.npz`` byte string
    (state tensors plus a JSON metadata record) — the federate cache's
    on-disk format; :func:`decode_update` inverts it exactly."""
    arrays: Dict[str, np.ndarray] = {
        f"state.{name}": tensor for name, tensor in update.state.items()
    }
    meta = {
        "client_name": update.client_name,
        "num_samples": int(update.num_samples),
        "train_loss": float(update.train_loss),
        "flagged_poisoned": int(update.flagged_poisoned),
        "is_malicious": bool(update.is_malicious),
    }
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    ).copy()
    return state_to_bytes(arrays)


def decode_update(data: bytes) -> ClientUpdate:
    """Rebuild a :class:`ClientUpdate` from :func:`encode_update` bytes."""
    arrays = state_from_bytes(data)
    meta = json.loads(bytes(arrays.pop("meta")))
    prefix = "state."
    state = {
        name[len(prefix):]: tensor
        for name, tensor in arrays.items()
        if name.startswith(prefix)
    }
    return ClientUpdate(state=state, **meta)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


def _save_datasets(
    path: str,
    bundle: Tuple[FingerprintDataset, Dict[str, FingerprintDataset]],
) -> None:
    train, tests = bundle
    arrays: Dict[str, np.ndarray] = {
        "train.features": train.features,
        "train.labels": train.labels,
    }
    meta = {"building": train.building, "train_device": train.device,
            "test_devices": sorted(tests)}
    for device, dataset in tests.items():
        arrays[f"test.{device}.features"] = dataset.features
        arrays[f"test.{device}.labels"] = dataset.labels
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    ).copy()
    np.savez_compressed(path, **arrays)


def _load_datasets(
    path: str,
) -> Tuple[FingerprintDataset, Dict[str, FingerprintDataset]]:
    with np.load(path) as archive:
        meta = json.loads(bytes(archive["meta"]).decode())
        train = FingerprintDataset(
            archive["train.features"],
            archive["train.labels"],
            building=meta["building"],
            device=meta["train_device"],
        )
        tests = {
            device: FingerprintDataset(
                archive[f"test.{device}.features"],
                archive[f"test.{device}.labels"],
                building=meta["building"],
                device=device,
            )
            for device in meta["test_devices"]
        }
    return train, tests
