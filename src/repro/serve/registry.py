"""Snapshot discovery, checksum validation, and warm-session caching.

The registry is the serving layer's view onto a directory of
:class:`~repro.snn.training.TrainedModel` snapshots (the ``.npz`` + ``.json``
pairs written by ``TrainedModel.save``, the same artefacts campaign workers
consume).  It adds three things a long-running service needs that the
offline loaders do not:

* **discovery** — ``refresh()`` scans the directory and indexes every
  well-formed snapshot by name, so models can be dropped in (or re-trained
  in place, atomically, thanks to the temp-file + rename writers) while the
  service runs;
* **integrity** — SHA-256 checksums of both snapshot files are recorded at
  registration (in a ``.registry.json`` sidecar) or at discovery, and
  re-verified on every cold load, so a torn or tampered snapshot is refused
  with :class:`SnapshotIntegrityError` instead of silently serving garbage;
* **warmth** — loaded models and built
  :class:`~repro.serve.modes.ServingSession` instances (the mode's planned
  engine row, encoder and class votes) are kept in bounded LRU caches, so
  the steady-state request path never touches the filesystem or re-draws
  fault maps.

All public methods are thread-safe; HTTP handler threads and scheduler
workers share one registry.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.serve.modes import ServingMode, ServingSession, build_session
from repro.snn.encoding import DEFAULT_ENCODING
from repro.snn.models import DEFAULT_NEURON_MODEL
from repro.snn.training import TrainedModel, TrainingConfig, TrainingRunner
from repro.utils.logging import get_logger
from repro.utils.serialization import load_json, save_json

__all__ = [
    "RegistryError",
    "SnapshotIntegrityError",
    "ModelNotFoundError",
    "SnapshotEntry",
    "ModelRegistry",
]

_LOGGER = get_logger("serve.registry")

#: Suffix of the registry sidecar carrying workload tags and checksums.
SIDECAR_SUFFIX = ".registry.json"


class RegistryError(RuntimeError):
    """Base class of registry failures."""


class SnapshotIntegrityError(RegistryError):
    """A snapshot's bytes no longer match its recorded checksums."""


class ModelNotFoundError(RegistryError, KeyError):
    """No registered model matches the requested name / filters."""

    # KeyError.__str__ returns repr(args[0]), which would wrap the message
    # in spurious quotes in HTTP error bodies.
    __str__ = RuntimeError.__str__


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class SnapshotEntry:
    """One discovered snapshot: identity, shape metadata, and checksums."""

    name: str
    npz_path: Path
    json_path: Path
    n_inputs: int
    n_neurons: int
    timesteps: int
    workload: Optional[str] = None
    checksums: Dict[str, str] = field(default_factory=dict)
    neuron_model: str = DEFAULT_NEURON_MODEL
    encoding: str = DEFAULT_ENCODING

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly entry description for ``GET /models``."""
        return {
            "name": self.name,
            "workload": self.workload,
            "n_inputs": self.n_inputs,
            "n_neurons": self.n_neurons,
            "timesteps": self.timesteps,
            "neuron_model": self.neuron_model,
            "encoding": self.encoding,
            "checksums": dict(self.checksums),
        }

    def verify(self) -> None:
        """Re-hash both snapshot files against the recorded checksums."""
        for key, path in (("npz", self.npz_path), ("json", self.json_path)):
            expected = self.checksums.get(key)
            if expected is None:
                continue
            if not path.exists():
                raise SnapshotIntegrityError(
                    f"model {self.name!r}: snapshot file {path} disappeared"
                )
            actual = _sha256(path)
            if actual != expected:
                raise SnapshotIntegrityError(
                    f"model {self.name!r}: {path.name} checksum mismatch "
                    f"(expected {expected[:12]}…, found {actual[:12]}…); "
                    "the snapshot was modified or torn after registration"
                )


class ModelRegistry:
    """Directory of trained-model snapshots with warm serving caches.

    Parameters
    ----------
    root:
        Directory holding the snapshots (created if missing).
    max_warm_models:
        Maximum number of decoded :class:`TrainedModel` objects kept in
        memory (LRU-evicted beyond that).
    max_warm_sessions:
        Maximum number of built serving sessions — each a warm one-row
        :class:`~repro.snn.engine.MapParallelEngine` — kept across all
        ``(model, mode)`` pairs.
    """

    def __init__(
        self,
        root: Union[str, Path],
        max_warm_models: int = 4,
        max_warm_sessions: int = 8,
    ) -> None:
        if max_warm_models < 1 or max_warm_sessions < 1:
            raise ValueError("warm-cache capacities must be at least 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_warm_models = int(max_warm_models)
        self.max_warm_sessions = int(max_warm_sessions)
        self._lock = threading.RLock()
        self._entries: Dict[str, SnapshotEntry] = {}
        self._models: "OrderedDict[str, TrainedModel]" = OrderedDict()
        self._sessions: "OrderedDict[Tuple[str, Tuple], ServingSession]" = (
            OrderedDict()
        )
        self.refresh()

    # ------------------------------------------------------------------ #
    # discovery & registration
    # ------------------------------------------------------------------ #
    def refresh(self) -> List[str]:
        """Re-scan the root directory; returns the sorted registered names.

        A snapshot is every ``<name>.npz`` with a parseable ``<name>.json``
        sidecar of the supported format.  Checksums are computed from the
        current file bytes, so a snapshot atomically re-written in place
        (a re-train) is adopted — with a warning when it no longer matches
        the checksums its ``.registry.json`` sidecar recorded at
        registration.  The sidecar contributes the workload tag; bare
        snapshots dropped in by hand get no tag.  Warm caches of entries
        whose checksums changed are invalidated.  The service re-scans on
        ``GET /models`` and when a requested name is unknown.
        """
        with self._lock:
            discovered: Dict[str, SnapshotEntry] = {}
            for npz_path in sorted(self.root.glob("*.npz")):
                entry = self._index_snapshot(npz_path)
                if entry is not None:
                    discovered[entry.name] = entry
            for name, entry in discovered.items():
                old = self._entries.get(name)
                if old is not None and old.checksums != entry.checksums:
                    self._evict(name)
            for name in list(self._entries):
                if name not in discovered:
                    self._evict(name)
            self._entries = discovered
            return sorted(discovered)

    def _index_snapshot(self, npz_path: Path) -> Optional[SnapshotEntry]:
        if "." in npz_path.stem:
            # TrainedModel.load resolves sidecars via Path.with_suffix,
            # which mis-resolves dotted stems ("model.v2" -> "model.json");
            # refuse to adopt such snapshots rather than load wrong files.
            _LOGGER.warning(
                "skipping snapshot %s: dotted name is not loadable", npz_path
            )
            return None
        json_path = npz_path.with_suffix(".json")
        if not json_path.exists():
            return None
        try:
            metadata = load_json(json_path)
        except ValueError:
            _LOGGER.warning("skipping unparseable snapshot sidecar %s", json_path)
            return None
        if (
            not isinstance(metadata, dict)
            or metadata.get("format") != TrainedModel.SNAPSHOT_FORMAT
            or "network_config" not in metadata
        ):
            return None
        config = metadata["network_config"]
        sidecar_path = npz_path.with_name(npz_path.stem + SIDECAR_SUFFIX)
        workload: Optional[str] = None
        checksums = {"npz": _sha256(npz_path), "json": _sha256(json_path)}
        if sidecar_path.exists():
            try:
                sidecar = load_json(sidecar_path)
                workload = sidecar.get("workload")
                recorded = sidecar.get("sha256")
                if isinstance(recorded, dict) and {
                    str(k): str(v) for k, v in recorded.items()
                } != checksums:
                    _LOGGER.warning(
                        "snapshot %s was re-written since registration; "
                        "adopting its current checksums",
                        npz_path,
                    )
            except ValueError:
                _LOGGER.warning(
                    "ignoring unparseable registry sidecar %s", sidecar_path
                )
        return SnapshotEntry(
            name=npz_path.stem,
            npz_path=npz_path,
            json_path=json_path,
            n_inputs=int(config["n_inputs"]),
            n_neurons=int(config["n_neurons"]),
            timesteps=int(config["timesteps"]),
            workload=workload,
            checksums=checksums,
            # Snapshots predating the neuron-model zoo carry no model or
            # encoding fields and serve as the default LIF/Poisson pair.
            neuron_model=str(config.get("neuron_model", DEFAULT_NEURON_MODEL)),
            encoding=str(config.get("encoding", DEFAULT_ENCODING)),
        )

    def register(
        self,
        model: TrainedModel,
        name: str,
        workload: Optional[str] = None,
    ) -> SnapshotEntry:
        """Persist *model* under *name* and index it.

        Writes the snapshot (atomically — see
        :func:`repro.utils.serialization.save_npz`), records SHA-256
        checksums plus the workload tag in the registry sidecar, and primes
        the warm-model cache so the first request does not pay a reload.
        """
        # Dots are rejected because the snapshot writers derive file names
        # via Path.with_suffix, which would truncate "model.v2" to
        # "model.npz" and silently overwrite another model's snapshot.
        if not name or any(sep in name for sep in ("/", "\\", ".")):
            raise ValueError(
                f"invalid model name: {name!r} "
                "(must be non-empty, without path separators or dots)"
            )
        base = self.root / name
        npz_path = model.save(base)
        json_path = base.with_suffix(".json")
        checksums = {"npz": _sha256(npz_path), "json": _sha256(json_path)}
        save_json(
            {"workload": workload, "sha256": checksums},
            base.with_name(name + SIDECAR_SUFFIX),
        )
        with self._lock:
            self._evict(name)
            entry = self._index_snapshot(npz_path)
            assert entry is not None  # we just wrote a well-formed snapshot
            self._entries[name] = entry
            self._models[name] = model
            self._trim_caches()
            return entry

    def retrain(
        self,
        name: str,
        train_set,
        training_config: TrainingConfig,
        rng=None,
    ) -> SnapshotEntry:
        """Retrain a registered model in place and republish it atomically.

        The hot-retraining path of a long-running service: the existing
        snapshot's network configuration is reused (read from the metadata
        sidecar — the stored model is neither decoded nor warm-cached, as
        it is about to be replaced), a fresh model is trained on
        *train_set* (through the vectorized training engine, which is
        what makes in-place retrains cheap enough to do live), and the
        snapshot files are rewritten through the atomic temp-file + rename
        writers.  Concurrent requests keep being served from the warm
        caches until the re-registration swaps them out; readers never
        observe a torn snapshot.

        Parameters
        ----------
        name:
            Registered model to retrain.
        train_set:
            Labelled training dataset
            (:class:`~repro.data.datasets.Dataset`) matching the model's
            input dimension.
        training_config:
            Training hyper-parameters.  Required — snapshots do not record
            how they were trained, so silently falling back to stock
            hyper-parameters could swap the model's learning algorithm;
            the caller must state the rule a refresh uses.
        rng:
            Seed or generator for the training run.

        Returns
        -------
        SnapshotEntry
            The freshly registered entry (new checksums, same name and
            workload tag).

        Raises
        ------
        ModelNotFoundError
            If no model is registered under *name*.
        SnapshotIntegrityError
            If the snapshot bytes no longer match the recorded checksums —
            retraining from a tampered sidecar would launder the
            corruption into a freshly checksummed snapshot.
        ValueError
            If the dataset does not match the model's input dimension.
        """
        entry = self.entry(name)
        entry.verify()
        network_config = TrainedModel.load_network_config(entry.json_path)
        runner = TrainingRunner(network_config, training_config)
        retrained = runner.train(train_set, rng=rng)
        _LOGGER.info(
            "retrained model %r in place (%d samples)", name, len(train_set)
        )
        return self.register(retrained, name, workload=entry.workload)

    def _evict(self, name: str) -> None:
        self._models.pop(name, None)
        for key in [k for k in self._sessions if k[0] == name]:
            del self._sessions[key]

    def _trim_caches(self) -> None:
        while len(self._models) > self.max_warm_models:
            evicted, _ = self._models.popitem(last=False)
            _LOGGER.info("evicting warm model %r (LRU)", evicted)
        while len(self._sessions) > self.max_warm_sessions:
            (evicted, mode_key), _ = self._sessions.popitem(last=False)
            _LOGGER.info(
                "evicting warm session %r / %s (LRU)", evicted, mode_key[0]
            )

    # ------------------------------------------------------------------ #
    # lookup & loading
    # ------------------------------------------------------------------ #
    def names(self) -> List[str]:
        """Sorted names of all registered models."""
        with self._lock:
            return sorted(self._entries)

    def entry(self, name: str) -> SnapshotEntry:
        """The snapshot entry registered under *name*."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                raise ModelNotFoundError(
                    f"no registered model named {name!r}; "
                    f"available: {sorted(self._entries)}"
                ) from None

    def find(
        self,
        workload: Optional[str] = None,
        n_neurons: Optional[int] = None,
    ) -> List[SnapshotEntry]:
        """Entries matching the given workload and/or network size."""
        with self._lock:
            entries = [
                entry
                for entry in self._entries.values()
                if (workload is None or entry.workload == workload)
                and (n_neurons is None or entry.n_neurons == int(n_neurons))
            ]
        return sorted(entries, key=lambda entry: entry.name)

    def resolve(
        self,
        name: Optional[str] = None,
        workload: Optional[str] = None,
        n_neurons: Optional[int] = None,
    ) -> SnapshotEntry:
        """Pick one model by name, or by ``workload`` / ``n_neurons`` filters.

        Without a name, exactly the filtered candidates are considered; a
        single registered model is returned unconditionally, and an
        ambiguous filter picks the first name in sorted order (documented,
        deterministic — the service echoes the resolved name back).
        """
        if name is not None:
            return self.entry(name)
        candidates = self.find(workload=workload, n_neurons=n_neurons)
        if not candidates:
            raise ModelNotFoundError(
                f"no registered model matches workload={workload!r}, "
                f"n_neurons={n_neurons!r}; available: {self.names()}"
            )
        return candidates[0]

    def load(self, name: str) -> TrainedModel:
        """Return the decoded model, verifying checksums on a cold load.

        The expensive work — re-hashing both files and decoding the arrays
        — happens outside the registry lock, so a cold load never stalls
        lookups or warm requests for other models.  Two threads racing the
        same cold load may both decode; the first insert wins and the loser
        adopts it, keeping the cached object unique per name.
        """
        with self._lock:
            cached = self._models.get(name)
            if cached is not None:
                self._models.move_to_end(name)
                return cached
            entry = self._entries.get(name)
        if entry is None:
            raise ModelNotFoundError(
                f"no registered model named {name!r}; available: {self.names()}"
            )
        entry.verify()
        model = TrainedModel.load(entry.npz_path)
        with self._lock:
            existing = self._models.get(name)
            if existing is not None:
                self._models.move_to_end(name)
                return existing
            self._models[name] = model
            self._trim_caches()
            return model

    def session(self, name: str, mode: ServingMode) -> ServingSession:
        """Warm serving session for ``(name, mode)`` (built on first use).

        Like :meth:`load`, session construction (fault-map draw, row
        planning, engine build) runs outside the lock; a racing build adopts the session
        another thread inserted first, so callers can rely on object
        identity to detect that a session was rebuilt.
        """
        key = (name, mode.cache_key)
        with self._lock:
            cached = self._sessions.get(key)
            if cached is not None:
                self._sessions.move_to_end(key)
                return cached
        model = self.load(name)
        session = build_session(model, mode)
        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                self._sessions.move_to_end(key)
                return existing
            self._sessions[key] = session
            self._trim_caches()
            return session

    # ------------------------------------------------------------------ #
    @property
    def warm_model_count(self) -> int:
        """Number of decoded models currently cached."""
        with self._lock:
            return len(self._models)

    @property
    def warm_session_count(self) -> int:
        """Number of built serving sessions currently cached."""
        with self._lock:
            return len(self._sessions)

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-friendly listing of all entries (for ``GET /models``)."""
        with self._lock:
            warm_models = set(self._models)
            warm_modes: Dict[str, List[Dict[str, Any]]] = {}
            for (name, _), session in self._sessions.items():
                warm_modes.setdefault(name, []).append(session.mode.to_dict())
            return [
                {
                    **entry.to_dict(),
                    "warm": entry.name in warm_models,
                    "warm_modes": warm_modes.get(entry.name, []),
                }
                for entry in sorted(
                    self._entries.values(), key=lambda item: item.name
                )
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelRegistry(root={str(self.root)!r}, models={len(self)})"
