"""Snapshot discovery, checksum validation, and warm-model caching.

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
* **warmth** — decoded models are kept in a bounded LRU cache
  (:data:`MAX_WARM_MODELS`), so building a serving pipeline for another
  mode of a served model does not touch the filesystem.

Built serving sessions are not cached here: the service keeps one warm
pipeline (session plus micro-batch scheduler) per ``(model, mode)`` pair,
checked against :attr:`SnapshotEntry.checksums` on every request.

All public methods are thread-safe; HTTP handler threads share one
registry.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

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

#: Decoded models kept in memory; the least recently used beyond that is
#: dropped (and decoded again, checksums verified, on its next load).
MAX_WARM_MODELS = 4


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
    """Directory of trained-model snapshots with a warm-model cache.

    Parameters
    ----------
    root:
        Directory holding the snapshots (created if missing).

    A cached model always belongs to its name's current entry: a
    re-registration replaces it, and a re-scan that finds new checksums
    drops it.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._entries: Dict[str, SnapshotEntry] = {}
        self._models: "OrderedDict[str, TrainedModel]" = OrderedDict()
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
        snapshots dropped in by hand get no tag.  Warm models of entries
        whose checksums changed are dropped.  The service re-scans on
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
                    self._models.pop(name, None)
            for name in list(self._entries):
                if name not in discovered:
                    self._models.pop(name, None)
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
            entry = self._index_snapshot(npz_path)
            assert entry is not None  # we just wrote a well-formed snapshot
            self._entries[name] = entry
            self._models[name] = model
            self._models.move_to_end(name)
            self._trim_models()
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
        model (and the service's warm pipelines) until the re-registration
        swaps it out; readers never observe a torn snapshot.

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

    def _trim_models(self) -> None:
        while len(self._models) > MAX_WARM_MODELS:
            evicted, _ = self._models.popitem(last=False)
            _LOGGER.info("evicting warm model %r (LRU)", evicted)

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
        """Return the decoded model, verifying checksums on a cold load."""
        return self.load_with_entry(name)[1]

    def load_with_entry(self, name: str) -> Tuple[SnapshotEntry, TrainedModel]:
        """The entry registered under *name* and the model decoded from it.

        The pair is consistent: the model is the one whose snapshot carries
        the entry's checksums, which is what lets a caller key its own
        caches by ``entry.checksums``.  The expensive work — re-hashing both
        files and decoding the arrays — happens outside the registry lock,
        so a cold load never stalls lookups or warm requests for other
        models.  A cold load that a re-registration overtook is decoded
        again from the new entry; two threads racing the same cold load may
        both decode, and the loser adopts the model the winner cached.
        """
        while True:
            with self._lock:
                entry = self._entries.get(name)
                if entry is None:
                    raise ModelNotFoundError(
                        f"no registered model named {name!r}; "
                        f"available: {sorted(self._entries)}"
                    )
                cached = self._models.get(name)
                if cached is not None:
                    self._models.move_to_end(name)
                    return entry, cached
            entry.verify()
            model = TrainedModel.load(entry.npz_path)
            with self._lock:
                current = self._entries.get(name)
                if current is None or current.checksums != entry.checksums:
                    continue
                model = self._models.setdefault(name, model)
                self._models.move_to_end(name)
                self._trim_models()
                return current, model

    # ------------------------------------------------------------------ #
    @property
    def warm_model_count(self) -> int:
        """Number of decoded models currently cached."""
        with self._lock:
            return len(self._models)

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-friendly listing of all entries, each with its ``warm`` flag."""
        with self._lock:
            return [
                {**entry.to_dict(), "warm": entry.name in self._models}
                for entry in sorted(
                    self._entries.values(), key=lambda item: item.name
                )
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ModelRegistry(root={str(self.root)!r}, models={len(self)})"
