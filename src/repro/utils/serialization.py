"""Lightweight persistence for experiment results and model snapshots.

Three formats cover every artefact the library writes:

* plain JSON (:func:`save_json` / :func:`load_json`) — benchmark outputs
  and model metadata, inspectable and diffable without binary tooling;
* NumPy ``.npz`` archives (:func:`save_npz` / :func:`load_npz`) — the
  array payload of trained-model snapshots that campaign workers load
  instead of retraining;
* append-only JSON lines (:func:`append_jsonl` / :func:`read_jsonl`) —
  the campaign result store, where each finished sweep cell is streamed
  out as one self-contained record so a killed run loses at most the
  line being written.

NumPy scalars and arrays are converted to native Python types on the way
out of the JSON writers.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Union

import numpy as np

__all__ = [
    "numpy_to_native",
    "save_json",
    "load_json",
    "save_npz",
    "load_npz",
    "append_jsonl",
    "read_jsonl",
]

PathLike = Union[str, Path]

# mkstemp creates temp files 0600; atomically replaced files must instead get
# the permissions a plain open() would have produced.  The umask is read once
# at import (reading requires a set/restore round trip, which is process-global
# and would race concurrent writers if done per call).
_UMASK = os.umask(0)
os.umask(_UMASK)


def numpy_to_native(obj: Any) -> Any:
    """Recursively convert NumPy containers/scalars into JSON-safe values.

    Handles nested dictionaries, lists, tuples, NumPy arrays, NumPy scalar
    types and leaves native Python values untouched.  Dictionary keys are
    converted to strings when they are NumPy scalars so the result is always
    JSON-serialisable.
    """
    if isinstance(obj, dict):
        return {_native_key(key): numpy_to_native(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [numpy_to_native(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return numpy_to_native(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _native_key(key: Any) -> Any:
    if isinstance(key, (np.integer, np.floating, np.bool_)):
        return str(key)
    return key


@contextmanager
def _atomic_write(path: Path, mode: str) -> Iterator[Any]:
    """Write to a temp file in *path*'s directory, then ``os.replace`` it in.

    Readers — the model registry, campaign pool workers — either see the
    previous complete file or the new complete file, never a torn mixture: a
    writer killed mid-write leaves only an orphaned ``*.tmp`` file behind.
    The payload is flushed and fsynced before the rename so the replacement
    is durable, not merely atomic.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        if hasattr(os, "fchmod"):  # absent on Windows; 0600 is acceptable there
            os.fchmod(descriptor, 0o666 & ~_UMASK)
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(descriptor, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:  # pragma: no cover - already replaced or removed
            pass
        raise


def save_json(data: Any, path: PathLike, indent: int = 2) -> Path:
    """Serialise *data* to JSON at *path*, creating parent directories.

    The write is atomic (temp file + rename), so a killed process can never
    leave a torn JSON document for a later reader to choke on.  Returns the
    resolved :class:`~pathlib.Path` the data was written to.
    """
    path = Path(path)
    with _atomic_write(path, "w") as handle:
        json.dump(numpy_to_native(data), handle, indent=indent, sort_keys=False)
        handle.write("\n")
    return path


def load_json(path: PathLike) -> Any:
    """Load JSON previously written by :func:`save_json`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such results file: {path}")
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def save_npz(arrays: Mapping[str, np.ndarray], path: PathLike) -> Path:
    """Write named arrays to a compressed ``.npz`` archive at *path*.

    Parent directories are created as needed; the resolved path (with the
    ``.npz`` suffix NumPy enforces) is returned.  Like :func:`save_json` the
    write is atomic — the archive is assembled in a temp file and renamed
    into place — so registry discovery and pool workers can never load a
    half-written snapshot.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    with _atomic_write(path, "wb") as handle:
        # Writing through the handle (not the path) stops numpy from
        # appending another .npz suffix to the temp file name.
        np.savez_compressed(
            handle, **{str(k): np.asarray(v) for k, v in arrays.items()}
        )
    return path


def load_npz(path: PathLike) -> Dict[str, np.ndarray]:
    """Load a ``.npz`` archive written by :func:`save_npz` into a dict."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such array archive: {path}")
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name].copy() for name in archive.files}


def append_jsonl(record: Any, path: PathLike) -> Path:
    """Append one JSON record as a single line to *path* (created if absent).

    The line is flushed and fsynced before returning so that a process
    killed right after the call leaves a complete, replayable record on
    disk — the property the campaign store's resume logic relies on.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(numpy_to_native(record), sort_keys=False)
    if "\n" in line:  # pragma: no cover - json.dumps never emits newlines
        raise ValueError("JSONL records must serialise to a single line")
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    return path


def read_jsonl(path: PathLike, tolerate_truncated_tail: bool = True) -> List[Any]:
    """Read every record of a JSON-lines file written by :func:`append_jsonl`.

    Parameters
    ----------
    path:
        File to read; a missing file raises :class:`FileNotFoundError`.
    tolerate_truncated_tail:
        When true (default) a final line that does not parse — the footprint
        of a writer killed mid-append — is silently dropped.  A malformed
        line anywhere *before* the tail always raises ``ValueError``, since
        that indicates real corruption rather than an interrupted append.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such JSONL file: {path}")
    records: List[Any] = []
    with path.open("r", encoding="utf-8") as handle:
        lines = handle.readlines()
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            records.append(json.loads(stripped))
        except json.JSONDecodeError:
            if tolerate_truncated_tail and index == len(lines) - 1:
                break
            raise ValueError(f"corrupt JSONL record at {path}:{index + 1}")
    return records
