"""Helpers shared by the benchmark workloads.

Percentiles, canonical digests, peak memory and the environment stamp that
every result records.  Nothing here imports the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Environment variables the program or its BLAS read.  The benchmark only
#: records them; it never sets one.
RECORDED_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "SOFTSNN_AUTOTUNE",
    "SOFTSNN_KERNEL_BACKEND",
    "SOFTSNN_TELEMETRY",
    "SOFTSNN_TRACE",
)


@dataclass
class Outcome:
    """What one run measured and whether the program's outputs were right.

    An *operation* is the unit a workload counts attempts and failures in
    (campaign cells, evaluations, requests); *work* is the unit of its
    throughput.  Every operation recorded through :meth:`record_op` must
    reproduce the first one's output digest.
    """

    attempted: int = 0
    failed: int = 0
    work: float = 0.0
    seconds: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    op_rates: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    reference: Optional[str] = None
    #: Chunk size the serving process's autotuner chose (report only).
    autotune_batch: Optional[float] = None

    def record_op(
        self,
        seconds: float,
        work: float,
        attempted: int,
        op_digest: str,
        problems: Sequence[str] = (),
    ) -> None:
        self.seconds += seconds
        self.work += work
        self.attempted += attempted
        self.latencies_s.append(seconds)
        self.op_rates.append(work / seconds)
        problems = list(problems)
        if self.reference is None:
            self.reference = op_digest
        elif op_digest != self.reference:
            problems.append(f"output digest {op_digest} != first {self.reference}")
        if problems:
            self.failed += attempted
            self.problems.extend(problems)

    def throughput(self) -> float:
        """Median work per second over the operations, else over the run."""
        if self.op_rates:
            return median(self.op_rates)
        return self.work / self.seconds if self.seconds > 0 else 0.0

    def fail_all(self, problem: str) -> None:
        self.failed = self.attempted
        self.problems.append(problem)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile *q* (0-100) of *values*."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def digest(payload: object) -> str:
    """Short SHA-256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process and of every child it reaped, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def source_digest(root: Path) -> str:
    """Digest of the library sources, the build identity when git is absent."""
    sha = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sha.update(str(path.relative_to(root)).encode("utf-8"))
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def blas_info() -> Dict[str, object]:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown"}
    return {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
    }


def env_stamp(root: Path) -> Dict[str, object]:
    """Machine, library and knob state a result was measured under."""
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "env": {name: os.environ.get(name) for name in RECORDED_ENV},
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "platform": platform.platform(),
    }


def stop_helper_processes() -> None:
    """Stop multiprocessing's helper processes and wait for each to end.

    The campaign pool's shared memory starts the resource tracker (and a
    forkserver start method would start a fork server).  Left alone, each
    outlives this process, ends only after it and is never reaped.
    """
    from multiprocessing import forkserver, resource_tracker

    resource_tracker._resource_tracker._stop()
    forkserver._forkserver._stop()


def load_average() -> List[float]:
    return [round(value, 3) for value in os.getloadavg()]


def log(message: str) -> None:
    """Progress line on stderr (stdout carries the report and the result)."""
    print(message, file=sys.stderr, flush=True)
