"""One timing policy and one result record for the ``test_perf_*`` benches.

Timing: :func:`time_sides` runs an untimed warm-up, then times ``K``
repetitions of every compared side, rotating which side runs first so a
slow start or a load drift does not always land on the same side.  Each
repetition yields one sample per side, so sides compare pair by pair
(:meth:`Timing.ratios`) and every floor is judged on the median of those
pairs, with the interquartile range recorded beside it.

Record: :func:`write_record` writes ``{bench, env, params, samples, median,
iqr, ...}`` whole to ``benchmarks/results/latest/<bench>.json``, which git
ignores.  The committed ``benchmarks/results/<bench>.json`` baselines change
only when someone copies a fresh record up one level on purpose.  The
environment stamp (CPUs usable by this process, numpy and BLAS, git sha,
load average) comes from the repository benchmark's ``perfbench/common.py``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
LATEST_DIR = Path(__file__).resolve().parent / "results" / "latest"
#: Repetitions per bench: the median of three pairs outvotes one disturbed run.
K = 3

if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))
from perfbench.common import env_stamp, load_average, median, percentile  # noqa: E402


@dataclass
class Timing:
    """Wall seconds of each side per repetition, and each side's last result."""

    seconds: Dict[str, List[float]]
    results: Dict[str, Any]

    def ratios(self, baseline: str, candidate: str) -> List[float]:
        """Per-repetition speedup of *candidate* over *baseline*."""
        return [
            slow / fast
            for slow, fast in zip(self.seconds[baseline], self.seconds[candidate])
        ]


def rotation(names: Sequence[str], repetition: int) -> List[str]:
    """Order the sides run in at *repetition*: shifted by one each time."""
    shift = repetition % len(names)
    return list(names[shift:]) + list(names[:shift])


def time_sides(
    sides: Dict[str, Callable[[], Any]],
    warmup: Optional[Callable[[], Any]] = None,
) -> Timing:
    """Warm up off the clock, then time ``K`` rotated repetitions of *sides*.

    The warm-up runs *warmup* once, or every side once when it is ``None``;
    a bench whose baseline is slow names a cheaper warm-up instead.
    """
    for run in [warmup] if warmup is not None else sides.values():
        run()
    seconds: Dict[str, List[float]] = {name: [] for name in sides}
    results: Dict[str, Any] = {}
    for repetition in range(K):
        for name in rotation(list(sides), repetition):
            start = time.perf_counter()
            results[name] = sides[name]()
            seconds[name].append(time.perf_counter() - start)
    return Timing(seconds, results)


def iqr(values: Sequence[float]) -> float:
    """Interquartile range (75th minus 25th percentile) of *values*."""
    return percentile(values, 75.0) - percentile(values, 25.0)


def write_record(
    bench: str,
    params: Dict[str, Any],
    samples: Dict[str, List[float]],
    **extra: Any,
) -> Dict[str, Any]:
    """Write one bench's record to ``results/latest/<bench>.json`` and return it.

    *samples* maps each measured series (seconds of a side, a per-pair
    ratio, a normalized cost) to its per-repetition values; the record
    carries their medians and IQRs next to them.
    """
    record = {
        "bench": bench,
        "env": {**env_stamp(ROOT), "load_average": load_average()},
        "params": params,
        "samples": samples,
        "median": {name: median(values) for name, values in samples.items()},
        "iqr": {name: iqr(values) for name, values in samples.items()},
        **extra,
    }
    LATEST_DIR.mkdir(parents=True, exist_ok=True)
    (LATEST_DIR / f"{bench}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def assert_at_least(record: Dict[str, Any], series: str, floor: float) -> None:
    """Fail unless the median of *series* in *record* reaches *floor*."""
    value = record["median"][series]
    assert value >= floor, (
        f"{record['bench']}: median {series} {value:.2f} is below the floor "
        f"{floor:.2f} (samples {[round(v, 2) for v in record['samples'][series]]}, "
        f"IQR {record['iqr'][series]:.2f}, nproc {record['env']['nproc']}, "
        f"load {record['env']['load_average']})"
    )
