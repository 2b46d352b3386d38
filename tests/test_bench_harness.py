"""Tests for the perf-bench harness (``benchmarks/_harness.py``).

The harness owns the timing policy (untimed warm-up, rotated repetitions,
per-pair ratios judged on their median) and the one record schema every
``benchmarks/test_perf_*.py`` writes.  These tests drive it on a fake
clock, so they check the policy without timing anything real.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

REPO = Path(__file__).resolve().parents[1]
if str(REPO / "benchmarks") not in sys.path:
    sys.path.append(str(REPO / "benchmarks"))
import _harness as harness  # noqa: E402


@pytest.fixture()
def fake_clock(monkeypatch):
    """A clock that only moves when a side says how long it took."""
    clock = SimpleNamespace(now=0.0, calls=[])
    monkeypatch.setattr(
        harness, "time", SimpleNamespace(perf_counter=lambda: clock.now)
    )

    def side(name, durations):
        durations = iter(durations)

        def run():
            clock.calls.append(name)
            clock.now += next(durations)
            return name

        return run

    clock.side = side
    return clock


def test_sides_rotate_after_a_warmup_of_every_side(fake_clock):
    sides = {
        "a": fake_clock.side("a", [9.0, 4.0, 6.0, 5.0]),
        "b": fake_clock.side("b", [9.0, 1.0, 1.0, 1.0]),
        "c": fake_clock.side("c", [9.0, 2.0, 2.0, 2.0]),
    }
    assert harness.K == 3
    timing = harness.time_sides(sides)

    warmup, timed = fake_clock.calls[:3], fake_clock.calls[3:]
    assert warmup == ["a", "b", "c"]
    assert timed == ["a", "b", "c", "b", "c", "a", "c", "a", "b"]
    assert [harness.rotation("abc", r) for r in range(4)] == [
        ["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"], ["a", "b", "c"],
    ]
    # The warm-up stays off the clock; each repetition is one sample.
    assert timing.seconds == {
        "a": [4.0, 6.0, 5.0], "b": [1.0, 1.0, 1.0], "c": [2.0, 2.0, 2.0],
    }
    assert timing.results == {"a": "a", "b": "b", "c": "c"}

    ratios = timing.ratios("a", "b")
    assert ratios == [4.0, 6.0, 5.0]
    assert harness.median(ratios) == 5.0
    assert harness.iqr(ratios) == pytest.approx(1.0)


def test_a_named_warmup_replaces_the_per_side_one(fake_clock):
    sides = {"slow": fake_clock.side("slow", [8.0, 7.0, 9.0])}
    warmup = fake_clock.side("warm", [3.0])
    timing = harness.time_sides(sides, warmup=warmup)
    assert fake_clock.calls == ["warm", "slow", "slow", "slow"]
    assert timing.seconds == {"slow": [8.0, 7.0, 9.0]}


def test_record_schema_and_env_stamp(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "LATEST_DIR", tmp_path / "latest")
    record = harness.write_record(
        "perf_probe",
        {"n_cells": 3},
        {"serial_s": [2.0, 4.0, 3.0], "speedup": [1.0, 2.0, 4.0]},
        reports={"note": "extra keys ride along"},
    )

    written = json.loads((tmp_path / "latest" / "perf_probe.json").read_text())
    assert written == record
    assert {"bench", "env", "params", "samples", "median", "iqr"} <= set(record)
    assert record["bench"] == "perf_probe"
    assert record["params"] == {"n_cells": 3}
    assert record["samples"]["speedup"] == [1.0, 2.0, 4.0]
    assert record["median"] == {"serial_s": 3.0, "speedup": 2.0}
    assert record["iqr"]["speedup"] == pytest.approx(3.0 - 1.5)
    assert record["reports"] == {"note": "extra keys ride along"}
    env = record["env"]
    assert {"nproc", "numpy", "blas", "git_sha", "load_average"} <= set(env)
    assert env["nproc"] >= 1 and len(env["load_average"]) == 3


def test_floor_is_judged_on_the_median():
    record = {
        "bench": "perf_probe",
        "env": {"nproc": 2, "load_average": [0.0, 0.0, 0.0]},
        "samples": {"speedup": [0.5, 3.0, 3.5]},
        "median": {"speedup": 3.0},
        "iqr": {"speedup": 1.5},
    }
    harness.assert_at_least(record, "speedup", 3.0)
    with pytest.raises(AssertionError, match="below the floor 3.10"):
        harness.assert_at_least(record, "speedup", 3.1)


def test_fresh_records_are_gitignored_and_baselines_are_not():
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("needs a git checkout")

    def ignored(path):
        done = subprocess.run(
            ["git", "-C", str(REPO), "check-ignore", "-q", path],
            capture_output=True,
        )
        return done.returncode == 0

    assert ignored("benchmarks/results/latest/perf_campaign.json")
    assert not ignored("benchmarks/results/perf_campaign.json")
