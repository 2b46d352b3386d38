"""Reproducible random-number-generator management.

The SoftSNN evaluation is heavily stochastic: Poisson spike encoding,
fault-map generation, dataset synthesis and STDP-driven training all draw
random numbers.  The paper's central observation in Fig. 3(a) — that
different *fault maps* at the same fault rate yield different accuracy —
only makes sense when fault maps are reproducible objects.  This module
gives every stochastic component in the library a single, consistent way to
obtain a generator:

* pass nothing → a fresh, OS-seeded generator,
* pass an ``int`` seed → a deterministic generator,
* pass an existing :class:`numpy.random.Generator` → used as-is.

The helper :func:`spawn_rngs` derives independent child generators for
parallel or repeated experiments without correlated streams, and
:class:`SeedSequenceFactory` hands out deterministic per-purpose seeds for
large experiment sweeps.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

RNGLike = Union[None, int, np.random.Generator]

__all__ = [
    "RNGLike",
    "SeedSequenceFactory",
    "derive_cell_seed",
    "derive_clean_seed",
    "derive_root_seed",
    "resolve_rng",
    "spawn_rngs",
]


def resolve_rng(rng: RNGLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a flexible specifier.

    Parameters
    ----------
    rng:
        ``None`` for a freshly seeded generator, an ``int`` seed for a
        deterministic generator, or an existing generator which is returned
        unchanged.

    Raises
    ------
    TypeError
        If *rng* is none of the accepted types.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return np.random.default_rng(int(rng))
    raise TypeError(
        "rng must be None, an int seed, or a numpy.random.Generator; "
        f"got {type(rng).__name__}"
    )


def spawn_rngs(rng: RNGLike, count: int) -> List[np.random.Generator]:
    """Derive *count* statistically independent child generators.

    Children are derived through :class:`numpy.random.SeedSequence` spawning
    so repeated experiments (e.g. the per-fault-map trials of Fig. 3a) do not
    share correlated random streams.

    Parameters
    ----------
    rng:
        Parent generator specifier (see :func:`resolve_rng`).
    count:
        Number of child generators to create.  Must be positive.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    parent = resolve_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


def derive_root_seed(rng: RNGLike = None) -> int:
    """Collapse a flexible rng specifier into a single 63-bit root seed.

    Campaign execution needs one integer to anchor per-cell seed derivation
    (see :func:`derive_cell_seed`), independent of execution order.  An
    ``int`` specifier is used as-is; ``None`` or a generator draw one value
    from the (fresh or given) generator so repeated calls with the same
    generator state are reproducible.
    """
    if isinstance(rng, (int, np.integer)) and not isinstance(rng, bool):
        if rng < 0:
            raise ValueError(f"seed must be non-negative, got {rng}")
        return int(rng)
    generator = resolve_rng(rng)
    return int(generator.integers(0, 2**63 - 1, dtype=np.int64))


def derive_cell_seed(
    root_seed: int, experiment_key: str, rate_index: int, trial_index: int
) -> int:
    """Deterministic seed of one sweep cell, independent of execution order.

    A *cell* is one ``(experiment, fault rate, trial)`` coordinate of a
    campaign grid.  Deriving its seed from the grid coordinates (rather than
    from a shared generator's mutable state, as the pre-campaign serial loop
    did) makes the cell a self-contained unit of work: serial and
    process-pool execution draw bit-identical fault maps and encoder
    streams, and any single cell can be re-run in isolation.

    Rate and trial are identified by their *indices* in the spec so that
    float formatting of the rate can never change the seed.
    """
    factory = SeedSequenceFactory(root_seed=root_seed)
    return factory.seed_for(
        f"campaign/cell/{experiment_key}/rate[{int(rate_index)}]"
        f"/trial[{int(trial_index)}]"
    )


def derive_clean_seed(root_seed: int, experiment_key: str) -> int:
    """Deterministic seed of an experiment's fault-free reference cell."""
    factory = SeedSequenceFactory(root_seed=root_seed)
    return factory.seed_for(f"campaign/clean/{experiment_key}")


class SeedSequenceFactory:
    """Deterministic per-purpose seed dispenser for experiment sweeps.

    Large sweeps (Fig. 13 covers five network sizes, five fault rates, five
    techniques and two workloads) need a stable mapping from "experiment
    coordinates" to seeds so any single cell of the grid can be re-run in
    isolation and reproduce exactly.  The factory hashes a textual *purpose*
    together with a root seed to produce that mapping.

    Examples
    --------
    >>> factory = SeedSequenceFactory(root_seed=42)
    >>> a = factory.seed_for("fig13/mnist/N400/rate=0.01/BnP1")
    >>> b = factory.seed_for("fig13/mnist/N400/rate=0.01/BnP1")
    >>> a == b
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        if root_seed < 0:
            raise ValueError(f"root_seed must be non-negative, got {root_seed}")
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        """The root seed every derived seed is anchored to."""
        return self._root_seed

    def seed_for(self, purpose: str) -> int:
        """Return a deterministic 63-bit seed for *purpose*."""
        if not isinstance(purpose, str) or not purpose:
            raise ValueError("purpose must be a non-empty string")
        # A simple, stable polynomial hash.  ``hash()`` is salted per process
        # so it cannot be used for reproducibility.
        acc = self._root_seed & 0x7FFFFFFFFFFFFFFF
        for char in purpose:
            acc = (acc * 1000003 + ord(char)) & 0x7FFFFFFFFFFFFFFF
        return acc

    def rng_for(self, purpose: str) -> np.random.Generator:
        """Return a deterministic generator for *purpose*."""
        return np.random.default_rng(self.seed_for(purpose))

    def child(self, namespace: str) -> "SeedSequenceFactory":
        """Return a factory whose seeds are namespaced under *namespace*."""
        return SeedSequenceFactory(root_seed=self.seed_for(namespace))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequenceFactory(root_seed={self._root_seed})"

