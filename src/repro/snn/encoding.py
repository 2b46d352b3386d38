"""Spike encoders: rate (Poisson) and time-to-first-spike, name-registered.

The paper's SNN (like the Diehl & Cook network it follows) receives each
input image as a set of Poisson spike trains whose rates are proportional to
pixel intensity.  The encoder here works in discrete timesteps: a pixel of
intensity ``p`` emits a spike in each timestep independently with probability
``max_rate * p``, where ``max_rate`` is the per-step firing probability of a
fully bright pixel.

Beside the Poisson encoder sits a deterministic time-to-first-spike
(TTFS) encoder — brighter pixels spike earlier, each active pixel exactly
once — and a small registry (:func:`register_encoder`) so network
configurations, campaigns and CLIs select the encoding by name
(``NetworkConfig.encoding``).  All encoders share one interface:
``encode`` (one image → ``(timesteps, n_pixels)``), ``encode_batch``
(``(n, …)`` images → ``(n, timesteps, n_pixels)``, with batch/sequential
stream equality), ``spike_probabilities`` and ``expected_spike_counts``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.utils.rng import RNGLike, resolve_rng
from repro.utils.validation import check_fraction, check_positive

__all__ = [
    "DEFAULT_ENCODING",
    "PoissonEncoder",
    "TTFSEncoder",
    "available_encodings",
    "get_encoder",
    "register_encoder",
]

#: Name of the encoding every pre-existing configuration resolves to.
DEFAULT_ENCODING = "poisson"


class PoissonEncoder:
    """Convert grayscale images into Bernoulli/Poisson spike trains.

    Parameters
    ----------
    timesteps:
        Number of simulation timesteps each image is presented for.
    max_rate:
        Per-timestep spike probability of a pixel with intensity 1.0.  Must
        lie in ``(0, 1]``.
    intensity_scale:
        Optional multiplicative gain applied to pixel intensities before
        encoding (the Diehl & Cook pipeline boosts input intensity when the
        network is too quiet); the effective per-step probability is clipped
        to 1.0.
    target_total_intensity:
        When set, every image is rescaled so the sum of its pixel
        intensities equals this value before encoding (per-sample firing-rate
        normalisation).  This removes the "amount of ink" confound between
        workloads — garment silhouettes carry several times more bright
        pixels than digit strokes — so the same network parameters work for
        both MNIST-like and Fashion-MNIST-like inputs.  ``None`` disables
        the normalisation.
    """

    def __init__(
        self,
        timesteps: int = 150,
        max_rate: float = 0.25,
        intensity_scale: float = 1.0,
        target_total_intensity: float = None,
    ) -> None:
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        self.timesteps = int(timesteps)
        self.max_rate = check_fraction(max_rate, "max_rate")
        self.intensity_scale = check_positive(intensity_scale, "intensity_scale")
        if target_total_intensity is not None:
            target_total_intensity = check_positive(
                target_total_intensity, "target_total_intensity"
            )
        self.target_total_intensity = target_total_intensity

    # ------------------------------------------------------------------ #
    def spike_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Return the per-pixel, per-step spike probability for *image*."""
        image = np.asarray(image, dtype=np.float64)
        if image.size == 0:
            raise ValueError("image must not be empty")
        if image.min() < 0.0 or image.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")
        flat = image.reshape(-1).astype(np.float64)
        if self.target_total_intensity is not None:
            total = flat.sum()
            if total > 0:
                flat = np.clip(flat * (self.target_total_intensity / total), 0.0, 1.0)
        return np.clip(flat * self.max_rate * self.intensity_scale, 0.0, 1.0)

    def encode(self, image: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        """Encode *image* into a boolean spike raster.

        Returns
        -------
        numpy.ndarray
            Boolean array of shape ``(timesteps, n_pixels)`` where entry
            ``[t, i]`` is True when input *i* spikes at timestep *t*.
        """
        generator = resolve_rng(rng)
        probabilities = self.spike_probabilities(image)
        raster = (
            generator.random((self.timesteps, probabilities.size)) < probabilities
        )
        return raster

    def encode_batch(self, images: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        """Encode a batch of images into one boolean spike raster array.

        Parameters
        ----------
        images:
            Batch of images ``(n, height, width)`` — any trailing shape
            works, each ``images[i]`` is flattened — or a single 2-D image
            (encoded as a batch of one).  Pass a flattened batch as
            ``(n, 1, n_pixels)``.
        rng:
            Seed or generator.  The batch is drawn one sample at a time
            into one reused float64 ``(timesteps, n_pixels)`` buffer
            (``generator.random(out=...)``), and each sample is compared
            straight into its slice of a preallocated boolean raster while
            its draws are still in cache.  Consecutive draws consume
            exactly the same stream values, in the same order, as one
            ``generator.random((n, timesteps, n_pixels))`` call or ``n``
            successive :meth:`encode` calls — so batched and sequential
            presentations of the same samples see bitwise identical
            rasters, while the float64 draws held at once stay one
            sample's worth.

        Returns
        -------
        numpy.ndarray
            Boolean array of shape ``(n, timesteps, n_pixels)``.
        """
        generator = resolve_rng(rng)
        images = np.asarray(images, dtype=np.float64)
        if images.ndim == 2:
            images = images[np.newaxis, ...]
        if images.ndim != 3:
            raise ValueError(
                f"images must have shape (n, height, width), got {images.shape}"
            )
        # Every image is validated before the first draw.
        probabilities = [self.spike_probabilities(image) for image in images]
        n_pixels = int(np.prod(images.shape[1:]))
        raster = np.empty((len(images), self.timesteps, n_pixels), dtype=bool)
        draws = np.empty((self.timesteps, n_pixels))
        for probability, sample in zip(probabilities, raster):
            generator.random(out=draws)
            np.less(draws, probability, out=sample)
        return raster

    def expected_spike_counts(self, image: np.ndarray) -> np.ndarray:
        """Expected number of spikes per pixel over the full presentation."""
        return self.spike_probabilities(image) * self.timesteps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PoissonEncoder(timesteps={self.timesteps}, max_rate={self.max_rate}, "
            f"intensity_scale={self.intensity_scale})"
        )


class TTFSEncoder:
    """Deterministic time-to-first-spike (latency) encoding.

    Each pixel with a nonzero per-step probability ``p`` (computed exactly
    like the Poisson encoder's, so both encodings share the same intensity
    normalisation) emits exactly one spike, at timestep
    ``min(timesteps - 1, floor((1 - p / max_rate) * timesteps))`` — the
    brighter the pixel, the earlier the spike; dark pixels stay silent.

    The encoder is deterministic: it accepts the ``rng`` argument of the
    shared interface but consumes no random values — identically in
    :meth:`encode` and :meth:`encode_batch`, so batched and sequential
    presentations of the same samples leave any shared generator in the
    same state and see bitwise identical rasters.

    Parameters are those of :class:`PoissonEncoder` (``intensity_scale``
    and ``target_total_intensity`` feed the shared probability pipeline;
    ``max_rate`` normalises the latency ramp).
    """

    def __init__(
        self,
        timesteps: int = 150,
        max_rate: float = 0.25,
        intensity_scale: float = 1.0,
        target_total_intensity: float = None,
    ) -> None:
        if timesteps <= 0:
            raise ValueError(f"timesteps must be positive, got {timesteps}")
        self.timesteps = int(timesteps)
        self.max_rate = check_fraction(max_rate, "max_rate")
        self.intensity_scale = check_positive(intensity_scale, "intensity_scale")
        if target_total_intensity is not None:
            target_total_intensity = check_positive(
                target_total_intensity, "target_total_intensity"
            )
        self.target_total_intensity = target_total_intensity
        # The probability pipeline is shared with the Poisson encoder so
        # both encodings see identical per-pixel intensity normalisation.
        self._rate = PoissonEncoder(
            timesteps=self.timesteps,
            max_rate=self.max_rate,
            intensity_scale=self.intensity_scale,
            target_total_intensity=self.target_total_intensity,
        )

    # ------------------------------------------------------------------ #
    def spike_probabilities(self, image: np.ndarray) -> np.ndarray:
        """Per-pixel intensity proxy (the Poisson per-step probability)."""
        return self._rate.spike_probabilities(image)

    def spike_times(self, image: np.ndarray) -> np.ndarray:
        """First-spike timestep per pixel (``-1`` for silent pixels)."""
        probabilities = self.spike_probabilities(image)
        ramp = 1.0 - probabilities / self.max_rate
        times = np.clip(
            np.floor(ramp * self.timesteps), 0, self.timesteps - 1
        ).astype(np.int64)
        times[probabilities <= 0.0] = -1
        return times

    def encode(self, image: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        """Encode *image* into a boolean ``(timesteps, n_pixels)`` raster.

        ``rng`` is accepted for interface parity and never consumed.
        """
        del rng  # deterministic encoding consumes no randomness
        times = self.spike_times(image)
        raster = np.zeros((self.timesteps, times.size), dtype=bool)
        firing = np.flatnonzero(times >= 0)
        raster[times[firing], firing] = True
        return raster

    def encode_batch(self, images: np.ndarray, rng: RNGLike = None) -> np.ndarray:
        """Encode a batch into ``(n, timesteps, n_pixels)``.

        Deterministic, so it is trivially stream-identical to ``n``
        successive :meth:`encode` calls (neither consumes the generator).
        """
        del rng  # deterministic encoding consumes no randomness
        images = np.asarray(images, dtype=np.float64)
        if images.ndim == 2:
            images = images[np.newaxis, ...]
        if images.ndim != 3:
            raise ValueError(
                f"images must have shape (n, height, width), got {images.shape}"
            )
        rasters = [self.encode(image) for image in images]
        return np.stack(rasters)

    def expected_spike_counts(self, image: np.ndarray) -> np.ndarray:
        """Expected spikes per pixel: exactly one for each active pixel."""
        return (self.spike_probabilities(image) > 0.0).astype(np.float64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TTFSEncoder(timesteps={self.timesteps}, max_rate={self.max_rate}, "
            f"intensity_scale={self.intensity_scale})"
        )


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
_ENCODERS: Dict[str, Callable[..., object]] = {}


def register_encoder(
    name: str, factory: Callable[..., object], replace: bool = False
) -> None:
    """Register an encoder *factory* under *name*.

    The factory is called with the keyword arguments
    ``timesteps`` / ``max_rate`` / ``target_total_intensity`` (the subset
    of :class:`~repro.snn.network.NetworkConfig` an encoder derives from)
    and must return an object implementing the shared encoder interface.
    Re-registering an existing name requires ``replace=True``.
    """
    if not name:
        raise ValueError("encoder name must be non-empty")
    if name in _ENCODERS and not replace:
        raise ValueError(
            f"encoding {name!r} is already registered "
            "(pass replace=True to override)"
        )
    _ENCODERS[name] = factory


def get_encoder(name: str) -> Callable[..., object]:
    """Return the factory registered for *name*; raise with known names."""
    try:
        return _ENCODERS[name]
    except KeyError:
        raise ValueError(
            f"unknown encoding {name!r}; available: "
            f"{', '.join(available_encodings())}"
        ) from None


def available_encodings() -> List[str]:
    """Sorted names of every registered encoding."""
    return sorted(_ENCODERS)


register_encoder("poisson", PoissonEncoder)
register_encoder("ttfs", TTFSEncoder)
