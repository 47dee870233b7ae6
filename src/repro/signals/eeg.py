"""Synthetic electroencephalogram generator.

The platform monitors "up to 24 channels EEG" (Section 3); for energy
purposes an EEG channel is just another sampled waveform, but examples
and tests benefit from a physiologically plausible one.  The generator
sums deterministic sinusoids drawn from the clinical bands (delta,
theta, alpha, beta) with seed-derived frequencies, phases and
amplitudes — a band-limited noise process that is still a pure function
of time (reproducible, order-independent).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Band:
    """One EEG band: frequency range [hz_low, hz_high] and RMS weight."""

    name: str
    hz_low: float
    hz_high: float
    rms_uv: float


#: Typical resting-adult band mix (amplitudes in microvolts RMS).
DEFAULT_BANDS: Tuple[Band, ...] = (
    Band("delta", 0.5, 4.0, 10.0),
    Band("theta", 4.0, 8.0, 8.0),
    Band("alpha", 8.0, 13.0, 20.0),
    Band("beta", 13.0, 30.0, 6.0),
)


class SyntheticEeg:
    """Band-limited deterministic EEG-like signal.

    Args:
        seed: derives every random frequency/phase/amplitude; the same
            seed always yields the same waveform.
        bands: band mix; defaults to a resting-adult spectrum.
        tones_per_band: sinusoids per band (more = smoother spectrum).
    """

    def __init__(self, seed: int = 0,
                 bands: Tuple[Band, ...] = DEFAULT_BANDS,
                 tones_per_band: int = 8) -> None:
        if tones_per_band < 1:
            raise ValueError(
                f"tones_per_band must be >= 1: {tones_per_band}")
        self.seed = seed
        self.bands = bands
        rng = random.Random(seed)
        self._tones: List[Tuple[float, float, float]] = []
        for band in bands:
            # Each tone carries an equal share of the band's RMS power:
            # amplitude = rms * sqrt(2 / n).
            amplitude = band.rms_uv * math.sqrt(2.0 / tones_per_band)
            for _ in range(tones_per_band):
                frequency = rng.uniform(band.hz_low, band.hz_high)
                phase = rng.uniform(0.0, 2.0 * math.pi)
                self._tones.append((frequency, phase, amplitude))
        # Angular frequency per tone, precomputed with the same float
        # ops value_at used inline ((2.0 * pi) * f), so samples are
        # bit-identical.
        self._fast_tones: Tuple[Tuple[float, float, float], ...] = tuple(
            (2.0 * math.pi * f, p, a) for f, p, a in self._tones)

    def value_at(self, t_seconds: float) -> float:
        """Signal value in microvolts at ``t_seconds``."""
        sin = math.sin
        return sum(a * sin(w * t_seconds + p)
                   for w, p, a in self._fast_tones)

    def values_at(self, times: Sequence[float]) -> List[float]:
        """``[value_at(t) for t in times]``, bit for bit."""
        sin = math.sin
        tones = self._fast_tones
        return [sum(a * sin(w * t + p) for w, p, a in tones)
                for t in times]

    def band_rms(self) -> Dict[str, float]:
        """Analytic per-band RMS in microvolts (exact for pure tones)."""
        totals: Dict[str, float] = {}
        for band in self.bands:
            acc = 0.0
            for frequency, _, amplitude in self._tones:
                if band.hz_low <= frequency <= band.hz_high:
                    acc += amplitude ** 2 / 2.0
            totals[band.name] = math.sqrt(acc)
        return totals


__all__ = ["Band", "DEFAULT_BANDS", "SyntheticEeg"]
