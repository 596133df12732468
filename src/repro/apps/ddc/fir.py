"""Programmable FIR stages: the 21-tap CFIR and 63-tap PFIR.

The CFIR compensates the CIC's sinc^N passband droop (its response
approximates the inverse of the CIC's within the band of interest)
and decimates by two; the PFIR provides the final channel shaping and
decimates by two again - the GC4014 arrangement the paper's DDC
follows.
"""

from __future__ import annotations

import numpy as np

# SciPy is imported where it is used, so importing this golden model
# (and the simulator paths that share its package) needs numpy only.


def design_lowpass(taps: int, cutoff: float, window: str = "hamming") -> np.ndarray:
    """Windowed-sinc linear-phase lowpass (cutoff in normalized 0..1)."""
    from scipy import signal as sp_signal

    if taps < 3:
        raise ValueError("need at least 3 taps")
    if not 0.0 < cutoff < 1.0:
        raise ValueError("cutoff must lie in (0, 1)")
    return sp_signal.firwin(taps, cutoff, window=window)


def cic_droop(frequencies: np.ndarray, stages: int, decimation: int,
              diff_delay: int = 1) -> np.ndarray:
    """|H_cic| at normalized input-rate frequencies (0..1 = Nyquist)."""
    rm = decimation * diff_delay
    # The classic sinc ratio sin(RM*w/2) / (RM*sin(w/2)), evaluated at
    # w = pi*f/R: frequencies are normalized to the CFIR's (decimated)
    # Nyquist, while the CIC filters at the R-times-higher input rate.
    w = np.pi * np.asarray(frequencies, dtype=np.float64) / decimation
    numerator = np.sin(rm * w / 2.0)
    denominator = rm * np.sin(w / 2.0)
    ratio = np.where(np.abs(denominator) < 1e-12, 1.0,
                     numerator / np.where(denominator == 0, 1, denominator))
    return np.abs(ratio) ** stages


def design_cic_compensator(
    taps: int = 21,
    stages: int = 4,
    decimation: int = 16,
    cutoff: float = 0.5,
    max_boost: float = 10.0,
) -> np.ndarray:
    """Inverse-sinc^N compensator via frequency sampling (firwin2).

    The desired response is 1/|H_cic| inside the passband (boost
    capped at ``max_boost``) and zero beyond ``cutoff`` (normalized to
    the CFIR's input Nyquist).
    """
    from scipy import signal as sp_signal

    if taps % 2 == 0:
        raise ValueError("compensator tap count must be odd")
    grid = np.linspace(0.0, 1.0, 128)
    droop = cic_droop(grid, stages, decimation)
    desired = np.where(
        grid <= cutoff,
        np.minimum(1.0 / np.maximum(droop, 1e-9), max_boost),
        0.0,
    )
    desired[0] = 1.0
    return sp_signal.firwin2(taps, grid, desired)


class FirDecimator:
    """Streaming FIR filter with integer decimation."""

    def __init__(self, coefficients: np.ndarray, decimation: int = 1) -> None:
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.ndim != 1 or len(coefficients) == 0:
            raise ValueError("coefficients must be a non-empty 1-D array")
        if decimation < 1:
            raise ValueError("decimation must be >= 1")
        self.coefficients = coefficients
        self.decimation = decimation
        self._state = np.zeros(len(coefficients) - 1, dtype=np.complex128)
        self._phase = 0
        self.samples_in = 0
        self.samples_out = 0

    @property
    def taps(self) -> int:
        """Filter length."""
        return len(self.coefficients)

    def reset(self) -> None:
        """Clear delay line and decimation phase."""
        self._state = np.zeros(self.taps - 1, dtype=np.complex128)
        self._phase = 0
        self.samples_in = 0
        self.samples_out = 0

    def process(self, block: np.ndarray) -> np.ndarray:
        """Filter one block, returning the decimated output samples."""
        from scipy import signal as sp_signal

        block = np.asarray(block, dtype=np.complex128)
        self.samples_in += len(block)
        filtered, self._state = sp_signal.lfilter(
            self.coefficients, [1.0], block, zi=self._state
        )
        if self.decimation == 1:
            self.samples_out += len(filtered)
            return filtered
        offset = (-self._phase) % self.decimation
        kept = filtered[offset::self.decimation]
        self._phase = (self._phase + len(block)) % self.decimation
        self.samples_out += len(kept)
        return kept

    def frequency_response(self, points: int = 512) -> tuple:
        """(normalized frequencies, complex response) for inspection."""
        from scipy import signal as sp_signal

        frequencies, response = sp_signal.freqz(
            self.coefficients, worN=points
        )
        return frequencies / np.pi, response
