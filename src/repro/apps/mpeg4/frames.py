"""Synthetic video sequences and quality metrics."""

from __future__ import annotations

import numpy as np

# SciPy is imported where it is used, so importing this golden model
# (and the simulator paths that share its package) needs numpy only.


def psnr(reference: np.ndarray, reconstructed: np.ndarray,
         peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB (infinite for exact match)."""
    reference = np.asarray(reference, dtype=np.float64)
    reconstructed = np.asarray(reconstructed, dtype=np.float64)
    if reference.shape != reconstructed.shape:
        raise ValueError("frames must share a shape")
    mse = float(np.mean((reference - reconstructed) ** 2))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(peak * peak / mse)


def synthetic_sequence(
    n_frames: int,
    shape: tuple = (144, 176),
    motion_per_frame: tuple = (1, 2),
    n_blobs: int = 30,
    seed: int = 0,
) -> np.ndarray:
    """Frames of textured blobs translating uniformly (global pan).

    Uniform translation makes the true motion known, so motion-
    estimation tests can assert the recovered vectors.
    Returns an array of shape (n_frames, height, width) in 0..255.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    height, width = shape
    dy, dx = motion_per_frame
    margin_y = abs(dy) * n_frames + 8
    margin_x = abs(dx) * n_frames + 8
    canvas = np.zeros((height + 2 * margin_y, width + 2 * margin_x))
    rows = rng.integers(0, canvas.shape[0], size=n_blobs)
    cols = rng.integers(0, canvas.shape[1], size=n_blobs)
    canvas[rows, cols] = rng.uniform(120, 255, size=n_blobs)
    canvas = ndimage.gaussian_filter(canvas, sigma=3.0)
    canvas *= 255.0 / max(canvas.max(), 1e-12)

    frames = np.empty((n_frames, height, width))
    for index in range(n_frames):
        top = margin_y + index * dy
        left = margin_x + index * dx
        frames[index] = canvas[top:top + height, left:left + width]
    return frames
