"""Tomasi-Kanade point-feature extraction [10].

Good features to track are pixels whose local structure tensor

    Z = [[sum gx^2, sum gx*gy],
         [sum gx*gy, sum gy^2]]     (summed over a window)

has a large minimum eigenvalue: both eigenvalues large means texture
in two directions (a trackable corner).  The pipeline is: image
gradients, windowed tensor sums, min-eigenvalue response, threshold,
non-maximum suppression, and a best-N selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# SciPy is imported where it is used, so importing this golden model
# (and the simulator paths that share its package) needs numpy only.


@dataclass(frozen=True)
class FeaturePoint:
    """One detected feature: integer pixel position and its response."""

    row: int
    col: int
    response: float


def image_gradients(image: np.ndarray) -> tuple:
    """Central-difference gradients (gy, gx) of a float image."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValueError("image must be 2-D")
    gy, gx = np.gradient(image)
    return gy, gx


def min_eigenvalue_response(
    image: np.ndarray, window: int = 7
) -> np.ndarray:
    """Per-pixel minimum eigenvalue of the windowed structure tensor.

    For a symmetric 2x2 matrix [[a, b], [b, c]] the minimum eigenvalue
    is ``(a + c - sqrt((a - c)^2 + 4 b^2)) / 2``.
    """
    if window < 3 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 3")
    from scipy import ndimage

    gy, gx = image_gradients(image)
    kernel = np.ones((window, window), dtype=np.float64)
    gxx = ndimage.convolve(gx * gx, kernel, mode="constant")
    gyy = ndimage.convolve(gy * gy, kernel, mode="constant")
    gxy = ndimage.convolve(gx * gy, kernel, mode="constant")
    trace = gxx + gyy
    discriminant = np.sqrt((gxx - gyy) ** 2 + 4.0 * gxy ** 2)
    return 0.5 * (trace - discriminant)


def non_maximum_suppression(
    response: np.ndarray, radius: int = 5
) -> np.ndarray:
    """Boolean mask of strict local maxima within ``radius``."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    from scipy import ndimage

    size = 2 * radius + 1
    local_max = ndimage.maximum_filter(response, size=size, mode="constant")
    return (response == local_max) & (response > 0)


def extract_features(
    image: np.ndarray,
    max_features: int = 100,
    window: int = 7,
    suppression_radius: int = 5,
    quality: float = 0.01,
    border: int = 8,
) -> list:
    """Detect up to ``max_features`` Tomasi-Kanade corners.

    ``quality`` rejects responses below that fraction of the frame
    maximum; ``border`` excludes a margin where correlation patches
    would fall off the image.
    """
    response = min_eigenvalue_response(image, window=window)
    if border > 0:
        response[:border, :] = 0
        response[-border:, :] = 0
        response[:, :border] = 0
        response[:, -border:] = 0
    peak = response.max()
    if peak <= 0:
        return []
    mask = non_maximum_suppression(response, radius=suppression_radius)
    mask &= response >= quality * peak
    rows, cols = np.nonzero(mask)
    order = np.argsort(response[rows, cols])[::-1][:max_features]
    return [
        FeaturePoint(int(rows[i]), int(cols[i]), float(response[rows[i],
                     cols[i]]))
        for i in order
    ]
