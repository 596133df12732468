"""The two-stage stereo pipeline and a synthetic scene generator.

Point-feature extraction (16 tiles @ 310 MHz in Table 4) feeds
SVD-based correspondence (1 tile @ 500 MHz); disparities follow from
matched column offsets.  Frames are 256x256 monochrome at 10 f/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.stereo.features import extract_features
from repro.apps.stereo.svd import pilu_correspondence
from repro.sdf.graph import SdfGraph

# SciPy is imported where it is used, so importing this golden model
# (and the simulator paths that share its package) needs numpy only.


FRAME_SHAPE = (256, 256)
FRAME_RATE_FPS = 10.0


@dataclass(frozen=True)
class StereoMatch:
    """One correspondence with its disparity (left col - right col)."""

    left_row: int
    left_col: int
    right_row: int
    right_col: int

    @property
    def disparity(self) -> int:
        """Horizontal disparity in pixels."""
        return self.left_col - self.right_col


class StereoVisionPipeline:
    """Feature extraction + SVD correspondence over stereo pairs."""

    def __init__(
        self,
        max_features: int = 64,
        patch_radius: int = 4,
        sigma: float = 30.0,
    ) -> None:
        self.max_features = max_features
        self.patch_radius = patch_radius
        self.sigma = sigma
        self.frames_processed = 0

    def process(self, left: np.ndarray, right: np.ndarray) -> list:
        """Match features across one rectified stereo pair."""
        left = np.asarray(left, dtype=np.float64)
        right = np.asarray(right, dtype=np.float64)
        if left.shape != right.shape:
            raise ValueError("stereo frames must share a shape")
        border = self.patch_radius + 1
        features_left = extract_features(
            left, max_features=self.max_features, border=border
        )
        features_right = extract_features(
            right, max_features=self.max_features, border=border
        )
        pairs = pilu_correspondence(
            left, features_left, right, features_right,
            sigma=self.sigma, patch_radius=self.patch_radius,
        )
        self.frames_processed += 1
        return [
            StereoMatch(
                left_row=features_left[i].row,
                left_col=features_left[i].col,
                right_row=features_right[j].row,
                right_col=features_right[j].col,
            )
            for i, j in pairs
        ]


def synthetic_stereo_pair(
    disparity: int = 6,
    shape: tuple = FRAME_SHAPE,
    n_blobs: int = 40,
    noise: float = 0.01,
    seed: int = 0,
) -> tuple:
    """A rectified stereo pair of smoothed random blobs.

    The right image is the left shifted ``disparity`` pixels toward
    lower column indices (objects at one depth plane), so recovered
    disparities should cluster at ``disparity``.
    """
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    height, width = shape
    canvas = np.zeros((height, width + disparity))
    rows = rng.integers(10, height - 10, size=n_blobs)
    cols = rng.integers(10, width + disparity - 10, size=n_blobs)
    magnitude = rng.uniform(0.5, 1.0, size=n_blobs)
    canvas[rows, cols] = magnitude
    canvas = ndimage.gaussian_filter(canvas, sigma=2.0)
    canvas /= max(canvas.max(), 1e-12)
    left = canvas[:, :width].copy()
    right = canvas[:, disparity:disparity + width].copy()
    left += noise * rng.standard_normal(left.shape)
    right += noise * rng.standard_normal(right.shape)
    return left, right


#: Calibrated per-firing costs (one tile): one firing = one frame.
#: PFE on 16 tiles at 10 f/s: 496e6 cycles/frame/16 tiles * 10 f/s
#: = 310 MHz; SVD on 1 tile: 50e6 cycles/frame * 10 f/s = 500 MHz.
STEREO_ACTOR_CYCLES = {
    "pfe": 496.0e6,
    "svd": 50.0e6,
}


def stereo_sdf_graph() -> SdfGraph:
    """The two-actor stereo SDF graph (per-frame iteration)."""
    graph = SdfGraph("stereo_vision")
    graph.add_actor("pfe", STEREO_ACTOR_CYCLES["pfe"])
    graph.add_actor("svd", STEREO_ACTOR_CYCLES["svd"])
    graph.add_edge("pfe", "svd", produce=1, consume=1)
    return graph
