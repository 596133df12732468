"""The in-repo PCHIP and Brent ports must read bit-for-bit what SciPy reads.

``repro.tech.vf_curve`` repeats ``scipy.interpolate.PchipInterpolator``
and ``scipy.optimize.brentq`` operation for operation so that no
simulation path imports SciPy.  Every comparison here is ``==`` on
floats: an approximate match would let a reordered operation drift
energy figures and rail choices by an ulp without any test noticing.
"""

import math

import numpy as np
import pytest

from repro.errors import FrequencyRangeError
from repro.eval.coordinated import SCENARIOS
from repro.eval.engines import build_ddc_stream_chip, build_mixed_divider_chip
from repro.tech.parameters import PAPER_TECHNOLOGY
from repro.tech.vf_curve import (
    ANCHORS_20FO4,
    VoltageFrequencyCurve,
    brent_root,
    pchip_coefficients,
    pchip_evaluate,
)
from repro.workloads.dvfs import mpeg4_scene_scenario, wlan_mcs_scenario
from repro.workloads.generate import _LADDERS

PchipInterpolator = pytest.importorskip("scipy.interpolate").PchipInterpolator
brentq = pytest.importorskip("scipy.optimize").brentq

DEPTHS = (15.0, 20.0, 25.0)
VOLTAGES = [v for v, _ in ANCHORS_20FO4]
FREQS = [f for _, f in ANCHORS_20FO4]


class ScipyCurve:
    """The curve as it was computed with SciPy."""

    def __init__(self, depth: float) -> None:
        self.interp = PchipInterpolator(VOLTAGES, FREQS)
        self.speedup = 20.0 / depth

    def fmax(self, voltage: float) -> float:
        return float(self.interp(voltage)) * self.speedup

    def vmin(self, frequency: float) -> float:
        if frequency <= self.fmax(VOLTAGES[0]):
            return VOLTAGES[0]
        return float(brentq(
            lambda v: self.fmax(v) - frequency, VOLTAGES[0], VOLTAGES[-1]
        ))


def _shipped_frequencies() -> list:
    """Every divided clock the shipped scenarios and kernels reach."""
    points = set()
    scenarios = [factory() for factory in SCENARIOS.values()]
    scenarios += [wlan_mcs_scenario(frames=6), mpeg4_scene_scenario(frames=6)]
    for scenario in scenarios:
        for divider in scenario.divider_ladder:
            points.add((scenario.reference_mhz, divider))
    reference = scenarios[0].reference_mhz
    for ladder in _LADDERS:
        points.update((reference, divider) for divider in ladder)
    for chip in (build_ddc_stream_chip(samples=8), build_mixed_divider_chip()):
        config = chip.config
        points.update(
            (config.reference_mhz, column.divider)
            for column in config.columns
        )
    return sorted(reference / divider for reference, divider in points)


SHIPPED_FREQUENCIES = _shipped_frequencies()


def _neighbours(x: float) -> tuple:
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def test_coefficients_match_scipy():
    interp = PchipInterpolator(VOLTAGES, FREQS)
    ours = pchip_coefficients(VOLTAGES, FREQS)
    assert len(ours) == interp.c.shape[1]
    for k, row in enumerate(ours):
        assert row == tuple(interp.c[:, k])


@pytest.mark.parametrize("seed", range(40))
def test_general_pchip_matches_scipy(seed):
    """Sign changes, flat runs, two points and extrapolation too."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    xs = np.sort(rng.choice(np.linspace(-3.0, 5.0, 400), n, replace=False))
    ys = rng.normal(size=n)
    if n > 2 and seed % 2:
        ys[int(rng.integers(1, n))] = ys[0]  # a zero secant
    interp = PchipInterpolator(xs, ys)
    xs_list, ys_list = xs.tolist(), ys.tolist()
    coefficients = pchip_coefficients(xs_list, ys_list)
    for k, row in enumerate(coefficients):
        assert row == tuple(interp.c[:, k])
    queries = np.linspace(xs[0] - 0.5, xs[-1] + 0.5, 257).tolist()
    for x in xs_list:
        queries.extend(_neighbours(x))
    ours = [pchip_evaluate(xs_list, coefficients, x) for x in queries]
    assert ours == interp(queries).tolist()


@pytest.mark.parametrize("depth", DEPTHS)
def test_dense_voltage_grid(depth):
    ours = VoltageFrequencyCurve(fo4_depth=depth)
    theirs = ScipyCurve(depth)
    grid = np.linspace(VOLTAGES[0], VOLTAGES[-1], 20_001)
    expected = (theirs.interp(grid) * theirs.speedup).tolist()
    assert [ours.max_frequency_mhz(v) for v in grid.tolist()] == expected


@pytest.mark.parametrize("depth", DEPTHS)
def test_anchors_and_rails(depth):
    """Breakpoints fall in the right-hand interval, as in SciPy."""
    ours = VoltageFrequencyCurve(fo4_depth=depth)
    theirs = ScipyCurve(depth)
    points = list(PAPER_TECHNOLOGY.voltage_rails)
    for voltage in VOLTAGES:
        points.extend(_neighbours(voltage))
    for voltage in points:
        if VOLTAGES[0] <= voltage <= VOLTAGES[-1]:
            assert ours.max_frequency_mhz(voltage) == theirs.fmax(voltage)


@pytest.mark.parametrize("depth", DEPTHS)
def test_inverse_matches_brentq(depth):
    ours = VoltageFrequencyCurve(fo4_depth=depth)
    theirs = ScipyCurve(depth)
    f_lo, f_hi = theirs.fmax(VOLTAGES[0]), theirs.fmax(VOLTAGES[-1])
    frequencies = np.linspace(f_lo * 0.5, f_hi, 1_501).tolist()
    frequencies += [f_lo, math.nextafter(f_lo, math.inf), f_hi]
    frequencies += [theirs.fmax(v) for v in VOLTAGES]
    for frequency in frequencies:
        assert ours.min_voltage_for(frequency) == theirs.vmin(frequency)


def test_brent_root_matches_brentq_on_other_functions():
    for target in (0.1, 2.0, 7.5, 26.9):
        def f(x, target=target):
            return x * x * x - target
        assert brent_root(f, 0.0, 3.0) == brentq(f, 0.0, 3.0)
    assert brent_root(math.cos, 0.0, 3.0) == brentq(math.cos, 0.0, 3.0)


@pytest.mark.parametrize("depth", DEPTHS)
def test_shipped_ladder_frequencies(depth):
    assert len(SHIPPED_FREQUENCIES) >= 8
    ours = VoltageFrequencyCurve(fo4_depth=depth)
    theirs = ScipyCurve(depth)
    f_hi = theirs.fmax(VOLTAGES[-1])
    for frequency in SHIPPED_FREQUENCIES:
        if frequency > f_hi:
            continue
        voltage = theirs.vmin(frequency)
        assert ours.min_voltage_for(frequency) == voltage
        assert ours.max_frequency_mhz(voltage) == theirs.fmax(voltage)
    rails = sorted(PAPER_TECHNOLOGY.voltage_rails)
    for frequency in SHIPPED_FREQUENCIES:
        supported = [r for r in rails if theirs.fmax(r) >= frequency]
        if supported:
            assert ours.quantize_voltage(frequency) == supported[0]
        else:
            with pytest.raises(FrequencyRangeError):
                ours.quantize_voltage(frequency)


@pytest.mark.parametrize("depth", DEPTHS)
def test_out_of_range_inputs_still_raise(depth):
    ours = VoltageFrequencyCurve(fo4_depth=depth)
    below = math.nextafter(VOLTAGES[0], -math.inf)
    above = math.nextafter(VOLTAGES[-1], math.inf)
    for voltage in (below, above, 0.0, -1.0, 5.0, math.nan):
        with pytest.raises(FrequencyRangeError):
            ours.max_frequency_mhz(voltage)
    f_hi = ours.max_frequency_mhz(VOLTAGES[-1])
    for frequency in (0.0, -10.0, math.nextafter(f_hi, math.inf), 1e6):
        with pytest.raises(FrequencyRangeError):
            ours.min_voltage_for(frequency)
