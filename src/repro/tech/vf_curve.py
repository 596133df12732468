"""Voltage-frequency curve (paper Figure 5, Section 4.2).

The paper SPICEs a 20 FO4 critical path against the Berkeley Predictive
Technology Model, then "captures the graph as a look-up table to
determine the appropriate voltage of operation of a tile given the
frequency".  We substitute the SPICE sweep with an anchored, monotone
lookup table whose quantization behaviour reproduces **every** observed
(frequency, voltage) pair in the paper:

* Table 4 assignments: 40/60/70 MHz -> 0.7 V, 90/110/120 -> 0.8 V,
  200 -> 1.0 V, 280 -> 1.1 V, 310/330 -> 1.2 V, 370/380 -> 1.3 V,
  500 -> 1.5 V, 540 -> 1.7 V;
* the Section 2 DDC example (mixer 120 MHz @ 0.8 V, integrator
  200 MHz @ 1.0 V);
* Table 1 anchors (600 MHz at 1.65 V for a 20 FO4 path).

Interpolation between anchors uses PCHIP, which preserves monotonicity,
and the inverse uses Brent's method.  Both are small in-repo ports that
repeat SciPy's arithmetic (``PchipInterpolator``, ``brentq``) operation
for operation, so the curve reads bit-for-bit what SciPy would while no
simulation path has to import SciPy (see docs/power.md).
The 15 FO4 variant of Figure 5 scales frequency by 20/15 at equal
voltage (a k-FO4 path is 20/k times faster than a 20 FO4 path).
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from typing import Callable, Iterable, Sequence

from repro.errors import FrequencyRangeError
from repro.tech.parameters import PAPER_TECHNOLOGY, TechnologyParameters

#: (voltage V, max frequency MHz) anchors for the reference 20 FO4 path.
#: Chosen so the discrete-rail quantization matches every paper pair;
#: see the module docstring and tests/tech/test_vf_curve.py.
ANCHORS_20FO4 = (
    (0.60, 30.0),
    (0.70, 80.0),
    (0.80, 150.0),
    (0.90, 185.0),
    (1.00, 230.0),
    (1.10, 300.0),
    (1.20, 350.0),
    (1.30, 420.0),
    (1.40, 465.0),
    (1.50, 520.0),
    (1.65, 600.0),
    (1.80, 680.0),
    (2.00, 780.0),
    (2.12, 840.0),
)


#: Shared curve instances keyed by FO4 depth (see ``from_technology``).
_CURVES_BY_DEPTH: dict = {}

#: ``scipy.optimize.brentq`` defaults, which the inverse has always used.
_BRENT_XTOL = 2e-12
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _pchip_edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, shape-preserving (Moler)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_coefficients(xs: Sequence[float], ys: Sequence[float]) -> list:
    """Per-interval cubic coefficients ``(c0, c1, c2, c3)`` of the PCHIP.

    Interval ``k`` evaluates ``c3 + c2*s + c1*s**2 + c0*s**3`` at
    ``s = x - xs[k]``.  Slopes and coefficients follow
    ``scipy.interpolate.PchipInterpolator`` /
    ``CubicHermiteSpline`` expression for expression, so every
    coefficient carries the same bits.
    """
    h = [xs[k + 1] - xs[k] for k in range(len(xs) - 1)]
    m = [(ys[k + 1] - ys[k]) / h[k] for k in range(len(h))]
    if len(m) == 1:
        d = [m[0], m[0]]
    else:
        d = [_pchip_edge_slope(h[0], h[1], m[0], m[1])]
        for k in range(1, len(m)):
            m0, m1 = m[k - 1], m[k]
            if _sign(m1) != _sign(m0) or m1 == 0 or m0 == 0:
                d.append(0.0)
                continue
            # Weighted harmonic mean of the neighbouring secants.
            w1 = 2 * h[k] + h[k - 1]
            w2 = h[k] + 2 * h[k - 1]
            d.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
        d.append(_pchip_edge_slope(h[-1], h[-2], m[-1], m[-2]))
    coefficients = []
    for k, dx in enumerate(h):
        t = (d[k] + d[k + 1] - 2 * m[k]) / dx
        coefficients.append((t / dx, (m[k] - d[k]) / dx - t, d[k], ys[k]))
    return coefficients


def pchip_evaluate(xs: Sequence[float], coefficients: Sequence, x: float) -> float:
    """Evaluate the PCHIP at ``x`` exactly as SciPy's ``PPoly`` does.

    A breakpoint belongs to the interval on its right, except the last,
    which closes the final interval.  Outside ``[xs[0], xs[-1]]`` the
    end intervals extrapolate.
    """
    k = min(max(bisect_right(xs, x) - 1, 0), len(xs) - 2)
    c0, c1, c2, c3 = coefficients[k]
    s = x - xs[k]
    z2 = s * s
    return c3 + c2 * s + c1 * z2 + c0 * (z2 * s)


def brent_root(f: Callable[[float], float], xa: float, xb: float) -> float:
    """Root of ``f`` in ``[xa, xb]``: a port of SciPy's C ``brentq``.

    Uses ``brentq``'s default tolerances (``xtol=2e-12``,
    ``rtol=4*eps``, 100 iterations) and its exact step logic, so it
    returns the same float for the same ``f``.
    """
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(
        f"Brent failed to converge after {_BRENT_MAXITER} iterations"
    )


class VoltageFrequencyCurve:
    """Monotone mapping between supply voltage and maximum frequency.

    Parameters
    ----------
    anchors:
        ``(voltage, f_max_mhz)`` pairs, strictly increasing in both
        coordinates. Defaults to the calibrated 20 FO4 table.
    fo4_depth:
        Critical-path depth in FO4 delays. Frequencies scale by
        ``reference_fo4 / fo4_depth`` relative to the anchor table.
    reference_fo4:
        The depth at which the anchors were taken (20, per the paper).
    """

    def __init__(
        self,
        anchors: Sequence[tuple] = ANCHORS_20FO4,
        fo4_depth: float = 20.0,
        reference_fo4: float = 20.0,
    ) -> None:
        if len(anchors) < 2:
            raise ValueError("need at least two anchors")
        voltages = [v for v, _ in anchors]
        freqs = [f for _, f in anchors]
        if voltages != sorted(voltages) or len(set(voltages)) != len(voltages):
            raise ValueError("anchor voltages must be strictly increasing")
        if freqs != sorted(freqs) or len(set(freqs)) != len(freqs):
            raise ValueError("anchor frequencies must be strictly increasing")
        if fo4_depth <= 0:
            raise ValueError("fo4_depth must be positive")
        self._voltages = tuple(float(v) for v in voltages)
        self._freqs = tuple(float(f) for f in freqs)
        self.fo4_depth = float(fo4_depth)
        self._speedup = reference_fo4 / float(fo4_depth)
        self._coefficients = pchip_coefficients(self._voltages, self._freqs)
        # Exact-input memo tables.  Governed runs evaluate the curve at
        # the same handful of ladder frequencies every epoch; keying on
        # the exact float keeps results bit-identical while skipping
        # the spline evaluation (and, for the inverse, the root search).
        self._fmax_memo: dict = {}
        self._vmin_memo: dict = {}

    @classmethod
    def from_technology(
        cls,
        tech: TechnologyParameters = PAPER_TECHNOLOGY,
        fo4_depth: float = 20.0,
    ) -> "VoltageFrequencyCurve":
        """Build the paper's curve for a given critical-path depth.

        Instances are shared per ``fo4_depth``: the anchor table is a
        module constant and the curve is a pure function of its inputs,
        so every caller at the same depth can use the same (memoised)
        spline instead of refitting it per chip build.
        """
        curve = _CURVES_BY_DEPTH.get(fo4_depth)
        if curve is None:
            curve = cls(ANCHORS_20FO4, fo4_depth=fo4_depth)
            _CURVES_BY_DEPTH[fo4_depth] = curve
        return curve

    @property
    def v_floor(self) -> float:
        """Lowest modelled voltage."""
        return self._voltages[0]

    @property
    def v_ceiling(self) -> float:
        """Highest modelled voltage."""
        return self._voltages[-1]

    def max_frequency_mhz(self, voltage: float) -> float:
        """Maximum clock rate sustainable at ``voltage``.

        Raises
        ------
        FrequencyRangeError
            If ``voltage`` lies outside the modelled range.
        """
        memo = self._fmax_memo.get(voltage)
        if memo is not None:
            return memo
        if not self.v_floor <= voltage <= self.v_ceiling:
            raise FrequencyRangeError(
                f"voltage {voltage} V outside modelled range "
                f"[{self.v_floor}, {self.v_ceiling}] V"
            )
        result = float(
            pchip_evaluate(self._voltages, self._coefficients, voltage)
        ) * self._speedup
        self._fmax_memo[voltage] = result
        return result

    def min_voltage_for(self, frequency_mhz: float) -> float:
        """Continuous minimum supply voltage supporting ``frequency_mhz``.

        This is the inverse of :meth:`max_frequency_mhz`, computed by
        Brent's method on the forward curve so that
        ``max_frequency_mhz(min_voltage_for(f)) >= f`` always holds.
        """
        memo = self._vmin_memo.get(frequency_mhz)
        if memo is not None:
            return memo
        if frequency_mhz <= 0:
            raise FrequencyRangeError("frequency must be positive")
        f_lo = self.max_frequency_mhz(self.v_floor)
        f_hi = self.max_frequency_mhz(self.v_ceiling)
        if frequency_mhz <= f_lo:
            result = self.v_floor
        elif frequency_mhz > f_hi:
            raise FrequencyRangeError(
                f"{frequency_mhz} MHz exceeds the {f_hi:.0f} MHz ceiling "
                f"at {self.v_ceiling} V"
            )
        else:
            result = brent_root(
                lambda v: self.max_frequency_mhz(v) - frequency_mhz,
                self.v_floor,
                self.v_ceiling,
            )
        self._vmin_memo[frequency_mhz] = result
        return result

    def quantize_voltage(
        self,
        frequency_mhz: float,
        rails: Iterable[float] | None = None,
    ) -> float:
        """Lowest discrete voltage rail that supports ``frequency_mhz``.

        ``rails`` defaults to the paper's Table 4 supply set.  This is
        the operation the paper performs with its SPICE lookup table
        (Section 4.1, step 8).
        """
        if rails is None:
            rails = PAPER_TECHNOLOGY.voltage_rails
        if frequency_mhz <= 0:
            raise FrequencyRangeError("frequency must be positive")
        for rail in sorted(rails):
            if self.max_frequency_mhz(rail) >= frequency_mhz:
                return rail
        raise FrequencyRangeError(
            f"no rail in {sorted(rails)} supports {frequency_mhz} MHz"
        )

    def sweep(self, voltages: Iterable[float]) -> list:
        """Evaluate the curve over many voltages (Figure 5 series)."""
        return [(v, self.max_frequency_mhz(v)) for v in voltages]
