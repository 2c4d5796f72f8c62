"""Model of the anticorrelation-dip experiment.

Source: a two-crystal pair source driven through a half-wave plate at angle
chi, with a quartz-plate phase delta_phi between the doubly horizontal and
doubly vertical amplitudes.  The emitted pair is
(sin 2chi, 0, e^{i delta_phi} cos 2chi) in the qutrit basis.

Registration: a 50/50 beamsplitter feeding two detectors, each behind a
quarter-wave plate plus polarizer selecting one polarization, and a
coincidence circuit of resolution T_c.  True coincidences follow the
squared two-photon amplitude; accidentals are R1 R2 T_c, which sets the
g2 = 1 floor.

Every rate comes from one elementwise kernel of the qutrit amplitudes and
the two filter modes.  It uses only +, *, conjugate, real and imag, so the
sweeps run it on numpy columns and the scalar API (`singles_rate`,
`coincidence_rate`, `g2`, `detection_amplitude`) on Python complex
numbers.  The detection amplitude is vdot(F(f1, f2), state) with
F(c, d) = (sqrt2 c_h d_h, c_h d_v + c_v d_h, sqrt2 c_v d_v), so no rate
needs the state's halves; they are factorized only where they are reported.

Absolute scales are model conventions: the default RateModel (1e4 pairs/s,
10% efficiencies, T_c = 5.5 ns, no background) gives realistic g2 contrast,
and the factor 1/2 for the pair splitting at the beamsplitter is fixed.
Curve shapes, minima positions and ratios are the physical content.
"""
from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .polarization import JonesVector, _abs2, _require_finite, _stokes
from .qutrit import BiphotonQutrit, _pair_modes, _pair_stokes

if TYPE_CHECKING:  # numpy is imported only by the functions that build arrays
    import numpy as np

__all__ = [
    "SourceSetting",
    "FilterSetting",
    "RateModel",
    "SweepResult",
    "ZeroSinglesError",
    "source_state",
    "filter_jones",
    "detection_amplitude",
    "coincidence_rate",
    "rate_closed_form",
    "singles_rate",
    "g2",
    "sweep_chi",
    "sweep_filter",
    "simulate_counts",
    "DEFAULT_GRID_STEP",
]

DEFAULT_GRID_STEP = 0.5

_CSV_HEADER = "param,R1,R2,Rc,g2\n"


class ZeroSinglesError(ValueError):
    """g2 is undefined when a singles rate vanishes."""


# why g2 comes out inf or nan when the singles are not zero
_G2_OUT_OF_RANGE = "the rate model's scales take the rates or g2 beyond the float range"


def _write_atomic(path, text: str) -> None:
    """Write text to path atomically.

    The text goes to a temporary file in the same directory, which then
    replaces path, so path never holds a partial file.  The temporary name
    is random per call, so concurrent writes of one path never share (or
    delete) each other's file.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


@dataclass(frozen=True)
class SourceSetting:
    """Pump half-wave-plate angle chi and quartz-plate phase, in degrees."""

    chi: float
    delta_phi: float = 180.0

    def __post_init__(self) -> None:
        _require_finite(chi=self.chi, delta_phi=self.delta_phi)


@dataclass(frozen=True)
class FilterSetting:
    """Detection filter: QWP axis angle and polarizer angle, in degrees."""

    qwp_axis: float
    polarizer_angle: float

    def __post_init__(self) -> None:
        _require_finite(qwp_axis=self.qwp_axis, polarizer_angle=self.polarizer_angle)


@dataclass(frozen=True)
class RateModel:
    """Absolute-scale knobs of the counting model.

    pair_rate: photon pairs per second arriving at the beamsplitter.
    eta1, eta2: detector efficiencies, in [0, 1].
    coincidence_window: circuit resolution T_c in seconds.
    background1, background2: dark/stray counts per second per detector.
    """

    pair_rate: float = 1.0e4
    eta1: float = 0.1
    eta2: float = 0.1
    coincidence_window: float = 5.5e-9
    background1: float = 0.0
    background2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("pair_rate", "background1", "background2"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        for name in ("eta1", "eta2"):  # detection probabilities
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not 0.0 < self.coincidence_window < math.inf:
            raise ValueError("coincidence_window must be finite and positive")


def _source_amplitudes(sin_2chi, cos_2chi, delta_phi: float):
    """(sin 2chi, 0, e^{i dphi} cos 2chi), elementwise in the sines and cosines."""
    return sin_2chi, 0.0, cmath.exp(1j * math.radians(delta_phi)) * cos_2chi


def source_state(setting: SourceSetting) -> BiphotonQutrit:
    """Qutrit emitted by the two-crystal source: (sin 2chi, 0, e^{i dphi} cos 2chi)."""
    two_chi = 2.0 * math.radians(setting.chi)
    return BiphotonQutrit(
        *_source_amplitudes(math.sin(two_chi), math.cos(two_chi), setting.delta_phi)
    )


def _selected_mode(cos_a, sin_a, cos_z, sin_z):
    """(h, v) of W(a)^dagger (cos z, sin z), with W(a) the QWP at axis a.

    A state passes the QWP and a polarizer at z fully iff the plate maps it
    onto the polarizer axis, so this is the mode the filter selects.
    Elementwise in the cosines and sines of a and z.
    """
    cross = (1.0 + 1.0j) * (cos_a * sin_a)
    h = (cos_a * cos_a - 1.0j * (sin_a * sin_a)) * cos_z + cross * sin_z
    v = cross * cos_z + (sin_a * sin_a - 1.0j * (cos_a * cos_a)) * sin_z
    return h, v


def _filter_mode(f: FilterSetting) -> tuple[complex, complex]:
    a = math.radians(f.qwp_axis)
    z = math.radians(f.polarizer_angle)
    return _selected_mode(math.cos(a), math.sin(a), math.cos(z), math.sin(z))


def filter_jones(f: FilterSetting) -> JonesVector:
    """Polarization selected by a QWP followed by a linear polarizer."""
    return JonesVector(*_filter_mode(f))


def _amplitude(c1, c2, c3, h1, v1, h2, v2):
    """vdot(F(f1, f2), C): the amplitude that modes f1 and f2 take the pair C."""
    f1, f2, f3 = _pair_modes(h1, v1, h2, v2)
    return f1.conjugate() * c1 + f2.conjugate() * c2 + f3.conjugate() * c3


def _photons_in_mode(s1, s2, s3, h, v):
    """Mean number of pair photons in mode (h, v): 1 + u . s.

    u is the mode's Stokes vector and s = (s1, s2, s3) the pair's
    per-photon Stokes expectation.
    """
    u1, u2, u3 = _stokes(h, v)
    return 1.0 + (u1 * s1 + u2 * s2 + u3 * s3)


def _rates(c1, c2, c3, h1, v1, h2, v2, m: RateModel):
    """(R1, R2, Rc) in counts/s for the pair C behind filter modes f1 and f2.

    Half of the pair flux reaches each detector.  Only + * conjugate real
    imag are used, so this runs elementwise on numpy columns and on Python
    complex scalars alike.
    """
    s = _pair_stokes(c1, c2, c3)
    amp = _amplitude(c1, c2, c3, h1, v1, h2, v2)
    r1 = m.pair_rate * m.eta1 * 0.5 * _photons_in_mode(*s, h1, v1) + m.background1
    r2 = m.pair_rate * m.eta2 * 0.5 * _photons_in_mode(*s, h2, v2) + m.background2
    rc = m.pair_rate * m.eta1 * m.eta2 * 0.5 * _abs2(amp)
    return r1, r2, rc


def _g2(r1, r2, rc, window: float):
    """Total coincidences over accidentals R1 R2 T_c; the caller rules out zero singles."""
    accidental = r1 * r2 * window
    return (rc + accidental) / accidental


def _state_rates(state: BiphotonQutrit, f1: FilterSetting, f2: FilterSetting, m: RateModel):
    return _rates(state.c1, state.c2, state.c3, *_filter_mode(f1), *_filter_mode(f2), m)


def detection_amplitude(
    state: BiphotonQutrit, f1: FilterSetting, f2: FilterSetting
) -> complex:
    """Normalized two-photon amplitude for joint transmission of the filters."""
    return _amplitude(state.c1, state.c2, state.c3, *_filter_mode(f1), *_filter_mode(f2))


def coincidence_rate(
    state: BiphotonQutrit,
    f1: FilterSetting,
    f2: FilterSetting,
    m: RateModel = RateModel(),
) -> float:
    """True coincidence rate in counts/s (accidentals excluded)."""
    return _state_rates(state, f1, f2, m)[2]


def rate_closed_form(chi, zeta1, zeta2):
    """Coincidence-rate shape for the delta_phi = 180 source and linear filters.

    Dimensionless; broadcasts over numpy arrays.
    """
    import numpy as np

    two_chi = 2.0 * np.radians(np.asarray(chi, dtype=float))
    z1 = np.radians(np.asarray(zeta1, dtype=float))
    z2 = np.radians(np.asarray(zeta2, dtype=float))
    bracket = np.cos(z1) * np.cos(z2) * np.sin(two_chi) - np.sin(z1) * np.sin(z2) * np.cos(two_chi)
    return bracket ** 2


def singles_rate(
    state: BiphotonQutrit,
    f: FilterSetting,
    m: RateModel = RateModel(),
    detector: int = 1,
) -> float:
    """Single-detector counting rate behind one filter, in counts/s.

    The mean number of pair photons in the filter mode is
    1 + u . s where u is the filter's Stokes vector and s the pair's
    per-photon Stokes expectation; half of the flux reaches each detector.
    """
    if detector not in (1, 2):
        raise ValueError("detector must be 1 or 2")
    return _state_rates(state, f, f, m)[detector - 1]


def g2(
    state: BiphotonQutrit,
    f1: FilterSetting,
    f2: FilterSetting,
    m: RateModel = RateModel(),
) -> float:
    """Normalized second-order correlation (total coincidences / accidentals)."""
    r1, r2, rc = _state_rates(state, f1, f2, m)
    if r1 <= 0.0 or r2 <= 0.0:
        raise ZeroSinglesError("g2 undefined: a singles rate is zero")
    try:
        value = _g2(r1, r2, rc, m.coincidence_window)
    except ZeroDivisionError:  # the accidentals fall below the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"g2 is not finite: {_G2_OUT_OF_RANGE}")
    return value


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Table of (parameter, R1, R2, Rc, g2) rows from a parameter scan.

    After `simulate_counts` the rate columns hold integer counts accumulated
    over `duration` seconds per point (duration is None for ideal rates) and
    g2 is re-estimated from those counts; rows with a zero sampled singles
    count carry g2 = nan (null in JSON).
    """

    param_name: str
    param: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    rc: np.ndarray
    g2: np.ndarray
    coincidence_window: float
    duration: float | None = None

    def __len__(self) -> int:
        return len(self.param)

    def argmin_g2(self) -> tuple[float, float]:
        """(parameter value, g2 value) at the smallest g2 in the table."""
        import numpy as np

        i = int(np.nanargmin(self.g2))
        return float(self.param[i]), float(self.g2[i])

    def to_csv(self) -> str:
        """The header line, then "%.6f,%.8e,%.8e,%.8e,%.8e\\n" % row for each
        row, byte for byte (built from whole columns, see _digits)."""
        from ._digits import csv_rows

        return _CSV_HEADER + csv_rows(self.param, self.r1, self.r2, self.rc, self.g2)

    def to_json_obj(self) -> dict:
        def column(values: np.ndarray) -> list:
            return [None if math.isnan(v) else float(v) for v in values]

        return {
            "param_name": self.param_name,
            "coincidence_window": self.coincidence_window,
            "duration": self.duration,
            "rows": [
                {"param": p, "R1": a, "R2": b, "Rc": c, "g2": g}
                for p, a, b, c, g in zip(
                    column(self.param),
                    column(self.r1),
                    column(self.r2),
                    column(self.rc),
                    column(self.g2),
                )
            ],
        }

    def to_json(self) -> str:
        """The text of json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\\n".

        Built from whole columns: every number is its float repr, as json
        writes it (see _digits).
        """
        head = (
            '{\n  "coincidence_window": %s,\n  "duration": %s,\n  "param_name": %s,\n  "rows": '
            % tuple(map(json.dumps, (self.coincidence_window, self.duration, self.param_name)))
        )
        if not len(self):
            return head + "[]\n}\n"
        from ._digits import json_rows

        rows = json_rows(self.r1, self.r2, self.rc, self.g2, self.param)
        return "".join((head, "[\n", rows, "\n  ]\n}\n"))

    def write(self, path, fmt: str = "csv") -> None:
        """Write the CSV or JSON text to path atomically (see _write_atomic)."""
        _write_atomic(path, self.to_csv() if fmt == "csv" else self.to_json())


def _validate_grid(name: str, grid) -> np.ndarray:
    import numpy as np

    if grid is None:  # a fresh default grid per call: the result owns its param
        return np.linspace(0.0, 90.0, round(90.0 / DEFAULT_GRID_STEP) + 1)
    values = np.asarray(grid, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("grid must be a non-empty 1-d sequence of angles")
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must hold finite angles only")
    if values.size > 1 and not np.all(np.diff(values) > 0):
        raise ValueError("grid must be strictly increasing")
    return values


def _check_sampling(duration: float, drift: float) -> None:
    if not 0.0 < duration < math.inf:
        raise ValueError(f"duration_per_point must be finite and positive, got {duration}")
    if not 0.0 <= drift <= 1.0:
        raise ValueError(f"pump_drift must be finite and in [0, 1], got {drift}")


def _sweep_result(
    name: str, grid: np.ndarray, modes, m: RateModel, seed, duration: float, drift: float
) -> SweepResult:
    """The ideal table of the pair and filter modes `modes` (the arguments of
    _rates before m) over grid, sampled when seed is given."""
    import numpy as np

    # checked with or without a seed, so an unused bad value is not ignored
    _check_sampling(duration, drift)
    # scales beyond the float range give inf or nan here, rejected below
    with np.errstate(all="ignore"):
        rates = _rates(*modes, m)
        r1, r2, rc = (np.broadcast_to(column, grid.shape).copy() for column in rates)
        g = _g2(r1, r2, rc, m.coincidence_window)
    zero = np.flatnonzero((r1 <= 0.0) | (r2 <= 0.0))
    if zero.size:
        raise ZeroSinglesError(
            f"g2 undefined at {name} = {grid[zero[0]]:.4f} deg: a singles rate is zero"
        )
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise ValueError(
            f"g2 is not finite at {name} = {grid[bad[0]]:.4f} deg: {_G2_OUT_OF_RANGE}"
        )
    result = SweepResult(name, grid, r1, r2, rc, g, m.coincidence_window)
    if seed is not None:
        result = simulate_counts(result, duration, seed, drift)
    return result


def sweep_chi(
    zeta1: float,
    zeta2: float,
    delta_phi: float = 180.0,
    m: RateModel = RateModel(),
    chi_grid=None,
    seed: int | None = None,
    duration_per_point: float = 1.0,
    pump_drift: float = 0.0,
) -> SweepResult:
    """Scan the pump half-wave-plate angle with both polarizers fixed.

    With a seed, Poisson counts over duration_per_point replace the ideal
    rates (see simulate_counts).
    """
    import numpy as np

    _require_finite(zeta1=zeta1, zeta2=zeta2, delta_phi=delta_phi)
    grid = _validate_grid("chi_grid", chi_grid)
    two_chi = 2.0 * np.radians(grid)
    amplitudes = _source_amplitudes(np.sin(two_chi), np.cos(two_chi), delta_phi)
    f1 = _filter_mode(FilterSetting(zeta1, zeta1))
    f2 = _filter_mode(FilterSetting(zeta2, zeta2))
    modes = (*amplitudes, *f1, *f2)
    return _sweep_result("chi", grid, modes, m, seed, duration_per_point, pump_drift)


def sweep_filter(
    chi: float,
    delta_phi: float = 180.0,
    which_filter: str = "P1",
    fixed_zeta: float = 60.0,
    m: RateModel = RateModel(),
    zeta_grid=None,
    seed: int | None = None,
    duration_per_point: float = 1.0,
    pump_drift: float = 0.0,
) -> SweepResult:
    """Scan one polarizer with the source and the other polarizer fixed."""
    import numpy as np

    if which_filter not in ("P1", "P2"):
        raise ValueError("which_filter must be 'P1' or 'P2'")
    state = source_state(SourceSetting(chi, delta_phi))
    _require_finite(fixed_zeta=fixed_zeta)
    grid = _validate_grid("zeta_grid", zeta_grid)
    zeta = np.radians(grid)
    cos_z, sin_z = np.cos(zeta), np.sin(zeta)
    scanned = _selected_mode(cos_z, sin_z, cos_z, sin_z)
    fixed = _filter_mode(FilterSetting(fixed_zeta, fixed_zeta))
    if which_filter == "P1":
        f1, f2, name = scanned, fixed, "zeta1"
    else:
        f1, f2, name = fixed, scanned, "zeta2"
    modes = (state.c1, state.c2, state.c3, *f1, *f2)
    return _sweep_result(name, grid, modes, m, seed, duration_per_point, pump_drift)


def simulate_counts(
    result: SweepResult,
    duration_per_point: float,
    seed: int,
    pump_drift: float = 0.0,
) -> SweepResult:
    """Replace ideal rates by Poisson counts accumulated per grid point.

    All rows are drawn in one call from a single generator seeded with
    `seed`, row by row in table order, so a seed gives the same counts on
    every run.  pump_drift is the total fractional power decrease across
    the sweep, applied as a linear ramp; it must lie in [0, 1].
    """
    import numpy as np

    _check_sampling(duration_per_point, pump_drift)
    n = len(result)
    if n > 1 and pump_drift:
        ramp = 1.0 - pump_drift * np.arange(n) / (n - 1)
    else:
        ramp = np.ones(n)
    rates = np.column_stack((result.r1, result.r2, result.rc))
    with np.errstate(over="ignore"):  # an infinite mean is rejected below
        means = (ramp * duration_per_point)[:, None] * rates
    # the largest mean numpy's Poisson sampler takes ("lam value too large")
    limit = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)
    if not means.max() <= limit:
        raise ValueError(
            f"duration_per_point = {duration_per_point} gives Poisson means up to "
            f"{means.max():.3g} counts, above the sampler's limit of {limit:.3g}"
        )
    counts = np.random.default_rng(seed).poisson(means).astype(float)
    est1, est2, estc = (counts / duration_per_point).T
    with np.errstate(divide="ignore", invalid="ignore"):
        gg = _g2(est1, est2, estc, result.coincidence_window)
    gg[(est1 == 0) | (est2 == 0)] = np.nan
    return SweepResult(
        result.param_name,
        result.param.copy(),
        counts[:, 0],
        counts[:, 1],
        counts[:, 2],
        gg,
        result.coincidence_window,
        duration=duration_per_point,
    )
