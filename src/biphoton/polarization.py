"""Single-photon polarization calculus: Jones vectors, Stokes vectors,
Poincare sphere and globe coordinates, waveplates.

Conventions (all public angles in degrees, internal math in double precision):

* A point on the Poincare sphere is (theta, phi) with the axial angle theta
  in [0, 180] measured from the H pole and the azimuth phi in (-180, 180].
  The Jones vector of a point is (cos(theta/2), e^{i phi} sin(theta/2)), so
  points with phi = 0 are linear polarizations at the angle theta/2 to the
  horizontal axis, and phi = +-90 puts the state on the circular meridian.
  (No standard fixes the azimuth origin; this choice is pinned here and used
  consistently everywhere.)
* Jones vectors are kept normalized and in a canonical global phase: h is
  real and >= 0, and when h vanishes v is real and positive.  Canonical
  phase makes value comparisons meaningful; physics never depends on it.
* Waveplates follow diag(1, e^{i delta}) with the fast axis horizontal at
  axis_angle = 0.  Ellipticity handedness follows from this sign choice:
  with it, the named state R = (1, i)/sqrt(2) has s3 = +1.
* The globe picture maps latitude = 90 - theta and longitude = phi, so the
  globe's north pole is the H state.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported only by the functions that build arrays
    import numpy as np

__all__ = [
    "JonesVector",
    "PoincarePoint",
    "StokesVector",
    "GlobePoint",
    "NAMED_STATES",
    "CITIES",
    "linear_jones",
    "jones_from_poincare",
    "poincare_from_jones",
    "overlap",
    "stokes_from_jones",
    "waveplate",
    "apply_jones",
    "globe_to_poincare",
    "poincare_to_globe",
    "sphere_angle",
]

# Components smaller than this are treated as zero when picking the
# phase-reference component; the phase of a tinier component is noise.
_PHASE_REF_TOL = 1e-12
_POLE_TOL = 1e-12


def _abs2(z):
    """|z|^2 as re^2 + im^2; elementwise on numpy arrays and Python scalars."""
    return z.real * z.real + z.imag * z.imag


def _canonical(amplitudes, what: str) -> list[complex]:
    """Normalized amplitudes in canonical global phase.

    The first component of magnitude above _PHASE_REF_TOL is made real and
    >= 0.  JonesVector and BiphotonQutrit are both built through here; `what`
    names the type in the error raised for a zero or non-finite input.
    """
    norm = math.hypot(*map(abs, amplitudes))
    if not norm < math.inf:
        raise ValueError(f"{what} amplitudes must be finite, got {amplitudes}")
    if norm < 1e-150:
        raise ValueError(f"cannot normalize a zero {what}")
    for i, ref in enumerate(amplitudes):  # some component of a unit vector passes
        ref = complex(ref) / norm
        r = abs(ref)
        if r > _PHASE_REF_TOL:
            break
    phase = (ref / r).conjugate()
    unit = [complex(z) / norm * phase for z in amplitudes]
    unit[i] = complex(r)
    return unit


def _stokes(h, v):
    """Stokes vector (s1, s2, s3) of the mode (h, v), elementwise."""
    cross = h.conjugate() * v
    return _abs2(h) - _abs2(v), 2.0 * cross.real, 2.0 * cross.imag


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _wrap_angle(angle: float) -> float:
    """Wrap an angle in degrees into (-180, 180]."""
    wrapped = math.remainder(angle, 360.0)
    if wrapped <= -180.0:
        wrapped += 360.0
    if abs(wrapped) <= 1e-12:
        wrapped = 0.0
    return wrapped


@dataclass(frozen=True)
class JonesVector:
    """Normalized two-component complex polarization amplitude.

    Construction normalizes and applies the canonical global phase, so two
    vectors describing the same physical state compare (close to) equal.
    """

    h: complex
    v: complex

    def __post_init__(self) -> None:
        h, v = _canonical((self.h, self.v), "Jones vector")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.h, self.v])

    def isclose(self, other: "JonesVector", tol: float = 1e-10) -> bool:
        return abs(self.h - other.h) <= tol and abs(self.v - other.v) <= tol

    def to_json(self) -> dict:
        return {"h": [self.h.real, self.h.imag], "v": [self.v.real, self.v.imag]}

    @classmethod
    def from_json(cls, obj: dict) -> "JonesVector":
        return cls(complex(*obj["h"]), complex(*obj["v"]))


@dataclass(frozen=True)
class PoincarePoint:
    """Point on the Poincare sphere: axial angle theta, azimuth phi (degrees).

    At the poles (theta = 0 or 180) the azimuth is meaningless and is
    canonicalized to 0; comparisons there ignore phi.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not 0.0 <= theta <= 180.0:
            raise ValueError(f"theta must be in [0, 180] degrees, got {theta}")
        phi = float(self.phi)
        _require_finite(phi=phi)
        phi = _wrap_angle(phi)
        if theta <= _POLE_TOL or theta >= 180.0 - _POLE_TOL:
            phi = 0.0
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)

    @property
    def at_pole(self) -> bool:
        return self.theta <= _POLE_TOL or self.theta >= 180.0 - _POLE_TOL

    def isclose(self, other: "PoincarePoint", tol: float = 1e-9) -> bool:
        if abs(self.theta - other.theta) > tol:
            return False
        if self.at_pole and other.at_pole:
            return True
        dphi = abs(_wrap_angle(self.phi - other.phi))
        return dphi <= tol or abs(dphi - 360.0) <= tol

    def to_json(self) -> dict:
        return {"theta": self.theta, "phi": self.phi}

    @classmethod
    def from_json(cls, obj: dict) -> "PoincarePoint":
        return cls(obj["theta"], obj["phi"])


@dataclass(frozen=True)
class StokesVector:
    """Real polarization expectation 3-vector (per-photon normalization)."""

    s1: float
    s2: float
    s3: float

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array([self.s1, self.s2, self.s3])

    @property
    def length(self) -> float:
        return math.sqrt(self.s1 ** 2 + self.s2 ** 2 + self.s3 ** 2)

    def to_json(self) -> dict:
        return {"s1": self.s1, "s2": self.s2, "s3": self.s3}

    @classmethod
    def from_json(cls, obj: dict) -> "StokesVector":
        return cls(obj["s1"], obj["s2"], obj["s3"])


@dataclass(frozen=True)
class GlobePoint:
    """Globe coordinates: latitude in [-90, 90], longitude in (-180, 180]."""

    latitude: float
    longitude: float = 0.0

    def __post_init__(self) -> None:
        lat = float(self.latitude)
        if not -90.0 <= lat <= 90.0:
            raise ValueError(f"latitude must be in [-90, 90] degrees, got {lat}")
        lon = float(self.longitude)
        _require_finite(longitude=lon)
        object.__setattr__(self, "latitude", lat)
        object.__setattr__(self, "longitude", _wrap_angle(lon))

    def to_json(self) -> dict:
        return {"latitude": self.latitude, "longitude": self.longitude}

    @classmethod
    def from_json(cls, obj: dict) -> "GlobePoint":
        return cls(obj["latitude"], obj["longitude"])


def linear_jones(angle: float) -> JonesVector:
    """Jones vector of light polarized linearly at `angle` degrees from H."""
    a = math.radians(angle)
    return JonesVector(math.cos(a), math.sin(a))


def jones_from_poincare(p: PoincarePoint) -> JonesVector:
    half = math.radians(p.theta) / 2.0
    return JonesVector(math.cos(half), cmath.exp(1j * math.radians(p.phi)) * math.sin(half))


def poincare_from_jones(j: JonesVector) -> PoincarePoint:
    theta = 2.0 * math.degrees(math.atan2(abs(j.v), abs(j.h)))
    rel = j.v * j.h.conjugate()
    phi = math.degrees(cmath.phase(rel)) if rel != 0 else 0.0
    return PoincarePoint(min(theta, 180.0), phi)


def overlap(bra: JonesVector, ket: JonesVector) -> complex:
    """Scalar product <bra|ket> of two polarization states."""
    return bra.h.conjugate() * ket.h + bra.v.conjugate() * ket.v


def stokes_from_jones(j: JonesVector) -> StokesVector:
    return StokesVector(*_stokes(j.h, j.v))


def waveplate(retardance: float, axis_angle: float) -> np.ndarray:
    """2x2 unitary of a retarder: R(axis) diag(1, e^{i retardance}) R(-axis).

    retardance 180 is a half-wave plate, 90 a quarter-wave plate; the fast
    axis is horizontal at axis_angle = 0.
    """
    import numpy as np

    a = math.radians(axis_angle)
    c, s = math.cos(a), math.sin(a)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    ret = np.array([[1.0, 0.0], [0.0, cmath.exp(1j * math.radians(retardance))]])
    return rot @ ret @ rot.T


def apply_jones(matrix: np.ndarray, j: JonesVector) -> JonesVector:
    """Apply a 2x2 Jones matrix to a state; the global phase is dropped."""
    out = matrix @ j.as_array()
    return JonesVector(out[0], out[1])


def globe_to_poincare(g: GlobePoint) -> PoincarePoint:
    return PoincarePoint(90.0 - g.latitude, g.longitude)


def poincare_to_globe(p: PoincarePoint) -> GlobePoint:
    return GlobePoint(90.0 - p.theta, p.phi)


def sphere_angle(p: PoincarePoint, q: PoincarePoint) -> float:
    """Great-circle angle in degrees between two sphere points.

    atan2(|s_p x s_q|, s_p . s_q) keeps full precision near 0 and 180
    degrees, where acos of the dot product loses about half the digits.
    """
    a = stokes_from_jones(jones_from_poincare(p))
    b = stokes_from_jones(jones_from_poincare(q))
    cross = math.hypot(
        a.s2 * b.s3 - a.s3 * b.s2, a.s3 * b.s1 - a.s1 * b.s3, a.s1 * b.s2 - a.s2 * b.s1
    )
    dot = a.s1 * b.s1 + a.s2 * b.s2 + a.s3 * b.s3
    return math.degrees(math.atan2(cross, dot))


NAMED_STATES: dict[str, JonesVector] = {
    "H": linear_jones(0.0),
    "V": linear_jones(90.0),
    "D": linear_jones(45.0),
    "Dbar": linear_jones(-45.0),
    "R": JonesVector(1.0, 1.0j),
    "L": JonesVector(1.0, -1.0j),
}

# Versioned landmark table for the globe picture.  Coordinates are the
# conventional city values, fixed here so results are reproducible.
CITIES: dict[str, GlobePoint] = {
    "moscow": GlobePoint(55.75, 37.62),
    "turin": GlobePoint(45.07, 7.69),
    "baltimore": GlobePoint(39.29, -76.61),
    "bounty": GlobePoint(-47.75, 179.05),
}
