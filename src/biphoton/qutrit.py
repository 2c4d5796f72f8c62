"""Polarization qutrits of single-mode photon pairs.

A photon pair sharing one frequency and spatial mode spans the three-level
basis {|2,0>, |1,1>, |0,2>} (n photons horizontal, m vertical, n + m = 2).
Any such state factorizes into two single-photon polarizations, so it can be
drawn as an unordered pair of points on the Poincare sphere; this module
provides the algebra in both pictures and the maps between them.

The bosonic sqrt(2) factors for doubly occupied modes live only in the
pair-mode vector F(a, b) (`_pair_modes`), which builds a qutrit from its
halves and, in `experiment`, the detection amplitude vdot(F(f1, f2), C);
every public amplitude refers to normalized states.

The polarization degree is tied to the halves' angular separation sigma by
P = 2 cos(sigma/2) / (1 + cos^2(sigma/2)).  That closed form is derived
here (not taken from a reference) and the test suite checks it against the
Stokes expectation, whose closed form it checks in turn against Stokes
operators rebuilt from the ladder algebra.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # numpy is imported only by the functions that build arrays
    import numpy as np

from .polarization import (
    JonesVector,
    PoincarePoint,
    StokesVector,
    _abs2,
    _canonical,
    _wrap_angle,
    jones_from_poincare,
    overlap,
    poincare_from_jones,
    sphere_angle,
)

__all__ = [
    "BiphotonQutrit",
    "PairDecomposition",
    "qutrit_from_pair",
    "qutrit_from_jones_pair",
    "factor_qutrit",
    "pair_amplitude",
    "pair_norm",
    "qutrit_inner_product",
    "stokes_expectation",
    "polarization_degree",
    "subtense_angle",
    "STOKES_OPERATORS",
]

_SQRT2 = math.sqrt(2.0)
_SAME_THETA = 1e-9  # degrees; see PairDecomposition


@dataclass(frozen=True)
class BiphotonQutrit:
    """Normalized amplitudes (c1, c2, c3) over {|2,0>, |1,1>, |0,2>}.

    Canonical global phase: the first amplitude of non-negligible magnitude
    is made real and >= 0.
    """

    c1: complex
    c2: complex
    c3: complex

    def __post_init__(self) -> None:
        c1, c2, c3 = _canonical((self.c1, self.c2, self.c3), "qutrit")
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "c3", c3)

    def amplitudes(self) -> np.ndarray:
        import numpy as np

        return np.array([self.c1, self.c2, self.c3])

    @property
    def d1(self) -> float:
        return abs(self.c1)

    @property
    def d3(self) -> float:
        return abs(self.c3)

    @property
    def phi1(self) -> float:
        """arg(c1) - arg(c2) in degrees, wrapped to (-180, 180]."""
        return _arg_diff_degrees(self.c1, self.c2)

    @property
    def phi3(self) -> float:
        """arg(c3) - arg(c2) in degrees, wrapped to (-180, 180]."""
        return _arg_diff_degrees(self.c3, self.c2)

    def isclose(self, other: "BiphotonQutrit", tol: float = 1e-9) -> bool:
        return (
            abs(self.c1 - other.c1) <= tol
            and abs(self.c2 - other.c2) <= tol
            and abs(self.c3 - other.c3) <= tol
        )

    def to_json(self) -> dict:
        return {
            "c1": [self.c1.real, self.c1.imag],
            "c2": [self.c2.real, self.c2.imag],
            "c3": [self.c3.real, self.c3.imag],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BiphotonQutrit":
        return cls(complex(*obj["c1"]), complex(*obj["c2"]), complex(*obj["c3"]))


def _arg_diff_degrees(x: complex, y: complex) -> float:
    return _wrap_angle(math.degrees(cmath.phase(x) - cmath.phase(y)))


@dataclass(frozen=True)
class PairDecomposition:
    """Unordered pair of sphere points, stored sorted on theta, then phi.

    Thetas within _SAME_THETA degrees count as equal: the halves of a
    source state are mirror images whose thetas differ by round-off only,
    so their order is decided by phi, not by the last bit of theta.
    """

    p: PoincarePoint
    q: PoincarePoint

    def __post_init__(self) -> None:
        if _sorts_before(self.q, self.p):
            p, q = self.q, self.p
            object.__setattr__(self, "p", p)
            object.__setattr__(self, "q", q)

    def jones(self) -> tuple[JonesVector, JonesVector]:
        return jones_from_poincare(self.p), jones_from_poincare(self.q)


def _sorts_before(a: PoincarePoint, b: PoincarePoint) -> bool:
    if abs(a.theta - b.theta) > _SAME_THETA:
        return a.theta < b.theta
    return (a.phi, a.theta) < (b.phi, b.theta)


def _pair_modes(ah, av, bh, bv):
    """F(a, b) = a^dagger b^dagger |vac> over {|2,0>, |1,1>, |0,2>}, unnormalized.

    Elementwise in the mode amplitudes.  The grouping keeps F bitwise
    symmetric under a <-> b.
    """
    return _SQRT2 * (ah * bh), ah * bv + av * bh, _SQRT2 * (av * bv)


def qutrit_from_jones_pair(a: JonesVector, b: JonesVector) -> BiphotonQutrit:
    """Two-photon state created in modes a and b, as a normalized qutrit."""
    return BiphotonQutrit(*_pair_modes(a.h, a.v, b.h, b.v))


def qutrit_from_pair(p: PoincarePoint, q: PoincarePoint) -> BiphotonQutrit:
    return qutrit_from_jones_pair(jones_from_poincare(p), jones_from_poincare(q))


def pair_norm(a: JonesVector, b: JonesVector) -> float:
    """Norm of the unnormalized two-photon state created in modes a and b."""
    return math.sqrt(1.0 + abs(overlap(a, b)) ** 2)


def _projective_quadratic_roots(
    a: complex, b: complex, c: complex
) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Both projective roots (alpha, beta) of a (beta/alpha)^2 + b (beta/alpha) + c = 0.

    Roots at infinity come out as (0, 1); no perturbation of degenerate
    coefficients, so exact zeros stay exact.
    """
    scale = max(abs(a), abs(b), abs(c))
    tol = 1e-15 * scale
    if abs(a) <= tol and abs(b) <= tol:
        return (0.0, 1.0), (0.0, 1.0)
    disc = cmath.sqrt(b * b - 4.0 * a * c)
    q = -(b + disc) / 2.0 if abs(b + disc) >= abs(b - disc) else -(b - disc) / 2.0
    if abs(q) <= tol:
        # q can only vanish when c does; roots are 0 and -b/a
        return (1.0, 0.0), (a, -b)
    return (a, q), (q, c)


def factor_qutrit(s: BiphotonQutrit) -> PairDecomposition:
    """Split a qutrit into its two single-photon polarizations.

    The Jones ratios (beta : alpha) of the halves solve the homogeneous
    quadratic c1 beta^2 - sqrt(2) c2 alpha beta + c3 alpha^2 = 0.  Every
    qutrit factorizes.  Coincident halves come back as two points up to
    about 1e-5 deg apart: their discriminant is zero only up to round-off
    in the stored amplitudes, and the split grows as its square root.
    """
    roots = _projective_quadratic_roots(s.c1, -_SQRT2 * s.c2, s.c3)
    points = [poincare_from_jones(JonesVector(alpha, beta)) for alpha, beta in roots]
    return PairDecomposition(points[0], points[1])


def pair_amplitude(
    c: JonesVector, d: JonesVector, a: JonesVector, b: JonesVector
) -> complex:
    """Transition amplitude between the unnormalized pairs (c,d) and (a,b).

    Equals the permanent of the 2x2 overlap matrix; vanishes exactly when
    the two-photon states are orthogonal.
    """
    return overlap(c, a) * overlap(d, b) + overlap(c, b) * overlap(d, a)


def qutrit_inner_product(x: BiphotonQutrit, y: BiphotonQutrit) -> complex:
    """<x|y> = conj(x1) y1 + conj(x2) y2 + conj(x3) y3."""
    return x.c1.conjugate() * y.c1 + x.c2.conjugate() * y.c2 + x.c3.conjugate() * y.c3


STOKES_OPERATORS: tuple[np.ndarray, np.ndarray, np.ndarray]


def __getattr__(name: str):
    """Build STOKES_OPERATORS on first access, so importing needs no numpy."""
    if name != "STOKES_OPERATORS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np

    # Stokes operators in the qutrit basis (derived once from the ladder
    # algebra of the H/V modes; the test suite re-derives them from first
    # principles).  _pair_stokes is their expectation in closed form.
    operators = (
        np.diag([2.0, 0.0, -2.0]).astype(complex),
        _SQRT2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex),
        _SQRT2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex),
    )
    return globals().setdefault("STOKES_OPERATORS", operators)


def _pair_stokes(c1, c2, c3):
    """<C|S_k|C> / 2 for k = 1, 2, 3: the pair's per-photon Stokes vector.

    Elementwise in the qutrit amplitudes.
    """
    x = c1.conjugate() * c2 + c2.conjugate() * c3
    return _abs2(c1) - _abs2(c3), _SQRT2 * x.real, _SQRT2 * x.imag


def stokes_expectation(s: BiphotonQutrit) -> StokesVector:
    """Stokes expectation of the pair, divided by the photon number 2.

    The result is parallel to the sum of the halves' Stokes vectors and its
    length is the polarization degree; it is not unit length in general.
    """
    return StokesVector(*_pair_stokes(s.c1, s.c2, s.c3))


def polarization_degree(s: BiphotonQutrit) -> float:
    """Length of the pair's per-photon Stokes vector, in [0, 1]."""
    return stokes_expectation(s).length


def subtense_angle(s: BiphotonQutrit) -> float:
    """Great-circle angle in degrees between the qutrit's two halves.

    Coincident halves read up to about 1e-5 deg, not 0: sigma grows as the
    square root of the round-off discriminant (see factor_qutrit).
    """
    pair = factor_qutrit(s)
    return sphere_angle(pair.p, pair.q)
