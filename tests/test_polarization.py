"""Jones/Stokes/Poincare building blocks and their geometric invariants."""
import math

import numpy as np
import pytest

from biphoton import (
    CITIES,
    NAMED_STATES,
    GlobePoint,
    JonesVector,
    PoincarePoint,
    apply_jones,
    globe_to_poincare,
    jones_from_poincare,
    linear_jones,
    overlap,
    poincare_from_jones,
    poincare_to_globe,
    sphere_angle,
    stokes_from_jones,
    waveplate,
)
from oracles import random_jones, random_point

RT2 = math.sqrt(2.0)


# ---------------------------------------------------------------- types


def test_jones_vector_normalizes_and_canonicalizes():
    j = JonesVector(2.0j, 2.0j)
    assert abs(abs(j.h) ** 2 + abs(j.v) ** 2 - 1.0) < 1e-12
    assert j.h.imag == 0.0 and j.h.real >= 0.0
    assert abs(j.h - 1 / RT2) < 1e-12 and abs(j.v - 1 / RT2) < 1e-12


def test_jones_vector_zero_rejected():
    with pytest.raises(ValueError):
        JonesVector(0.0, 0.0)


@pytest.mark.parametrize(
    "h, v",
    [(math.nan, 1.0), (math.inf, 1.0), (1.0, complex(0.0, -math.inf)), (complex(math.nan, 0.0), 0.0)],
)
def test_jones_vector_non_finite_rejected(h, v):
    with pytest.raises(ValueError, match="finite"):
        JonesVector(h, v)


def test_jones_vector_canonical_phase_when_h_zero():
    j = JonesVector(0.0, -1.0j)
    assert j.v.real > 0.0 and abs(j.v.imag) < 1e-12


def test_poincare_point_validation_and_wrapping():
    with pytest.raises(ValueError):
        PoincarePoint(-1.0, 0.0)
    with pytest.raises(ValueError):
        PoincarePoint(181.0, 0.0)
    assert PoincarePoint(90.0, 270.0).phi == -90.0
    assert PoincarePoint(90.0, -180.0).phi == 180.0


def test_poincare_pole_comparisons_ignore_phi():
    assert PoincarePoint(0.0, 10.0).isclose(PoincarePoint(0.0, -120.0))
    assert PoincarePoint(180.0, 55.0).isclose(PoincarePoint(180.0, 0.0))
    assert not PoincarePoint(90.0, 10.0).isclose(PoincarePoint(90.0, 11.0))


def test_globe_point_validation():
    with pytest.raises(ValueError):
        GlobePoint(91.0, 0.0)
    assert GlobePoint(10.0, 200.0).longitude == -160.0


@pytest.mark.parametrize(
    "value",
    [
        JonesVector(0.3, 0.6 + 0.4j),
        PoincarePoint(34.0, -120.0),
        GlobePoint(-47.75, 179.05),
    ],
)
def test_json_round_trip(value):
    assert type(value).from_json(value.to_json()) == value


def test_stokes_json_round_trip():
    from biphoton import StokesVector

    s = StokesVector(0.1, -0.2, 0.3)
    assert StokesVector.from_json(s.to_json()) == s


# ---------------------------------------------------------------- conversions


def test_jones_from_poincare_h_pole():
    for phi in (0.0, 45.0, -120.0):
        j = jones_from_poincare(PoincarePoint(0.0, phi))
        assert j.isclose(JonesVector(1.0, 0.0))


def test_jones_from_poincare_v_pole():
    j = jones_from_poincare(PoincarePoint(180.0, 0.0))
    assert j.isclose(JonesVector(0.0, 1.0))


def test_jones_from_poincare_equator():
    j = jones_from_poincare(PoincarePoint(90.0, 0.0))
    assert j.isclose(JonesVector(1 / RT2, 1 / RT2))


def test_poincare_from_jones_named_points():
    p = poincare_from_jones(JonesVector(1.0, 0.0))
    assert p.theta < 1e-12
    p = poincare_from_jones(JonesVector(1 / RT2, 1j / RT2))
    assert abs(p.theta - 90.0) < 1e-10 and abs(p.phi - 90.0) < 1e-10


def test_poincare_jones_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = random_point(rng)
        q = poincare_from_jones(jones_from_poincare(p))
        assert abs(q.theta - p.theta) < 1e-10
        if not p.at_pole:
            dphi = (q.phi - p.phi) % 360.0
            assert min(dphi, 360.0 - dphi) < 1e-10


def test_overlap_examples():
    h, v, d = NAMED_STATES["H"], NAMED_STATES["V"], NAMED_STATES["D"]
    assert abs(overlap(h, v)) < 1e-12
    assert abs(overlap(h, d) - 1 / RT2) < 1e-12
    rng = np.random.default_rng(12)
    for _ in range(20):
        j = random_jones(rng)
        assert abs(overlap(j, j) - 1.0) < 1e-12


def test_overlap_bounded():
    rng = np.random.default_rng(13)
    for _ in range(200):
        assert abs(overlap(random_jones(rng), random_jones(rng))) <= 1.0 + 1e-12


def test_stokes_named_states():
    assert np.allclose(
        stokes_from_jones(NAMED_STATES["H"]).as_array(), [1, 0, 0], atol=1e-12
    )
    assert np.allclose(
        stokes_from_jones(NAMED_STATES["D"]).as_array(), [0, 1, 0], atol=1e-12
    )
    assert np.allclose(
        stokes_from_jones(JonesVector(1 / RT2, 1j / RT2)).as_array(),
        [0, 0, 1],
        atol=1e-12,
    )


def test_stokes_unit_length_random():
    rng = np.random.default_rng(14)
    for _ in range(200):
        s = stokes_from_jones(random_jones(rng))
        assert abs(s.length - 1.0) < 1e-12


# ---------------------------------------------------------------- waveplates


def test_half_wave_plate_rotates_h_to_diagonal():
    out = apply_jones(waveplate(180.0, 22.5), NAMED_STATES["H"])
    assert out.isclose(NAMED_STATES["D"], tol=1e-12)


def test_quarter_wave_plate_makes_circular():
    out = apply_jones(waveplate(90.0, 45.0), NAMED_STATES["H"])
    assert abs(abs(stokes_from_jones(out).s3) - 1.0) < 1e-12


def test_plate_fixes_its_own_axis():
    rng = np.random.default_rng(15)
    for _ in range(20):
        axis = rng.uniform(-90.0, 90.0)
        ret = rng.uniform(0.0, 360.0)
        out = apply_jones(waveplate(ret, axis), linear_jones(axis))
        assert out.isclose(linear_jones(axis), tol=1e-10)


def test_waveplates_unitary():
    rng = np.random.default_rng(16)
    for _ in range(50):
        w = waveplate(rng.uniform(0, 360), rng.uniform(-180, 180))
        assert np.allclose(w @ w.conj().T, np.eye(2), atol=1e-12)


def test_half_wave_plate_involution():
    rng = np.random.default_rng(17)
    for _ in range(20):
        w = waveplate(180.0, rng.uniform(-90, 90))
        sq = w @ w
        # proportional to identity (global phase allowed)
        assert abs(sq[0, 1]) < 1e-12 and abs(sq[1, 0]) < 1e-12
        assert abs(sq[0, 0] - sq[1, 1]) < 1e-12


# ---------------------------------------------------------------- globe


def test_globe_north_pole_is_h():
    p = globe_to_poincare(GlobePoint(90.0, 0.0))
    assert p.theta == 0.0
    assert jones_from_poincare(p).isclose(NAMED_STATES["H"])


def test_globe_moscow():
    p = globe_to_poincare(CITIES["moscow"])
    assert abs(p.theta - 34.25) < 1e-12
    assert abs(p.phi - 37.62) < 1e-12


def test_globe_round_trip_random():
    rng = np.random.default_rng(18)
    for _ in range(300):
        g = GlobePoint(rng.uniform(-90, 90), rng.uniform(-179.9, 180))
        back = poincare_to_globe(globe_to_poincare(g))
        assert abs(back.latitude - g.latitude) < 1e-12
        assert abs(back.longitude - g.longitude) < 1e-12


# ---------------------------------------------------------------- geometry


def test_antipodal_points_are_orthogonal():
    rng = np.random.default_rng(19)
    for _ in range(300):
        p = random_point(rng)
        anti = PoincarePoint(180.0 - p.theta, p.phi + 180.0)
        amp = overlap(jones_from_poincare(p), jones_from_poincare(anti))
        assert abs(amp) < 1e-12


def test_overlap_matches_stokes_dot():
    rng = np.random.default_rng(20)
    for _ in range(500):
        a, b = random_jones(rng), random_jones(rng)
        dot = float(
            np.dot(stokes_from_jones(a).as_array(), stokes_from_jones(b).as_array())
        )
        assert abs(abs(overlap(a, b)) ** 2 - (1.0 + dot) / 2.0) < 1e-10


def test_sphere_angle_examples():
    assert abs(sphere_angle(PoincarePoint(0, 0), PoincarePoint(180, 0)) - 180.0) < 1e-9
    assert sphere_angle(PoincarePoint(90, 45), PoincarePoint(90, 45)) < 1e-9
