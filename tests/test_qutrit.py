"""Pair-state algebra: construction, factorization, amplitudes, Stokes.

The permanent amplitude and the closed-form Stokes expectation are checked
against the Fock-space oracles in oracles.py.
"""
import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    NAMED_STATES,
    BiphotonQutrit,
    PairDecomposition,
    PoincarePoint,
    factor_qutrit,
    pair_amplitude,
    pair_norm,
    polarization_degree,
    qutrit_from_jones_pair,
    qutrit_from_pair,
    qutrit_inner_product,
    stokes_expectation,
    stokes_from_jones,
    subtense_angle,
)
from biphoton.qutrit import _pair_modes
from oracles import (
    fock_amplitude,
    ladder_stokes_operators,
    random_jones,
    random_point,
    random_qutrit,
)

H_POINT = PoincarePoint(0.0, 0.0)
V_POINT = PoincarePoint(180.0, 0.0)


def dip_input_state() -> BiphotonQutrit:
    # two-crystal source at chi=30 deg, quartz phase pi
    return BiphotonQutrit(math.sqrt(0.75), 0.0, -0.5)


# ---------------------------------------------------------------- type


def test_qutrit_normalization_and_phase():
    s = BiphotonQutrit(0.0, 2.0j, -2.0j)
    assert abs(np.linalg.norm(s.amplitudes()) - 1.0) < 1e-12
    assert s.c2.imag == 0.0 and s.c2.real > 0.0


def test_qutrit_zero_rejected():
    with pytest.raises(ValueError):
        BiphotonQutrit(0.0, 0.0, 0.0)


@pytest.mark.parametrize(
    "amplitudes", [(math.inf, 0.0, 1.0), (0.0, math.nan, 1.0), (1.0, 0.0, complex(0.0, -math.inf))]
)
def test_qutrit_non_finite_rejected(amplitudes):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            BiphotonQutrit(*amplitudes)


def test_qutrit_accessors():
    s = dip_input_state()
    assert abs(s.d1 ** 2 / s.d3 ** 2 - 3.0) < 1e-12
    # with c2 = 0 the relative phase sits entirely between c1 and c3
    assert abs(abs(s.phi3 - s.phi1) - 180.0) < 1e-9


def test_qutrit_json_round_trip():
    s = BiphotonQutrit(0.3, 0.5j, -0.4 + 0.2j)
    assert BiphotonQutrit.from_json(s.to_json()).isclose(s, tol=1e-15)


# ---------------------------------------------------------------- construction


def test_pair_h_v_gives_one_one():
    s = qutrit_from_pair(H_POINT, V_POINT)
    assert s.isclose(BiphotonQutrit(0.0, 1.0, 0.0), tol=1e-12)


def test_pair_h_h_gives_two_zero():
    s = qutrit_from_pair(H_POINT, H_POINT)
    assert s.isclose(BiphotonQutrit(1.0, 0.0, 0.0), tol=1e-12)


def test_pair_of_opposite_linear_tilts():
    # photons linear at +-37.25 deg sit at +-74.5 deg from H on the sphere
    s = qutrit_from_pair(PoincarePoint(74.5, 0.0), PoincarePoint(74.5, 180.0))
    assert abs(s.c2) < 1e-12
    assert abs(s.d1 ** 2 / s.d3 ** 2 - 3.0) < 0.01
    arg_diff = math.degrees(cmath.phase(s.c3) - cmath.phase(s.c1))
    assert abs(abs(arg_diff) - 180.0) < 1e-9


def test_exchange_symmetry_exact():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p, q = random_point(rng), random_point(rng)
        assert qutrit_from_pair(p, q) == qutrit_from_pair(q, p)


# ---------------------------------------------------------------- factorization


def test_factor_one_one_gives_h_and_v():
    pair = factor_qutrit(BiphotonQutrit(0.0, 1.0, 0.0))
    assert pair.p.theta == 0.0
    assert pair.q.theta == 180.0


def test_factor_corner_states_exact():
    pair = factor_qutrit(BiphotonQutrit(1.0, 0.0, 0.0))
    assert pair.p.theta == 0.0 and pair.q.theta == 0.0
    pair = factor_qutrit(BiphotonQutrit(0.0, 0.0, 1.0))
    assert pair.p.theta == 180.0 and pair.q.theta == 180.0


def test_factor_dip_state_gives_opposite_tilts():
    pair = factor_qutrit(dip_input_state())
    for point in (pair.p, pair.q):
        assert abs(point.theta / 2.0 - 37.25) < 0.1
    phis = sorted(abs(point.phi) for point in (pair.p, pair.q))
    assert phis[0] < 1e-9 and abs(phis[1] - 180.0) < 1e-9


def test_factor_round_trip_random():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        s = random_qutrit(rng)
        pair = factor_qutrit(s)
        back = qutrit_from_pair(pair.p, pair.q)
        assert np.max(np.abs(back.amplitudes() - s.amplitudes())) < 1e-9


def test_factor_orders_points():
    rng = np.random.default_rng(23)
    for _ in range(100):
        pair = factor_qutrit(random_qutrit(rng))
        assert (pair.p.theta, pair.p.phi) <= (pair.q.theta, pair.q.phi)


@pytest.mark.parametrize("theta", [125.59330232577078, 90.0, 1e-3, 179.5])
def test_mirror_halves_keep_their_order_when_theta_moves_one_ulp(theta):
    # the halves of a source state: equal theta up to round-off, phi 180 deg apart
    # (the first value is the theta of `state --chi 82.6003 --dphi -152.685`)
    nudged = math.nextafter(theta, 180.0)
    orders = set()
    for t1, t2 in ((theta, nudged), (nudged, theta)):
        a, b = PoincarePoint(t1, 103.6575), PoincarePoint(t2, -76.3425)
        for pair in (PairDecomposition(a, b), PairDecomposition(b, a)):
            orders.add((pair.p.phi, pair.q.phi))
    assert orders == {(-76.3425, 103.6575)}


# ---------------------------------------------------------------- amplitudes


def test_pair_amplitude_hv_vs_diagonal_pair():
    amp = pair_amplitude(
        NAMED_STATES["D"], NAMED_STATES["Dbar"], NAMED_STATES["H"], NAMED_STATES["V"]
    )
    assert abs(amp) < 1e-12


def test_pair_amplitude_projector_onto_itself():
    amp = pair_amplitude(
        NAMED_STATES["H"], NAMED_STATES["V"], NAMED_STATES["H"], NAMED_STATES["V"]
    )
    assert abs(amp - 1.0) < 1e-12


def test_pair_amplitude_matches_fock_oracle():
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(500):
        c, d, a, b = (random_jones(rng) for _ in range(4))
        worst = max(worst, abs(pair_amplitude(c, d, a, b) - fock_amplitude(c, d, a, b)))
    assert worst < 1e-12


def test_pair_amplitude_swap_symmetries_exact():
    rng = np.random.default_rng(25)
    for _ in range(100):
        c, d, a, b = (random_jones(rng) for _ in range(4))
        assert pair_amplitude(c, d, a, b) == pair_amplitude(d, c, a, b)
        assert pair_amplitude(c, d, a, b) == pair_amplitude(c, d, b, a)


def test_inner_product_basics():
    rng = np.random.default_rng(26)
    s = random_qutrit(rng)
    assert abs(qutrit_inner_product(s, s) - 1.0) < 1e-12
    hh = BiphotonQutrit(1.0, 0.0, 0.0)
    vv = BiphotonQutrit(0.0, 0.0, 1.0)
    assert abs(qutrit_inner_product(hh, vv)) < 1e-12


def test_inner_product_matches_pair_amplitude_with_norms():
    rng = np.random.default_rng(27)
    for _ in range(200):
        a, b, c, d = (random_jones(rng) for _ in range(4))
        x = qutrit_from_jones_pair(c, d)
        y = qutrit_from_jones_pair(a, b)
        expected = pair_amplitude(c, d, a, b) / (pair_norm(c, d) * pair_norm(a, b))
        got = qutrit_inner_product(x, y)
        # canonical phases of x and y rotate the product; compare magnitudes
        assert abs(abs(got) - abs(expected)) < 1e-12


def test_inner_product_and_isclose_match_array_forms():
    rng = np.random.default_rng(28)
    outcomes = set()
    for _ in range(1000):
        x, y = random_qutrit(rng), random_qutrit(rng)
        got = qutrit_inner_product(x, y)
        assert type(got) is complex
        assert abs(got - np.vdot(x.amplitudes(), y.amplitudes())) <= 1e-15
        kick = 1e-9 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        near = BiphotonQutrit(*(x.amplitudes() + kick))
        for other in (y, near):
            for tol in (1e-9, 1e-12):
                old = bool(np.all(np.abs(x.amplitudes() - other.amplitudes()) <= tol))
                assert x.isclose(other, tol) is old
                outcomes.add(old)
    assert outcomes == {True, False}


# ---------------------------------------------------------------- stokes


def test_stokes_expectation_matches_ladder_operators():
    ops = ladder_stokes_operators()
    rng = np.random.default_rng(31)
    for _ in range(300):
        s = random_qutrit(rng)
        c = s.amplitudes()
        expected = [np.vdot(c, op @ c).real / 2.0 for op in ops]
        assert np.allclose(stokes_expectation(s).as_array(), expected, rtol=0.0, atol=1e-12)


def test_stokes_expectation_examples():
    hh = stokes_expectation(BiphotonQutrit(1.0, 0.0, 0.0))
    assert np.allclose(hh.as_array(), [1, 0, 0], atol=1e-12)
    hv = stokes_expectation(BiphotonQutrit(0.0, 1.0, 0.0))
    assert np.allclose(hv.as_array(), [0, 0, 0], atol=1e-12)
    se = stokes_expectation(dip_input_state())
    assert abs(se.length - 0.5) < 1e-9
    assert abs(se.s1 - 0.5) < 1e-9 and abs(se.s2) < 1e-9 and abs(se.s3) < 1e-9


def test_stokes_expectation_parallel_to_sum_of_halves():
    rng = np.random.default_rng(28)
    for _ in range(300):
        s = random_qutrit(rng)
        se = stokes_expectation(s).as_array()
        a, b = factor_qutrit(s).jones()
        total = stokes_from_jones(a).as_array() + stokes_from_jones(b).as_array()
        assert np.linalg.norm(np.cross(se, total)) < 1e-9


def test_polarization_degree_examples():
    assert abs(polarization_degree(BiphotonQutrit(1.0, 0.0, 0.0)) - 1.0) < 1e-12
    rl = qutrit_from_jones_pair(NAMED_STATES["R"], NAMED_STATES["L"])
    assert polarization_degree(rl) < 1e-12
    assert abs(polarization_degree(dip_input_state()) - 0.5) < 1e-9


def test_degree_from_subtense_closed_form():
    rng = np.random.default_rng(29)
    for _ in range(300):
        s = random_qutrit(rng)
        half = math.cos(math.radians(subtense_angle(s)) / 2.0)
        law = 2.0 * half / (1.0 + half ** 2)
        assert abs(polarization_degree(s) - law) < 1e-9


@settings(max_examples=200)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False), min_size=4, max_size=4))
def test_pair_modes_bitwise_symmetric(modes):
    ah, av, bh, bv = modes
    swapped = _pair_modes(bh, bv, ah, av)
    for x, y in zip(_pair_modes(ah, av, bh, bv), swapped):
        assert (x.real.hex(), x.imag.hex()) == (y.real.hex(), y.imag.hex())


@settings(max_examples=300)
@given(st.floats(0.0, 180.0), st.floats(-180.0, 180.0))
def test_coincident_halves_read_sigma_below_1e_5_deg(theta, phi):
    # sigma is the square root of a round-off discriminant here, so it is
    # not 0 but stays under about 1e-5 deg
    p = PoincarePoint(theta, phi)
    assert subtense_angle(qutrit_from_pair(p, p)) <= 1e-5


def test_subtense_examples():
    assert abs(subtense_angle(BiphotonQutrit(0.0, 1.0, 0.0)) - 180.0) < 1e-9
    assert subtense_angle(BiphotonQutrit(1.0, 0.0, 0.0)) < 1e-9
    assert abs(subtense_angle(dip_input_state()) - 149.0) < 0.1
