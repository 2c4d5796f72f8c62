"""Source, filters, counting rates, sweeps and synthetic counts."""
import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    NAMED_STATES,
    BiphotonQutrit,
    FilterSetting,
    RateModel,
    SourceSetting,
    SweepResult,
    ZeroSinglesError,
    coincidence_rate,
    detection_amplitude,
    factor_qutrit,
    filter_jones,
    g2,
    linear_jones,
    overlap,
    pair_norm,
    qutrit_from_jones_pair,
    rate_closed_form,
    simulate_counts,
    singles_rate,
    source_state,
    stokes_from_jones,
    sweep_chi,
    sweep_filter,
)
from biphoton.experiment import _g2, _rates, _selected_mode
from oracles import fock_amplitude, fock_pair_vector, ladder_stokes_operators, random_jones

M = RateModel()
LIN45 = FilterSetting(45.0, 45.0)
LIN60 = FilterSetting(60.0, 60.0)


def linear_filter(zeta: float) -> FilterSetting:
    return FilterSetting(zeta, zeta)


# ---------------------------------------------------------------- source


def test_source_endpoints():
    assert source_state(SourceSetting(0.0, 180.0)).isclose(
        BiphotonQutrit(0.0, 0.0, 1.0), tol=1e-12
    )
    assert source_state(SourceSetting(45.0, 180.0)).isclose(
        BiphotonQutrit(1.0, 0.0, 0.0), tol=1e-12
    )


def test_source_at_dip_settings():
    s = source_state(SourceSetting(30.0, 180.0))
    assert abs(s.c1 - math.sqrt(3.0) / 2.0) < 1e-12
    assert abs(s.c2) == 0.0
    assert abs(s.c3 - (-0.5)) < 1e-12
    assert abs(s.d1 ** 2 / s.d3 ** 2 - 3.0) < 1e-12


def test_source_c2_always_zero():
    rng = np.random.default_rng(41)
    for _ in range(50):
        s = source_state(SourceSetting(rng.uniform(0, 90), rng.uniform(0, 360)))
        assert s.c2 == 0.0


# ---------------------------------------------------------------- filters


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_settings_reject_non_finite_angles(bad):
    for call, name in (
        (lambda: SourceSetting(bad), "chi"),
        (lambda: SourceSetting(30.0, bad), "delta_phi"),
        (lambda: FilterSetting(bad, 0.0), "qwp_axis"),
        (lambda: FilterSetting(0.0, bad), "polarizer_angle"),
    ):
        with pytest.raises(ValueError, match=name):
            call()


def test_filter_plate_aligned_with_polarizer_selects_linear():
    rng = np.random.default_rng(42)
    for _ in range(20):
        zeta = rng.uniform(-90, 90)
        f = filter_jones(FilterSetting(zeta, zeta))
        assert f.isclose(linear_jones(zeta), tol=1e-10)


def test_filter_qwp_45_polarizer_0_selects_circular():
    f = filter_jones(FilterSetting(45.0, 0.0))
    assert abs(abs(stokes_from_jones(f).s3) - 1.0) < 1e-12


def test_filter_qwp_0_polarizer_90_selects_v():
    f = filter_jones(FilterSetting(0.0, 90.0))
    assert f.isclose(NAMED_STATES["V"], tol=1e-10)


def test_filter_selects_what_it_transmits():
    # transmitted amplitude through QWP then polarizer equals <f|input>
    from biphoton import JonesVector, waveplate

    rng = np.random.default_rng(43)
    for _ in range(50):
        setting = FilterSetting(rng.uniform(-90, 90), rng.uniform(-90, 90))
        f = filter_jones(setting)
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        state = JonesVector(z[0], z[1])
        after_plate = waveplate(90.0, setting.qwp_axis) @ state.as_array()
        transmitted = np.vdot(linear_jones(setting.polarizer_angle).as_array(), after_plate)
        assert abs(abs(transmitted) - abs(overlap(f, state))) < 1e-12


# ---------------------------------------------------------------- coincidences


def test_coincidence_zero_at_orthogonal_configs():
    state_b = source_state(SourceSetting(30.0, 180.0))
    assert abs(detection_amplitude(state_b, LIN45, LIN60)) < 1e-12
    assert coincidence_rate(state_b, LIN45, LIN60, M) < 1e-20
    state_c = source_state(SourceSetting(60.0, 180.0))
    assert abs(detection_amplitude(state_c, LIN45, linear_filter(-60.0))) < 1e-12
    assert coincidence_rate(state_c, LIN45, linear_filter(-60.0), M) < 1e-20


def linear_mode_columns(zetas: np.ndarray):
    """Filter modes of FilterSetting(zeta, zeta) as columns, like the sweeps build them."""
    z = np.radians(zetas)
    cos_z, sin_z = np.cos(z), np.sin(z)
    return _selected_mode(cos_z, sin_z, cos_z, sin_z)


def test_coincidence_maximum_for_hv_with_matched_filters():
    hv = qutrit_from_jones_pair(NAMED_STATES["H"], NAMED_STATES["V"])
    target = coincidence_rate(hv, linear_filter(0.0), linear_filter(90.0), M)
    z1, z2 = np.meshgrid(np.arange(0.0, 180.0, 1.0), np.arange(0.0, 180.0, 1.0))
    h1, v1 = linear_mode_columns(z1.ravel())
    h2, v2 = linear_mode_columns(z2.ravel())
    rc = _rates(hv.c1, hv.c2, hv.c3, h1, v1, h2, v2, M)[2]
    best = rc.max()
    assert target >= best - 1e-12 * best


def test_rate_kernel_matches_scalar_api_and_oracles():
    rng = np.random.default_rng(45)
    m = RateModel(pair_rate=3.0e4, eta1=0.2, eta2=0.15, background1=2.0, background2=5.0)
    n = 200
    pairs = [(random_jones(rng), random_jones(rng)) for _ in range(n)]
    states = [qutrit_from_jones_pair(a, b) for a, b in pairs]
    # elliptical filters: QWP axis and polarizer angle drawn independently
    angles = rng.uniform(-90.0, 90.0, size=(4, n))
    filters1 = [FilterSetting(a, z) for a, z in zip(angles[0], angles[1])]
    filters2 = [FilterSetting(a, z) for a, z in zip(angles[2], angles[3])]

    # array path: the kernel on columns
    c = np.array([s.amplitudes() for s in states]).T
    a1, z1, a2, z2 = np.radians(angles)
    mode1 = _selected_mode(np.cos(a1), np.sin(a1), np.cos(z1), np.sin(z1))
    mode2 = _selected_mode(np.cos(a2), np.sin(a2), np.cos(z2), np.sin(z2))
    r1, r2, rc = _rates(*c, *mode1, *mode2, m)
    gg = _g2(r1, r2, rc, m.coincidence_window)

    # first-principles references: Fock vectors and ladder-built Stokes operators
    ops = ladder_stokes_operators()
    scale = m.pair_rate * max(m.eta1, m.eta2)
    for i, (state, (a, b), f1, f2) in enumerate(zip(states, pairs, filters1, filters2)):
        j1, j2 = filter_jones(f1), filter_jones(f2)
        norm = np.linalg.norm(fock_pair_vector(a, b))
        amp = fock_amplitude(j1, j2, a, b) / norm
        s = np.array([np.vdot(state.amplitudes(), op @ state.amplitudes()).real / 2 for op in ops])
        ref1 = m.pair_rate * m.eta1 * 0.5 * (1.0 + stokes_from_jones(j1).as_array() @ s) + m.background1
        ref2 = m.pair_rate * m.eta2 * 0.5 * (1.0 + stokes_from_jones(j2).as_array() @ s) + m.background2
        refc = m.pair_rate * m.eta1 * m.eta2 * 0.5 * abs(amp) ** 2
        ref_g2 = (refc + ref1 * ref2 * m.coincidence_window) / (ref1 * ref2 * m.coincidence_window)

        assert abs(abs(detection_amplitude(state, f1, f2)) - abs(amp)) < 1e-12
        for array, scalar, ref in (
            (r1[i], singles_rate(state, f1, m, detector=1), ref1),
            (r2[i], singles_rate(state, f2, m, detector=2), ref2),
            (rc[i], coincidence_rate(state, f1, f2, m), refc),
        ):
            assert abs(array - scalar) <= 1e-12 * scale
            assert abs(scalar - ref) <= 1e-12 * scale
        scalar_g2 = g2(state, f1, f2, m)
        assert abs(gg[i] - scalar_g2) <= 1e-12 * ref_g2
        assert abs(scalar_g2 - ref_g2) <= 1e-12 * ref_g2


def test_rate_closed_form_anchors():
    assert rate_closed_form(30.0, 45.0, 60.0) < 1e-24
    assert rate_closed_form(60.0, 45.0, -60.0) < 1e-24
    assert abs(rate_closed_form(0.0, 90.0, 90.0) - 1.0) < 1e-12


def test_rate_closed_form_is_finite_near_the_float_limit():
    # 2 chi is formed in radians, so a finite chi never overflows (no warning)
    assert math.isfinite(rate_closed_form(1e308, 0.0, 0.0))


def test_coincidence_matches_closed_form_on_dense_grid():
    chis = np.arange(0.0, 91.0, 1.0)
    zetas = np.arange(0.0, 180.0, 1.0)
    filters = [filter_jones(linear_filter(z)) for z in zetas]
    oa = np.empty((len(zetas), len(chis)), dtype=complex)
    ob = np.empty_like(oa)
    norms = np.empty(len(chis))
    for k, chi in enumerate(chis):
        a, b = factor_qutrit(source_state(SourceSetting(chi, 180.0))).jones()
        norms[k] = pair_norm(a, b)
        for i, f in enumerate(filters):
            oa[i, k] = overlap(f, a)
            ob[i, k] = overlap(f, b)
    amp = oa[:, None, :] * ob[None, :, :] + ob[:, None, :] * oa[None, :, :]
    rates = 0.5 * M.pair_rate * M.eta1 * M.eta2 * np.abs(amp / norms) ** 2
    closed = rate_closed_form(
        chis[None, None, :], zetas[:, None, None], zetas[None, :, None]
    )
    scale = M.pair_rate * M.eta1 * M.eta2
    assert np.allclose(rates / scale, closed, rtol=1e-9, atol=1e-12)
    # the grid composition above reproduces the public function
    rng = np.random.default_rng(44)
    for _ in range(300):
        i = rng.integers(len(zetas))
        j = rng.integers(len(zetas))
        k = rng.integers(len(chis))
        direct = coincidence_rate(
            source_state(SourceSetting(chis[k], 180.0)),
            linear_filter(zetas[i]),
            linear_filter(zetas[j]),
            M,
        )
        assert abs(direct - rates[i, j, k]) <= 1e-12 * max(direct, scale * 1e-15)


# ---------------------------------------------------------------- singles


def test_singles_three_to_one_modulation():
    f = linear_filter(60.0)
    r_min = singles_rate(source_state(SourceSetting(45.0, 180.0)), f, M, detector=2)
    r_max = singles_rate(source_state(SourceSetting(0.0, 180.0)), f, M, detector=2)
    assert abs(r_max / r_min - 3.0) < 1e-9


def test_singles_flat_at_45_degrees():
    f = linear_filter(45.0)
    values = [
        singles_rate(source_state(SourceSetting(chi, 180.0)), f, M)
        for chi in np.arange(0.0, 90.5, 0.5)
    ]
    spread = (max(values) - min(values)) / np.mean(values)
    assert spread < 1e-12


def test_singles_unpolarized_point_is_midpoint():
    f = linear_filter(60.0)
    r0 = singles_rate(source_state(SourceSetting(0.0, 180.0)), f, M)
    r45 = singles_rate(source_state(SourceSetting(45.0, 180.0)), f, M)
    r22 = singles_rate(source_state(SourceSetting(22.5, 180.0)), f, M)
    assert abs(r22 - 0.5 * (r0 + r45)) < 1e-9 * r22


def test_singles_matches_closed_form_on_dense_grid():
    chis = np.arange(0.0, 91.0, 1.0)
    zetas = np.arange(0.0, 180.0, 1.0)
    rates = np.empty((len(zetas), len(chis)))
    for i, zeta in enumerate(zetas):
        f = linear_filter(zeta)
        for k, chi in enumerate(chis):
            rates[i, k] = singles_rate(
                source_state(SourceSetting(chi, 180.0)), f, M, detector=2
            )
    z = np.radians(zetas)[:, None]
    x = np.radians(2.0 * chis)[None, :]
    closed = np.cos(z) ** 2 * np.sin(x) ** 2 + np.sin(z) ** 2 * np.cos(x) ** 2
    scale = M.pair_rate * M.eta2  # mean photons = 2 * closed form
    assert np.allclose(rates / scale, closed, rtol=1e-9, atol=1e-12)


def test_singles_background_added():
    m = RateModel(background1=7.0)
    low = singles_rate(source_state(SourceSetting(30.0, 180.0)), LIN45, RateModel())
    high = singles_rate(source_state(SourceSetting(30.0, 180.0)), LIN45, m)
    assert abs(high - low - 7.0) < 1e-9


# ---------------------------------------------------------------- g2


def test_g2_floor_at_orthogonal_configs():
    assert g2(source_state(SourceSetting(30.0, 180.0)), LIN45, LIN60, M) == 1.0
    assert g2(source_state(SourceSetting(60.0, 180.0)), LIN45, linear_filter(-60.0), M) == 1.0


def test_g2_above_floor_off_minimum():
    value = g2(source_state(SourceSetting(10.0, 180.0)), LIN45, LIN60, M)
    assert value > 1.0


def test_g2_grows_as_window_shrinks():
    state = source_state(SourceSetting(10.0, 180.0))
    wide = g2(state, LIN45, LIN60, RateModel(coincidence_window=5.5e-9))
    narrow = g2(state, LIN45, LIN60, RateModel(coincidence_window=5.5e-10))
    assert narrow > wide


def test_g2_zero_singles_error():
    hh = BiphotonQutrit(1.0, 0.0, 0.0)
    with pytest.raises(ZeroSinglesError):
        g2(hh, linear_filter(90.0), LIN60, M)


# rate models whose accidentals R1 R2 T_c overflow, or underflow to 0 or a subnormal
OUT_OF_RANGE_MODELS = [
    RateModel(pair_rate=1e308, eta1=1.0, eta2=1.0),
    RateModel(pair_rate=1.0, coincidence_window=5e-324),
    RateModel(coincidence_window=1e-320),
]


@pytest.mark.parametrize("m", OUT_OF_RANGE_MODELS)
def test_g2_beyond_the_float_range_is_rejected(m):
    state = source_state(SourceSetting(10.0, 180.0))
    with pytest.raises(ValueError, match="g2 is not finite"):
        g2(state, LIN45, LIN60, m)


@pytest.mark.parametrize("m", OUT_OF_RANGE_MODELS)
def test_sweep_g2_beyond_the_float_range_is_rejected_before_sampling(m, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled")

    monkeypatch.setattr("biphoton.experiment.simulate_counts", no_sampling)
    with pytest.raises(ValueError, match=r"g2 is not finite at chi = 0\.0000 deg"):
        sweep_chi(45.0, 60.0, m=m, chi_grid=[0.0, 30.0, 60.0], seed=1)
    with pytest.raises(ValueError, match=r"g2 is not finite at zeta1 = 0\.0000 deg"):
        sweep_filter(10.0, m=m, zeta_grid=[0.0, 30.0], seed=1)


# ---------------------------------------------------------------- sweeps


def test_sweep_chi_minimum_at_30():
    result = sweep_chi(45.0, 60.0, 180.0, M)
    param, best = result.argmin_g2()
    assert param == 30.0
    assert abs(best - 1.0) < 1e-12


def test_sweep_chi_minimum_at_60_with_negative_polarizer():
    result = sweep_chi(45.0, -60.0, 180.0, M)
    param, best = result.argmin_g2()
    assert param == 60.0
    assert abs(best - 1.0) < 1e-12


def test_sweep_polarizer_minimum_at_45():
    result = sweep_filter(30.0, 180.0, "P1", 60.0, M)
    param, best = result.argmin_g2()
    assert result.param_name == "zeta1"
    assert param == 45.0
    assert abs(best - 1.0) < 1e-12


def test_sweep_minimum_location_invariant_to_rate_scale():
    loud = RateModel(pair_rate=5.0e5, eta1=0.3, eta2=0.25, coincidence_window=2e-9)
    result = sweep_chi(45.0, 60.0, 180.0, loud)
    assert result.argmin_g2()[0] == 30.0


def test_sweep_r2_modulation_ratio():
    result = sweep_chi(45.0, 60.0, 180.0, M)
    assert abs(result.r2.max() / result.r2.min() - 3.0) < 1e-9


def test_sweep_g2_never_below_floor():
    for result in (
        sweep_chi(45.0, 60.0, 180.0, M),
        sweep_chi(30.0, -10.0, 90.0, M),
        sweep_filter(30.0, 180.0, "P2", 45.0, M),
    ):
        assert np.all(result.g2 >= 1.0 - 1e-12)


def test_sweep_source_halves_walk_equator_then_meridian():
    for chi in np.arange(0.5, 45.0, 0.5):
        pair = factor_qutrit(source_state(SourceSetting(chi, 180.0)))
        for j in pair.jones():
            assert abs(stokes_from_jones(j).s3) < 1e-9
    for chi in np.arange(45.5, 90.0, 0.5):
        pair = factor_qutrit(source_state(SourceSetting(chi, 180.0)))
        for j in pair.jones():
            assert abs(stokes_from_jones(j).s2) < 1e-9


def test_sweep_zero_singles_names_first_offending_value():
    # VV source behind an H polarizer: detector 1 sees nothing at zeta1 = 0
    with pytest.raises(ZeroSinglesError, match=r"zeta1 = 0\.0000 deg"):
        sweep_filter(0.0, which_filter="P1", fixed_zeta=60.0, zeta_grid=[0.0, 10.0])
    # HH source at chi = 45 behind a V polarizer, raised before any sampling
    with pytest.raises(ZeroSinglesError, match=r"chi = 45\.0000 deg"):
        sweep_chi(90.0, 60.0, chi_grid=[0.0, 45.0, 50.0], seed=3)


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        sweep_chi(45.0, 60.0, 180.0, M, chi_grid=[])
    with pytest.raises(ValueError):
        sweep_chi(45.0, 60.0, 180.0, M, chi_grid=[10.0, 5.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sweeps_reject_non_finite_angles_and_grids(bad):
    for call, name in (
        (lambda: sweep_chi(bad, 60.0), "zeta1"),
        (lambda: sweep_chi(45.0, bad), "zeta2"),
        (lambda: sweep_chi(45.0, 60.0, delta_phi=bad), "delta_phi"),
        (lambda: sweep_chi(45.0, 60.0, chi_grid=[0.0, bad]), "chi_grid"),
        (lambda: sweep_filter(bad), "chi"),
        (lambda: sweep_filter(30.0, delta_phi=bad), "delta_phi"),
        (lambda: sweep_filter(30.0, fixed_zeta=bad), "fixed_zeta"),
        (lambda: sweep_filter(30.0, zeta_grid=[bad]), "zeta_grid"),
    ):
        with pytest.raises(ValueError, match=name):
            call()


# ---------------------------------------------------------------- output formats


def test_csv_format_fixed_notation():
    result = sweep_chi(45.0, 60.0, 180.0, M, chi_grid=[0.0, 30.0, 62.5])
    lines = result.to_csv().strip().split("\n")
    assert lines[0] == "param,R1,R2,Rc,g2"
    assert len(lines) == 4
    row = re.compile(
        r"^-?\d+\.\d{6}(,-?\d\.\d{8}e[+-]\d{2,3}){4}$"
    )
    for line in lines[1:]:
        assert row.match(line), line


def test_csv_deterministic():
    a = sweep_chi(45.0, 60.0, 180.0, M)
    b = sweep_chi(45.0, 60.0, 180.0, M)
    assert a.to_csv() == b.to_csv()
    assert a.to_json() == b.to_json()


def _reference_csv(result: SweepResult) -> str:
    """The row-by-row f-string layout the column writer must reproduce."""
    lines = ["param,R1,R2,Rc,g2"]
    for p, a, b, c, g in zip(result.param, result.r1, result.r2, result.rc, result.g2):
        lines.append(f"{p:.6f},{a:.8e},{b:.8e},{c:.8e},{g:.8e}")
    return "\n".join(lines) + "\n"


def _table(param, r1, r2, rc, g, duration=None) -> SweepResult:
    columns = (np.asarray(v, dtype=float) for v in (param, r1, r2, rc, g))
    return SweepResult("zeta2", *columns, 5.5e-9, duration)


EDGE = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
        2.2250738585072014e-308, 0.1, 1 / 3, 123456789.0, 1e16, 1e22, 1e-7]
# '%.8e' rounding edges: a scaled value on a half-integer, on the decade
# edge 999 999 999.5 or on an exact tie (100000000.5 rounds half-even), the
# ends of the exact powers of ten, subnormals, the largest doubles, -0.0 and
# the non-finite values
SCIENTIFIC_PROBES = [9.999999995, 99999999.95, 100000000.5, 999999999.5, 9.999999995e-5,
                     1e22, 1e23, 5e-324, -5e-324, 1e308, -1e308, -0.0, math.nan, math.inf,
                     -math.inf]
# '%.6f' edges: half a unit of the 6th decimal, a carry into the integer
# digits, and values beyond 3 integer digits
FIXED_PROBES = [0.0000005, -0.0000005, 89.9999995, 1e15, 1e300, -0.0, -1e15, 999.9999995,
                0.0000015, -89.9999995, 999.9999, 100.0000005, 0.0, -1e300, 1e-300]
# repr edges: the ends of its positional range [1e-4, 1e16), integers around
# 2**53, short and long shortest digits, powers of two (lopsided rounding
# intervals; 2**-13 is the smallest in the positional range), exact ties
# between two shortest candidates (...5283.75, ...908.96875), a fraction of
# 20 decimals, the smallest subnormal and -0.0
JSON_PROBES = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0, 0.1, 1 / 3, 2.0**53,
               2.0**53 + 2, 0.5, 1024.0, 2.0**-13, 2.0**-14, 920880524995283.8, 850698417908.9688,
               0.00012345678901234567, 5e-324, -0.0]


@pytest.mark.parametrize(
    "result",
    [
        _table([], [], [], [], []),
        _table([30.0], [500.0], [250.0], [0.0], [1.0]),
        _table([0.0], [0.001], [0.0], [0.0], [math.nan], duration=1.0),
        _table(np.arange(len(EDGE)), EDGE, EDGE[::-1], np.roll(EDGE, 3), np.roll(EDGE, 7)),
        _table(np.linspace(-90.0, 90.0, 7), [0, 1, 2, 3, 40, 500, 6000], [7.0] * 7,
               [1e6, 0, 3, 0, 9, 11, 2], [1.0, math.nan, 2.5, 1e300, math.inf, 0.0, -0.0],
               duration=2),
        _table(FIXED_PROBES, SCIENTIFIC_PROBES, SCIENTIFIC_PROBES[::-1],
               np.roll(SCIENTIFIC_PROBES, 5), np.roll(SCIENTIFIC_PROBES, 10)),
        _table(JSON_PROBES, JSON_PROBES[::-1], np.roll(JSON_PROBES, 3), np.roll(JSON_PROBES, 6),
               np.roll(JSON_PROBES, 9)),
        sweep_chi(45.0, 60.0, 180.0, M, chi_grid=np.linspace(0.0, 90.0, 37)),
        sweep_filter(30.0, 180.0, "P2", 45.0, M, seed=3, duration_per_point=0.5,
                     pump_drift=0.2),
    ],
    ids=["zero-rows", "one-row", "nan-g2", "edge-values", "integer-counts", "rounding-edges",
         "json-edges", "ideal-chi", "seeded-filter"],
)
def test_column_writers_match_reference_layout(result):
    assert result.to_csv() == _reference_csv(result)
    assert result.to_json() == json.dumps(result.to_json_obj(), indent=2, sort_keys=True) + "\n"


# floats next to a rounding edge: a 10th significant digit of 5 (ties and
# near-ties of the 9-digit rounding) and a few ulps around a power of ten
EDGY = st.one_of(
    st.builds(lambda m, e: (m + 0.5) * 10.0**e, st.integers(10**8, 10**9 - 1),
              st.integers(-20, 20)),
    st.builds(lambda k, j: 10.0**k * (1.0 + j * 2.0**-52), st.integers(-16, 32),
              st.integers(-4, 4)),
)


@settings(max_examples=100)
@given(st.lists(st.tuples(*[st.floats() | EDGY] * 5), max_size=50))
def test_csv_matches_printf_on_any_float_columns(rows):
    result = _table(*np.array(rows, dtype=float).reshape(-1, 5).T)
    assert result.to_csv() == _reference_csv(result)


def _ulps_away(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# doubles whose nearest 16-digit decimal lies within 1e-5 ulp of an edge of
# their rounding interval, so 16 digits read back as them or only just not
# (found by an exact search with fractions over random doubles)
NEAR_EDGE_16 = [8178.506733663256, 304.955418901022, 0.022013147415561318, 5559768.2993587935,
                8.125469364406536, 9778120.903065987, 22824615.74498838, 0.535110543252102,
                99762.71421468475]
# repr's edge cases: non-finite values, zeros, subnormals, integers up to and
# beyond 2**53, powers of two, +-4 ulp around the powers of ten 1e-4 ... 1e16
# and NEAR_EDGE_16
REPR_EDGY = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.225073858507201e-308,
                     *NEAR_EDGE_16]),
    st.integers(-(2**60), 2**60).map(float),
    st.integers(-1074, 1023).map(lambda k: math.ldexp(1.0, k)),
    st.builds(lambda k, n: _ulps_away(float(f"1e{k}"), n), st.integers(-4, 16),
              st.integers(-4, 4)),
)


@settings(max_examples=200)
@given(st.lists(st.tuples(*[st.floats() | REPR_EDGY | REPR_EDGY.map(float.__neg__)] * 5),
                max_size=50))
def test_json_matches_json_dumps_on_any_float_columns(rows):
    result = _table(*np.array(rows, dtype=float).reshape(-1, 5).T)
    text = result.to_json()
    assert text == json.dumps(result.to_json_obj(), indent=2, sort_keys=True) + "\n"
    back = json.loads(text)["rows"]
    columns = {"param": result.param, "R1": result.r1, "R2": result.r2, "Rc": result.rc,
               "g2": result.g2}
    for name, column in columns.items():
        want = [None if math.isnan(v) else v for v in column.tolist()]
        assert [repr(row[name]) for row in back] == list(map(repr, want))


def _dense_sweep(kind: str, seed) -> SweepResult:
    rng = np.random.default_rng(["chi", "P1", "P2"].index(kind))
    zeta1, zeta2, chi = rng.uniform(-90.0, 90.0, 3)
    grid = np.linspace(0.0, 90.0, 18001)
    sampling = dict(seed=seed, duration_per_point=2.0, pump_drift=0.1)
    if kind == "chi":
        return sweep_chi(zeta1, zeta2, 180.0, M, chi_grid=grid, **sampling)
    return sweep_filter(chi, 180.0, kind, zeta2, M, zeta_grid=grid, **sampling)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", [None, 41])
@pytest.mark.parametrize("kind", ["chi", "P1", "P2"])
def test_csv_of_dense_sweeps_matches_printf(kind, seed):
    result = _dense_sweep(kind, seed)
    assert _sha256(result.to_csv()) == _sha256(_reference_csv(result))


@pytest.mark.parametrize("seed", [None, 41])
@pytest.mark.parametrize("kind", ["chi", "P1", "P2"])
def test_json_of_dense_sweeps_matches_json_dumps(kind, seed):
    result = _dense_sweep(kind, seed)
    reference = json.dumps(result.to_json_obj(), indent=2, sort_keys=True) + "\n"
    assert _sha256(result.to_json()) == _sha256(reference)


def test_json_round_trip_schema():
    result = sweep_chi(45.0, 60.0, 180.0, M, chi_grid=[0.0, 30.0])
    obj = json.loads(result.to_json())
    assert obj["param_name"] == "chi"
    assert [r["param"] for r in obj["rows"]] == [0.0, 30.0]
    assert set(obj["rows"][0]) == {"param", "R1", "R2", "Rc", "g2"}


# ---------------------------------------------------------------- counts


def test_simulate_counts_zero_rate_stays_zero():
    base = SweepResult(
        "chi",
        np.array([0.0, 1.0]),
        np.array([100.0, 100.0]),
        np.array([80.0, 80.0]),
        np.array([0.0, 0.0]),
        np.array([1.0, 1.0]),
        5.5e-9,
    )
    sampled = simulate_counts(base, 10.0, seed=5)
    assert np.all(sampled.rc == 0.0)


def test_simulate_counts_deterministic():
    base = sweep_chi(45.0, 60.0, 180.0, M)
    one = simulate_counts(base, 1.0, seed=77)
    two = simulate_counts(base, 1.0, seed=77)
    assert np.array_equal(one.r1, two.r1)
    assert np.array_equal(one.r2, two.r2)
    assert np.array_equal(one.rc, two.rc)
    other = simulate_counts(base, 1.0, seed=78)
    assert not np.array_equal(one.r1, other.r1)


def test_simulate_counts_are_integers_with_duration_recorded():
    base = sweep_chi(45.0, 60.0, 180.0, M, chi_grid=[0.0, 30.0, 60.0])
    sampled = simulate_counts(base, 2.5, seed=1)
    assert sampled.duration == 2.5
    assert np.all(sampled.r1 == np.round(sampled.r1))


def test_simulate_counts_poisson_mean():
    n = 1000
    base = SweepResult(
        "chi",
        np.arange(n, dtype=float),
        np.full(n, 100.0),
        np.full(n, 100.0),
        np.full(n, 100.0),
        np.ones(n),
        5.5e-9,
    )
    sampled = simulate_counts(base, 1.0, seed=12345)
    # 3 sigma of the mean of 1000 Poisson(100) draws is ~0.95
    assert abs(sampled.r1.mean() - 100.0) < 1.0


def test_simulate_counts_pump_drift_ramp():
    n = 400
    base = SweepResult(
        "chi",
        np.arange(n, dtype=float),
        np.full(n, 1000.0),
        np.full(n, 1000.0),
        np.full(n, 1000.0),
        np.ones(n),
        5.5e-9,
    )
    sampled = simulate_counts(base, 10.0, seed=9, pump_drift=0.5)
    first = sampled.r1[:40].mean()
    last = sampled.r1[-40:].mean()
    assert abs(last / first - 0.525 / 0.9755) < 0.05  # ramp endpoints averaged


def test_seeded_column_sums_within_six_sigma_with_drift():
    base = sweep_chi(45.0, 60.0, 180.0, M, chi_grid=np.linspace(0.0, 90.0, 2001))
    duration, drift = 3.0, 0.4
    ramp = 1.0 - drift * np.arange(len(base)) / (len(base) - 1)
    sampled = simulate_counts(base, duration, seed=2024, pump_drift=drift)
    for counts, rate in ((sampled.r1, base.r1), (sampled.r2, base.r2), (sampled.rc, base.rc)):
        mean = float(np.sum(ramp * duration * rate))
        assert abs(counts.sum() - mean) < 6.0 * math.sqrt(mean)


def test_simulate_counts_nan_g2_serialized_as_null():
    base = SweepResult(
        "chi",
        np.array([0.0]),
        np.array([0.001]),
        np.array([0.001]),
        np.array([0.0]),
        np.array([1.0]),
        5.5e-9,
    )
    sampled = simulate_counts(base, 1.0, seed=3)
    assert math.isnan(sampled.g2[0])
    obj = json.loads(sampled.to_json())
    assert obj["rows"][0]["g2"] is None


def test_sweep_with_seed_returns_counts():
    result = sweep_chi(45.0, 60.0, 180.0, M, chi_grid=[0.0, 30.0], seed=4,
                       duration_per_point=2.0)
    assert result.duration == 2.0
    assert np.all(result.r1 == np.round(result.r1))


def test_simulate_counts_rejects_bad_duration():
    base = sweep_chi(45.0, 60.0, 180.0, M, chi_grid=[0.0, 30.0])
    with pytest.raises(ValueError):
        simulate_counts(base, 0.0, seed=1)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration_per_point"):
            simulate_counts(base, bad, seed=1)
    # means numpy's Poisson sampler rejects, finite or beyond the float range
    for large in (1e300, 1e308):
        with pytest.raises(ValueError, match="duration_per_point = .* Poisson means"):
            simulate_counts(base, large, seed=1)


def test_simulate_counts_rejects_bad_drift():
    base = sweep_chi(45.0, 60.0, 180.0, M, chi_grid=[0.0, 30.0])
    for bad in (1.5, -0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="pump_drift"):
            simulate_counts(base, 1.0, seed=1, pump_drift=bad)
    for edge in (0.0, 1.0):
        assert simulate_counts(base, 1.0, seed=1, pump_drift=edge).duration == 1.0


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("bad", [dict(duration_per_point=math.inf), dict(pump_drift=1.5)])
def test_sweeps_reject_bad_sampling_with_or_without_seed(seed, bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        sweep_chi(45.0, 60.0, 180.0, M, chi_grid=[0.0, 30.0], seed=seed, **bad)
    with pytest.raises(ValueError, match=next(iter(bad))):
        sweep_filter(30.0, 180.0, "P1", 60.0, M, zeta_grid=[0.0, 30.0], seed=seed, **bad)


# ---------------------------------------------------------------- rate model


def test_rate_model_validation():
    with pytest.raises(ValueError):
        RateModel(pair_rate=-1.0)
    with pytest.raises(ValueError):
        RateModel(coincidence_window=0.0)


@pytest.mark.parametrize("name", ["eta1", "eta2"])
def test_rate_model_efficiencies_are_probabilities(name):
    for bad in (1.0 + 1e-12, 10.0, -0.1):
        with pytest.raises(ValueError, match=rf"{name} must be in \[0, 1\], got "):
            RateModel(**{name: bad})
    for edge in (0.0, 1.0):
        assert getattr(RateModel(**{name: edge}), name) == edge


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "name", ["pair_rate", "eta1", "eta2", "coincidence_window", "background1", "background2"]
)
def test_rate_model_rejects_non_finite_fields(name, bad):
    with pytest.raises(ValueError, match=name):
        RateModel(**{name: bad})
