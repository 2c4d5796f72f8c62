"""Independent references for checking the program's outputs.

Nothing here calls biphoton: every expected value is rebuilt from the
model's defining formulas with numpy, vectorized over rows, so a check
fails when the library is wrong rather than agreeing with itself.
"""
from __future__ import annotations

import json
import math

import numpy as np

# The documented RateModel defaults (README, "Conventions and model notes").
PAIR_RATE = 1.0e4
ETA1 = 0.1
ETA2 = 0.1
WINDOW = 5.5e-9
RC_SCALE = PAIR_RATE * ETA1 * ETA2

SQRT2 = math.sqrt(2.0)
CSV_HEADER = "param,R1,R2,Rc,g2"

# Jones vectors of the named states, written out from their definitions.
NAMED = {
    "H": (1.0, 0.0),
    "V": (0.0, 1.0),
    "D": (1 / SQRT2, 1 / SQRT2),
    "Dbar": (1 / SQRT2, -1 / SQRT2),
    "R": (1 / SQRT2, 1j / SQRT2),
    "L": (1 / SQRT2, -1j / SQRT2),
}
ORTHOGONAL_NAME = {"H": "V", "V": "H", "D": "Dbar", "Dbar": "D", "R": "L", "L": "R"}


# ------------------------------------------------------------ checks


def close(label: str, got, want, rtol: float = 0.0, atol: float = 0.0) -> list[str]:
    """Problems (empty when fine) of |got - want| <= atol + rtol |want|.

    NaN must sit at the same places in both.
    """
    got = np.asarray(got, dtype=complex if np.iscomplexobj(got) else float)
    want = np.asarray(want, dtype=got.dtype)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != {want.shape}"]
    nan_got, nan_want = np.isnan(got), np.isnan(want)
    if np.any(nan_got != nan_want):
        return [f"{label}: NaN at different places"]
    ok = ~nan_want
    err = np.abs(got[ok] - want[ok])
    limit = atol + rtol * np.abs(want[ok])
    if np.any(~(err <= limit)):
        i = int(np.argmax(err - limit))
        return [f"{label}: error {err[i]:.3e} exceeds {limit[i]:.3e}"]
    return []


def require(label: str, condition) -> list[str]:
    return [] if bool(np.all(condition)) else [f"{label}: check failed"]


# ------------------------------------------------------------ dip model


def shape_closed_form(chi, zeta1, zeta2):
    """Rc / (pair_rate eta1 eta2) for the delta_phi = 180 source and linear filters."""
    two_chi = np.radians(2.0 * np.asarray(chi, dtype=float))
    z1 = np.radians(np.asarray(zeta1, dtype=float))
    z2 = np.radians(np.asarray(zeta2, dtype=float))
    bracket = np.cos(z1) * np.cos(z2) * np.sin(two_chi) - np.sin(z1) * np.sin(z2) * np.cos(two_chi)
    return bracket ** 2


def singles_linear(chi, zeta, eta):
    """Singles behind a filter aligned at zeta, for the two-crystal source.

    The source's per-photon Stokes vector is (-cos 4chi, 0, 0) and the
    filter selects linear polarization at zeta, so 1 + u.s = 1 - cos 2zeta cos 4chi.
    """
    chi = np.radians(np.asarray(chi, dtype=float))
    zeta = np.radians(np.asarray(zeta, dtype=float))
    return PAIR_RATE * eta * 0.5 * (1.0 - np.cos(2.0 * zeta) * np.cos(4.0 * chi))


def ideal_sweep(kind: str, grid, chi: float, zeta1: float, zeta2: float):
    """(R1, R2, Rc) of a sweep; kind is 'chi', 'P1' or 'P2'."""
    grid = np.asarray(grid, dtype=float)
    ones = np.ones_like(grid)
    if kind == "chi":
        c, z1, z2 = grid, zeta1 * ones, zeta2 * ones
    elif kind == "P1":
        c, z1, z2 = chi * ones, grid, zeta2 * ones
    else:
        c, z1, z2 = chi * ones, zeta1 * ones, grid
    r1 = singles_linear(c, z1, ETA1)
    r2 = singles_linear(c, z2, ETA2)
    rc = RC_SCALE * shape_closed_form(c, z1, z2)
    return r1, r2, rc


def drift_ramp(n: int, drift: float) -> np.ndarray:
    if n > 1 and drift:
        return 1.0 - drift * np.arange(n) / (n - 1)
    return np.ones(n)


def g2_from_counts(c1, c2, cc, duration: float) -> np.ndarray:
    e1, e2, ec = (np.asarray(x, dtype=float) / duration for x in (c1, c2, cc))
    acc = e1 * e2 * WINDOW
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(acc > 0, (ec + acc) / acc, np.nan)


def check_sweep_table(table, kind, grid, chi, zeta1, zeta2, seeded, duration, drift) -> list[str]:
    """Check a rate table {param, R1, R2, Rc, g2} (arrays) against the model.

    Ideal: Rc / (pair_rate eta1 eta2) matches the closed form within 1e-12,
    the singles match their formula and g2 = 1 + Rc / (R1 R2 T_c).
    Seeded: counts are non-negative integers whose column sums lie within
    6 sigma of the summed Poisson means, and g2 is the count estimate.
    """
    n = len(grid)
    problems = require("row count", len(table["param"]) == n)
    if problems:
        return problems
    problems += close("param", table["param"], grid, atol=1e-6)
    r1, r2, rc = ideal_sweep(kind, grid, chi, zeta1, zeta2)
    got = [np.asarray(table[k], dtype=float) for k in ("R1", "R2", "Rc")]
    if not seeded:
        problems += close("Rc closed form", got[2] / RC_SCALE, rc / RC_SCALE, atol=1e-12)
        problems += close("R1", got[0], r1, atol=1e-12 * PAIR_RATE * ETA1)
        problems += close("R2", got[1], r2, atol=1e-12 * PAIR_RATE * ETA2)
        problems += close("g2", table["g2"], 1.0 + got[2] / (got[0] * got[1] * WINDOW), rtol=1e-12)
        return problems
    for label, counts, rate in zip(("R1", "R2", "Rc"), got, (r1, r2, rc)):
        problems += require(f"{label} counts are non-negative integers",
                            (counts >= 0) & (counts == np.floor(counts)))
        mean = float(np.sum(drift_ramp(n, drift) * duration * rate))
        if abs(float(np.sum(counts)) - mean) > 6.0 * math.sqrt(max(mean, 1.0)):
            problems.append(f"{label} counts sum {np.sum(counts):.0f} is not within 6 sigma of {mean:.1f}")
    problems += close("g2 from counts", table["g2"], g2_from_counts(*got, duration), rtol=1e-12)
    return problems


# ------------------------------------------------------------ sweep files


def parse_csv(text: str) -> dict:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing CSV header")
    cols = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * 5
    if any(len(line.split(",")) != 5 for line in lines[1:]):
        raise ValueError("CSV row without five fields")
    return {k: np.array([float(v) for v in col]) for k, col in zip(CSV_HEADER.split(","), cols)}


def parse_json(text: str) -> dict:
    obj = json.loads(text)
    rows = obj["rows"]

    def column(key):
        return np.array([math.nan if r[key] is None else float(r[key]) for r in rows])

    table = {k: column(k) for k in ("param", "R1", "R2", "Rc", "g2")}
    table["meta"] = {k: obj[k] for k in ("param_name", "coincidence_window", "duration")}
    return table


def parse_table(text: str, fmt: str) -> dict:
    return parse_csv(text) if fmt == "csv" else parse_json(text)


def check_file_matches(table: dict, columns: dict, fmt: str) -> list[str]:
    """The parsed file holds the in-memory columns (CSV to its 9 digits)."""
    problems = []
    for key in ("param", "R1", "R2", "Rc", "g2"):
        if fmt == "csv":
            tol = dict(atol=1e-6) if key == "param" else dict(rtol=1e-8, atol=1e-300)
        else:
            tol = {}
        problems += close(f"file {key}", table[key], columns[key], **tol)
    return problems


# ------------------------------------------------------------ pair algebra


def normalize(v: np.ndarray) -> np.ndarray:
    """Rows of v scaled to unit norm."""
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def phase_distance(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Largest component difference of unit rows after aligning global phases."""
    ov = np.sum(np.conj(x) * y, axis=-1, keepdims=True)
    mag = np.abs(ov)
    phase = np.where(mag > 0, ov / np.where(mag > 0, mag, 1.0), 1.0)
    return np.max(np.abs(x * phase - y), axis=-1)


def pair_state(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normalized qutrit of photons in modes a and b (rows of Jones pairs)."""
    f = np.stack([SQRT2 * a[:, 0] * b[:, 0], a[:, 0] * b[:, 1] + a[:, 1] * b[:, 0],
                  SQRT2 * a[:, 1] * b[:, 1]], axis=-1)
    return normalize(f)


def jones_of_sphere(theta_deg, phi_deg) -> np.ndarray:
    half = np.radians(np.asarray(theta_deg, dtype=float)) / 2.0
    phi = np.radians(np.asarray(phi_deg, dtype=float))
    return np.stack([np.cos(half) + 0j, np.exp(1j * phi) * np.sin(half)], axis=-1)


def stokes_of_jones(j: np.ndarray) -> np.ndarray:
    cross = np.conj(j[:, 0]) * j[:, 1]
    return np.stack([np.abs(j[:, 0]) ** 2 - np.abs(j[:, 1]) ** 2, 2 * cross.real, 2 * cross.imag], axis=-1)


def stokes_of_qutrit(c: np.ndarray) -> np.ndarray:
    """Per-photon Stokes expectation of normalized qutrit rows."""
    s23 = SQRT2 * (np.conj(c[:, 0]) * c[:, 1] + np.conj(c[:, 1]) * c[:, 2])
    return np.stack([np.abs(c[:, 0]) ** 2 - np.abs(c[:, 2]) ** 2, s23.real, s23.imag], axis=-1)


def filter_mode(qwp_axis, polarizer) -> np.ndarray:
    """Mode passed by a quarter-wave plate then a polarizer: QWP^dagger |linear>."""
    a = np.radians(np.asarray(qwp_axis, dtype=float))
    p = np.radians(np.asarray(polarizer, dtype=float))
    c, s = np.cos(a), np.sin(a)
    lin_h, lin_v = np.cos(p), np.sin(p)
    # QWP = R(a) diag(1, i) R(-a); its adjoint is R(a) diag(1, -i) R(-a)
    u = c * lin_h + s * lin_v
    w = -1j * (-s * lin_h + c * lin_v)
    return np.stack([c * u - s * w, s * u + c * w], axis=-1)


def scalar_rates(state: np.ndarray, f1: np.ndarray, f2: np.ndarray):
    """(R1, R2, Rc) for normalized qutrit rows behind filter modes f1, f2."""
    s = stokes_of_qutrit(state)
    r1 = PAIR_RATE * ETA1 * 0.5 * (1.0 + np.sum(stokes_of_jones(f1) * s, axis=-1))
    r2 = PAIR_RATE * ETA2 * 0.5 * (1.0 + np.sum(stokes_of_jones(f2) * s, axis=-1))
    amp = np.sum(np.conj(pair_state_unnormalized(f1, f2)) * state, axis=-1)
    return r1, r2, RC_SCALE * 0.5 * np.abs(amp) ** 2


def pair_state_unnormalized(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.stack([SQRT2 * c[:, 0] * d[:, 0], c[:, 0] * d[:, 1] + c[:, 1] * d[:, 0],
                     SQRT2 * c[:, 1] * d[:, 1]], axis=-1)


def permanent_amplitude(c, d, a, b) -> np.ndarray:
    """<c|a><d|b> + <c|b><d|a> for rows of unit Jones vectors."""
    def ov(x, y):
        return np.sum(np.conj(x) * y, axis=-1)
    return ov(c, a) * ov(d, b) + ov(c, b) * ov(d, a)


def source_qutrit(chi, delta_phi) -> np.ndarray:
    two_chi = np.radians(2.0 * np.asarray(chi, dtype=float))
    phase = np.exp(1j * np.radians(np.asarray(delta_phi, dtype=float)))
    return np.stack([np.sin(two_chi) + 0j, 0j * two_chi, phase * np.cos(two_chi)], axis=-1)
