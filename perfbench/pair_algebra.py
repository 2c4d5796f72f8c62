"""pair-algebra: single-state ops on random Jones vectors, in process.

Drives polarization, qutrit, orthogonality and the n = 1 scalar rate API,
and bypasses sweeps, the sampler, the serializers and the CLI.  About one op
in fifty uses named-state inputs whose partner is degenerate, where
AnyPartnerError is the expected outcome.
"""
from __future__ import annotations

import contextlib

import numpy as np

from . import refs, speed
from .harness import UnitResult

DEGENERATE_RATE = 1 / 50
CHUNK = 256
SLICE = 64  # ops between two host-speed samples

# field order of one op's output row
FIELDS = ("ah", "av", "bh", "bv", "ch", "cv", "q1", "q2", "q3", "pt", "pp", "qt", "qp",
          "P", "sigma", "dh", "dv", "orth", "orth_mag", "resid", "degenerate",
          "s1", "s2", "s3", "r1", "r2", "rc", "g2")
COL = {name: i for i, name in enumerate(FIELDS)}


class PairAlgebra:
    name = "pair-algebra"
    in_process = True
    trace_units = 4

    def __init__(self, seed: int, ctx) -> None:
        import biphoton

        self.bp = biphoton
        self.seed = seed

    def mix(self) -> dict:
        return {
            "op": "JonesVector x3, qutrit_from_jones_pair, factor_qutrit, polarization_degree, "
                  "subtense_angle, orthogonal_partner_jones + qutrit_from_jones_pair + is_orthogonal "
                  "+ pair_amplitude residual, source_state, singles_rate x2, coincidence_rate, g2",
            "inputs": "Jones components ~ N(0,1) complex; filter angles ~ U(-90, 90); "
                      "chi ~ U(0, 90), delta_phi ~ U(-180, 180)",
            "degenerate_share": DEGENERATE_RATE,
            "degenerate_inputs": "a = b = X, c = orthogonal(X) for X in H V D Dbar R L",
            "ops_per_unit": CHUNK,
        }

    def _draw(self, rng: np.random.Generator, n: int) -> dict:
        raw = rng.normal(size=(n, 3, 2, 2))
        jones = raw[..., 0] + 1j * raw[..., 1]
        degenerate = rng.random(n) < DEGENERATE_RATE
        names = rng.choice(list(refs.ORTHOGONAL_NAME), size=n)
        for i in np.flatnonzero(degenerate):
            x = refs.NAMED[names[i]]
            jones[i] = [x, x, refs.NAMED[refs.ORTHOGONAL_NAME[names[i]]]]
        return {
            "jones": jones,
            "filters": rng.uniform(-90.0, 90.0, size=(n, 4)),
            "source": np.stack([rng.uniform(0.0, 90.0, n), rng.uniform(-180.0, 180.0, n)], axis=-1),
            "degenerate": degenerate,
        }

    def warmup_unit(self) -> dict:
        return self._draw(np.random.default_rng([self.seed, 1]), 1)

    def units(self):
        rng = np.random.default_rng([self.seed, 0])
        while True:
            yield self._draw(rng, CHUNK)

    def layer_pass_units(self):
        yield self._draw(np.random.default_rng([self.seed, 2]), CHUNK)

    @staticmethod
    def split(unit: dict) -> list[dict]:
        return [{k: v[i:i + SLICE] for k, v in unit.items()} for i in range(0, len(unit["degenerate"]), SLICE)]

    # ------------------------------------------------------------ op

    def _op(self, a_in, b_in, c_in, filt, src):
        bp = self.bp
        a = bp.JonesVector(*a_in)
        b = bp.JonesVector(*b_in)
        c = bp.JonesVector(*c_in)
        q = bp.qutrit_from_jones_pair(a, b)
        halves = bp.factor_qutrit(q)
        p_deg = bp.polarization_degree(q)
        sigma = bp.subtense_angle(q)
        try:
            d = bp.orthogonal_partner_jones(a, b, c)
        except bp.AnyPartnerError:
            d, orth, resid, degenerate = None, None, None, True
        else:
            orth = bp.is_orthogonal(q, bp.qutrit_from_jones_pair(c, d))
            resid = abs(bp.pair_amplitude(c, d, a, b))
            degenerate = False
        s = bp.source_state(bp.SourceSetting(*src))
        f1 = bp.FilterSetting(filt[0], filt[1])
        f2 = bp.FilterSetting(filt[2], filt[3])
        r1 = bp.singles_rate(q, f1, detector=1)
        r2 = bp.singles_rate(q, f2, detector=2)
        rc = bp.coincidence_rate(q, f1, f2)
        g = bp.g2(q, f1, f2)
        nan = float("nan")
        return (a.h, a.v, b.h, b.v, c.h, c.v, q.c1, q.c2, q.c3,
                halves.p.theta, halves.p.phi, halves.q.theta, halves.q.phi, p_deg, sigma,
                nan if d is None else d.h, nan if d is None else d.v,
                nan if orth is None else orth.orthogonal, nan if orth is None else orth.magnitude,
                nan if resid is None else resid, degenerate,
                s.c1, s.c2, s.c3, r1, r2, rc, g)

    def run_unit(self, unit: dict, tracer=None) -> UnitResult:
        jones = unit["jones"].tolist()
        filters = unit["filters"].tolist()
        sources = unit["source"].tolist()
        n = len(jones)
        latencies, rows, errors = [], [], {}
        clock = speed.clock
        for i in range(n):
            a_in, b_in, c_in = jones[i]
            with tracer.op(tracer.next_op(), "op.pair-algebra") if tracer else contextlib.nullcontext():
                t0 = clock()
                try:
                    row = self._op(a_in, b_in, c_in, filters[i], sources[i])
                except Exception as exc:  # any raise is a failed op, recorded with its type
                    row = None
                    errors[i] = f"{type(exc).__name__}: {exc}"
                latencies.append(clock() - t0)
            rows.append(row if row is not None else (float("nan"),) * len(FIELDS))
        bad = verify(unit, np.array(rows, dtype=complex))
        for i, msg in errors.items():
            bad.setdefault(i, []).insert(0, msg)
        return UnitResult(latencies, [f"op {i}: {'; '.join(v)}" for i, v in sorted(bad.items())])


def verify(unit: dict, out: np.ndarray) -> dict[int, list[str]]:
    """Per-op problems, checked against refs only; keys are op indices."""
    n = len(out)
    jones = unit["jones"]
    a, b, c = (refs.normalize(jones[:, k]) for k in range(3))
    col = {k: out[:, i] for k, i in COL.items()}
    real = {k: v.real for k, v in col.items()}
    lib_q = np.stack([col["q1"], col["q2"], col["q3"]], axis=-1)
    checks: list[tuple[str, np.ndarray]] = []

    def add(label, ok):
        checks.append((label, np.asarray(ok, dtype=bool)))

    for label, want, h, v in (("a", a, "ah", "av"), ("b", b, "bh", "bv"), ("c", c, "ch", "cv")):
        got = np.stack([col[h], col[v]], axis=-1)
        add(f"JonesVector {label} normalization", refs.phase_distance(want, got) <= 1e-12)
    own_q = refs.pair_state(a, b)
    add("qutrit_from_jones_pair", refs.phase_distance(own_q, lib_q) <= 1e-9)
    halves_q = refs.pair_state(refs.jones_of_sphere(real["pt"], real["pp"]),
                               refs.jones_of_sphere(real["qt"], real["qp"]))
    add("factorization round trip", refs.phase_distance(halves_q, lib_q) <= 1e-9)
    half = np.cos(np.radians(real["sigma"]) / 2.0)
    add("P = 2cos(s/2)/(1+cos^2(s/2))", np.abs(real["P"] - 2 * half / (1 + half ** 2)) <= 1e-9)
    own_p = np.linalg.norm(refs.stokes_of_qutrit(own_q), axis=-1)
    add("polarization_degree", np.abs(real["P"] - own_p) <= 1e-9)
    cos_sigma = np.clip(np.sum(refs.stokes_of_jones(a) * refs.stokes_of_jones(b), axis=-1), -1, 1)
    add("subtense_angle", np.abs(real["sigma"] - np.degrees(np.arccos(cos_sigma))) <= 1e-5)

    expected_degenerate = unit["degenerate"]
    add("AnyPartnerError exactly on degenerate inputs", real["degenerate"].astype(bool) == expected_degenerate)
    d = np.stack([col["dh"], col["dv"]], axis=-1)
    live = ~expected_degenerate
    with np.errstate(invalid="ignore"):
        own_resid = np.abs(refs.permanent_amplitude(c, d, a, b))
        add("partner residual", ~live | ((own_resid <= 1e-9) & (real["resid"] <= 1e-9)))
        add("is_orthogonal", ~live | ((real["orth"] == 1) & (real["orth_mag"] <= 1e-9)))

    own_src = refs.source_qutrit(unit["source"][:, 0], unit["source"][:, 1])
    lib_src = np.stack([col["s1"], col["s2"], col["s3"]], axis=-1)
    add("source_state", refs.phase_distance(own_src, lib_src) <= 1e-12)

    filt = unit["filters"]
    r1, r2, rc = refs.scalar_rates(own_q, refs.filter_mode(filt[:, 0], filt[:, 1]),
                                      refs.filter_mode(filt[:, 2], filt[:, 3]))
    add("singles_rate 1", np.abs(real["r1"] - r1) <= 1e-9 * refs.PAIR_RATE * refs.ETA1)
    add("singles_rate 2", np.abs(real["r2"] - r2) <= 1e-9 * refs.PAIR_RATE * refs.ETA2)
    add("coincidence_rate", np.abs(real["rc"] - rc) <= 1e-9 * refs.RC_SCALE)
    # g2 against its definition on the checked rates: near-zero singles make
    # g2 itself too ill-conditioned to compare with the reference directly
    g_def = 1.0 + real["rc"] / (real["r1"] * real["r2"] * refs.WINDOW)
    add("g2", np.abs(real["g2"] - g_def) <= 1e-12 * np.abs(g_def))

    bad: dict[int, list[str]] = {}
    for label, ok in checks:
        for i in np.flatnonzero(~ok[:n]):
            bad.setdefault(int(i), []).append(label)
    return bad
