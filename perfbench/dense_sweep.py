"""dense-sweep: library sweep_chi and sweep_filter on 18 001-point grids.

Each op sweeps, writes the table to a file and is verified against the
closed-form model.  Ops come in blocks of four that are balanced in cost:
two chi sweeps and one of each filter sweep, two ideal and two seeded
(Poisson counts with a random pump drift), two CSV and two JSON.  Chi sweeps
build a new state per point while filter sweeps share one state, so a
per-state cache would show on half the ops only.
"""
from __future__ import annotations

import contextlib
import hashlib
import os

import numpy as np

from . import refs, speed
from .harness import UnitResult

POINTS = 18001
WARMUP_POINTS = 181  # the CLI default grid; set-up time should not be a sweep timing
BLOCKS = (
    (("chi", False, "csv"), ("chi", True, "csv"), ("P1", False, "json"), ("P2", True, "json")),
    (("chi", False, "json"), ("chi", True, "json"), ("P2", False, "csv"), ("P1", True, "csv")),
)
DELTA_PHI = 180.0
DURATION = 1.0


def _angle_away_from(rng, bad: tuple[float, ...], margin: float = 2.0) -> float:
    while True:
        x = float(rng.uniform(0.0, 90.0))
        if all(abs(x - b) > margin for b in bad):
            return x


def draw_op(rng: np.random.Generator, kind: str, seeded: bool, fmt: str, points: int) -> dict:
    """Random settings that keep every singles rate away from zero (no ZeroSinglesError)."""
    sign = rng.choice([-1.0, 1.0], size=2)
    return {
        "kind": kind, "seeded": seeded, "fmt": fmt, "points": points,
        "zeta1": float(sign[0]) * _angle_away_from(rng, (0.0, 90.0)),
        "zeta2": float(sign[1]) * _angle_away_from(rng, (0.0, 90.0)),
        "chi": _angle_away_from(rng, (0.0, 22.5, 45.0, 67.5, 90.0)),
        "drift": float(rng.uniform(0.0, 0.3)),
        "sample_seed": int(rng.integers(0, 2 ** 31)),
    }


class DenseSweep:
    name = "dense-sweep"
    in_process = True
    trace_units = 1

    def __init__(self, seed: int, ctx, points: int = POINTS) -> None:
        import biphoton

        self.bp = biphoton
        self.seed = seed
        self.points = points
        self.tmpdir = ctx.tmpdir
        self._grids: dict[int, np.ndarray] = {}
        self.first_seeded: tuple[dict, bytes] | None = None

    def mix(self) -> dict:
        return {
            "blocks": [[f"{k} {'seeded' if s else 'ideal'} {f}" for k, s, f in b] for b in BLOCKS],
            "points_per_op": self.points,
            "inputs": "zeta1, zeta2 ~ +-U(2, 88); chi ~ U(0, 90) at least 2 deg from multiples of "
                      "22.5; delta_phi = 180; seeded ops: drift ~ U(0, 0.3), duration 1 s",
            "warmup": f"one seeded JSON chi sweep on {WARMUP_POINTS} points",
        }

    def grid(self, points: int) -> np.ndarray:
        if points not in self._grids:
            self._grids[points] = np.linspace(0.0, 90.0, points)
        return self._grids[points]

    def warmup_unit(self) -> list[dict]:
        return [draw_op(np.random.default_rng([self.seed, 1]), "chi", True, "json", WARMUP_POINTS)]

    def units(self):
        rng = np.random.default_rng([self.seed, 0])
        while True:
            for block in BLOCKS:
                yield [draw_op(rng, *spec, self.points) for spec in block]

    def layer_pass_units(self):
        rng = np.random.default_rng([self.seed, 2])
        for block in BLOCKS:
            yield [draw_op(rng, *spec, WARMUP_POINTS) for spec in block]

    @staticmethod
    def split(unit: list[dict]) -> list[list[dict]]:
        return [[op] for op in unit]

    # ------------------------------------------------------------ op

    def _sweep(self, op: dict):
        bp = self.bp
        grid = self.grid(op["points"])
        sampling = dict(seed=op["sample_seed"], duration_per_point=DURATION,
                        pump_drift=op["drift"]) if op["seeded"] else {}
        if op["kind"] == "chi":
            return bp.sweep_chi(op["zeta1"], op["zeta2"], DELTA_PHI, chi_grid=grid, **sampling)
        fixed = op["zeta2"] if op["kind"] == "P1" else op["zeta1"]
        return bp.sweep_filter(op["chi"], DELTA_PHI, which_filter=op["kind"], fixed_zeta=fixed,
                               zeta_grid=grid, **sampling)

    def execute(self, op: dict) -> tuple[float, object, bytes]:
        """Timed sweep + write; returns (seconds, result, file bytes)."""
        path = os.path.join(self.tmpdir, f"dense.{op['fmt']}")
        t0 = speed.clock()
        result = self._sweep(op)
        result.write(path, op["fmt"])
        elapsed = speed.clock() - t0
        with open(path, "rb") as fh:
            data = fh.read()
        os.remove(path)
        return elapsed, result, data

    def run_unit(self, unit: list[dict], tracer=None) -> UnitResult:
        out = UnitResult([], [])
        for op in unit:
            span = tracer.op(tracer.next_op(), "op.dense-sweep") if tracer else contextlib.nullcontext()
            try:
                with span:
                    elapsed, result, data = self.execute(op)
            except Exception as exc:  # a raising op is a failed op
                out.latencies.append(float("nan"))
                out.failures.append(f"{describe(op)}: {type(exc).__name__}: {exc}")
                continue
            out.latencies.append(elapsed)
            out.points += len(result)
            out.digests.append(hashlib.sha256(data).hexdigest())
            problems = verify(op, self.grid(op["points"]), result, data)
            if problems:
                out.failures.append(f"{describe(op)}: {'; '.join(problems)}")
            if op["seeded"] and self.first_seeded is None and op["points"] == self.points:
                self.first_seeded = (op, data)
        return out

    def repro(self) -> list[str]:
        """Re-run the run's first seeded op; its file must be byte-identical."""
        if self.first_seeded is None:
            return []
        op, data = self.first_seeded
        _, _, again = self.execute(op)
        return [] if again == data else [f"{describe(op)}: seeded output differs between two runs"]


def describe(op: dict) -> str:
    return f"{op['kind']} {'seeded' if op['seeded'] else 'ideal'} {op['fmt']} n={op['points']}"


def verify(op: dict, grid: np.ndarray, result, data: bytes) -> list[str]:
    columns = {"param": result.param, "R1": result.r1, "R2": result.r2, "Rc": result.rc, "g2": result.g2}
    problems = refs.check_sweep_table(columns, op["kind"], grid, op["chi"], op["zeta1"], op["zeta2"],
                                      op["seeded"], DURATION, op["drift"])
    try:
        table = refs.parse_table(data.decode("utf-8"), op["fmt"])
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"unreadable {op['fmt']} file: {exc}"]
    if len(table["param"]) != len(grid):
        return problems + [f"file has {len(table['param'])} rows, expected {len(grid)}"]
    problems += refs.check_file_matches(table, columns, op["fmt"])
    if op["fmt"] == "json":
        name = {"chi": "chi", "P1": "zeta1", "P2": "zeta2"}[op["kind"]]
        want = {"param_name": name, "coincidence_window": refs.WINDOW,
                "duration": DURATION if op["seeded"] else None}
        if table["meta"] != want:
            problems.append(f"JSON header {table['meta']} != {want}")
    return problems
