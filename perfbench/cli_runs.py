"""cli-runs: sequential `python -m biphoton.cli` processes from a seeded mix.

What a shell user waits for: interpreter start and imports dominate each
call, so a faster sweep kernel barely moves it while start-up changes show.
One unit is one cycle of sixteen calls in a seeded order (a --save-config
call is always followed by its --config replay).  Every call's exit code,
stdout and files are parsed back and compared with the library and refs.
"""
from __future__ import annotations

import hashlib
import json
import os
import re
import sys

import numpy as np

from . import refs
from .harness import ROOT, UnitResult, child_env, run_child
from .spans import load_spans

CITIES = ("moscow", "turin", "baltimore", "bounty")
CHILD_DRIVER = os.path.join(ROOT, "perfbench", "cli_child.py")


def _f(x: float) -> str:
    return f"{x:.6f}"


def _r(x: float) -> float:
    """x as the CLI reads it back from _f(x)."""
    return float(_f(x))


def _angle(rng) -> float:
    """Polarizer angle at least 2 deg from 0 and +-90, so no singles rate vanishes."""
    return _r(rng.choice([-1.0, 1.0]) * rng.uniform(2.0, 88.0))


def _chi(rng) -> float:
    while True:
        x = _r(rng.uniform(0.0, 90.0))
        if all(abs(x - b) > 2.0 for b in (0.0, 22.5, 45.0, 67.5, 90.0)):
            return x


def _named_triple(rng, degenerate: bool) -> list[str]:
    names = list(refs.NAMED)
    while True:
        a, b, c = (str(x) for x in rng.choice(names, size=3))
        if degenerate:
            return [a, a, refs.ORTHOGONAL_NAME[a]]
        if not (a == b and c == refs.ORTHOGONAL_NAME[a]):
            return [a, b, c]


def draw_cycle(rng: np.random.Generator) -> list[dict]:
    """One cycle: every kind once, in a seeded order."""
    def op(kind, argv, **info):
        return {"kind": kind, "argv": argv, **info}

    chi, dphi = _chi(rng), _r(rng.uniform(-180, 180))
    amps = rng.normal(size=(3, 2))
    c_text = ",".join(f"{re_:.6f}{im:+.6f}j" for re_, im in amps)
    sphere = [f"{rng.uniform(0, 180):.6f},{rng.uniform(-180, 180):.6f}" for _ in range(3)]
    latlon = [f"{rng.uniform(-90, 90):.6f},{rng.uniform(-180, 180):.6f}" for _ in range(3)]
    cities = [str(x) for x in rng.choice(CITIES, size=3, replace=False)]
    bad = [
        ["state", "--chi", _f(chi), "--c", "1,0,0"],
        ["partner", "H", "V", "atlantis"],
        ["sweep", "chi", "--grid", "10:5:1"],
    ][int(rng.integers(3))]

    def sweep(kind, fmt, seeded, extra=()):
        z1, z2 = _angle(rng), _angle(rng)
        argv = ["sweep", "chi" if kind == "chi" else "polarizer", "--z1", _f(z1), "--z2", _f(z2)]
        info = {"sweep": kind, "fmt": fmt, "zeta1": z1, "zeta2": z2, "chi": 0.0,
                "seed": None, "drift": 0.0}
        if kind != "chi":
            info["chi"] = _chi(rng)
            argv += ["--chi", _f(info["chi"]), "--which", kind]
        if seeded:
            info["seed"] = int(rng.integers(0, 2 ** 31))
            info["drift"] = _r(rng.uniform(0.0, 0.3))
            argv += ["--seed", str(info["seed"]), "--drift", _f(info["drift"])]
        argv += ["--format", fmt, *extra]
        info["file"] = extra[1] if extra else f"sweep_{argv[1]}.{fmt}"
        return argv, info

    groups = [
        [op("state-chi", ["state", "--chi", _f(chi), "--dphi", _f(dphi)], chi=chi, dphi=dphi)],
        [op("state-chi-json", ["state", "--chi", _f(chi), "--dphi", _f(dphi), "--json"], chi=chi, dphi=dphi)],
        [op("state-c", ["state", f"--c={c_text}"], c=c_text)],
        [op("state-c-json", ["state", f"--c={c_text}", "--json"], c=c_text)],
        [op("partner-named", ["partner", *_named_triple(rng, False)])],
        [op("partner-sphere-json", ["partner", "--json", "--", *sphere])],
        [op("partner-globe-json", ["partner", "--globe", "--json", *cities])],
        [op("partner-globe", ["partner", "--globe", "--", *latlon])],
        [op("partner-degenerate", ["partner", *_named_triple(rng, True)])],
        [op("bad-input", bad)],
    ]
    for kind, fmt, seeded in (("chi", "csv", False), ("chi", "json", True),
                              (str(rng.choice(["P1", "P2"])), "json", False),
                              (str(rng.choice(["P1", "P2"])), "csv", True)):
        argv, info = sweep(kind, fmt, seeded)
        groups.append([op(f"sweep-{'seeded' if seeded else 'ideal'}", argv, **info)])
    argv, info = sweep("chi", "csv", True, ("--out", "saved.csv"))
    groups.append([op("save-config", argv + ["--save-config", "saved_config.json"], **info),
                   op("replay-config", ["--config", "saved_config.json"], **info)])
    order = rng.permutation(len(groups))
    return [o for i in order for o in groups[int(i)]]


def repro_op(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    z1, z2, drift, s = _angle(rng), _angle(rng), _r(rng.uniform(0, 0.3)), int(rng.integers(0, 2 ** 31))
    return {"kind": "repro", "file": "repro.csv",
            "argv": ["sweep", "chi", "--z1", _f(z1), "--z2", _f(z2), "--seed", str(s),
                     "--drift", _f(drift), "--out", "repro.csv"]}


class CliRuns:
    name = "cli-runs"
    in_process = False  # ops are child processes; they trace themselves
    trace_units = 1
    ops_per_unit = 16

    def __init__(self, seed: int, ctx) -> None:
        import biphoton

        self.bp = biphoton
        self.seed = seed
        self.tmpdir = ctx.tmpdir
        self.env = child_env(self.tmpdir)
        self.saved: dict | None = None

    def mix(self) -> dict:
        return {
            "ops_per_unit": self.ops_per_unit,
            "kinds": ["state --chi", "state --chi --json", "state --c", "state --c --json",
                      "partner named", "partner theta,phi --json", "partner --globe cities --json",
                      "partner --globe lat,lon", "partner degenerate (exit 3)", "bad input (exit 2)",
                      "sweep chi csv", "sweep chi --seed json", "sweep polarizer json",
                      "sweep polarizer --seed csv", "sweep --save-config", "--config replay"],
            "grid": "default 181 points",
            "order": "seeded permutation per cycle; the replay follows its --save-config",
        }

    def warmup_unit(self) -> list[dict]:
        rng = np.random.default_rng([self.seed, 1])
        return [{"kind": "state-chi-json", "chi": (c := _chi(rng)), "dphi": 180.0,
                 "argv": ["state", "--chi", _f(c), "--json"]}]

    def units(self):
        rng = np.random.default_rng([self.seed, 0])
        while True:
            yield draw_cycle(rng)

    @staticmethod
    def split(unit: list[dict]) -> list[list[dict]]:
        return [[op] for op in unit]

    # ------------------------------------------------------------ op

    def execute(self, op: dict, tracer=None) -> tuple[float, dict]:
        """Run one CLI call; returns (seconds, outcome)."""
        path = os.path.join(self.tmpdir, op["file"]) if "file" in op else None
        if path and os.path.exists(path):
            os.remove(path)
        if tracer is None:
            run = run_child([sys.executable, "-m", "biphoton.cli", *op["argv"]], self.env, self.tmpdir)
        else:
            spans_path = os.path.join(self.tmpdir, "child-spans.jsonl")
            env = dict(self.env, PERFBENCH_SPANS=spans_path)
            with tracer.op(tracer.next_op(), "op.cli-runs") as rec:
                run = run_child([sys.executable, CHILD_DRIVER, *op["argv"]], env, self.tmpdir)
            tracer.adopt(load_spans(spans_path), rec)
            os.remove(spans_path)
        files = {}
        if path and os.path.exists(path):
            with open(path, "rb") as fh:
                files[op["file"]] = fh.read()
        return run.seconds, {"code": run.code, "stdout": run.stdout, "stderr": run.stderr,
                             "files": files, "path": path, "peak_rss_mb": run.peak_rss_mb}

    def run_unit(self, unit: list[dict], tracer=None) -> UnitResult:
        result = UnitResult([], [])
        for op in unit:
            try:
                elapsed, outcome = self.execute(op, tracer)
            except Exception as exc:  # a call that cannot be run or timed out is a failed op
                result.latencies.append(float("nan"))
                result.failures.append(f"{op['kind']} {op['argv']}: {type(exc).__name__}: {exc}")
                continue
            result.latencies.append(elapsed)
            result.child_peak_rss_mb = max(result.child_peak_rss_mb, outcome["peak_rss_mb"])
            if "sweep" in op:
                result.points += 181
            blob = json.dumps([outcome["code"], outcome["stdout"], outcome["stderr"]]).encode()
            blob += b"".join(outcome["files"].values())
            result.digests.append(hashlib.sha256(blob).hexdigest())
            try:
                problems = self.verify(op, outcome)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                problems = [f"unparsable output: {type(exc).__name__}: {exc}"]
            if problems:
                result.failures.append(f"{op['kind']} {op['argv']}: {'; '.join(problems)}")
            if op["kind"] == "save-config":
                self.saved = outcome
        return result

    # ------------------------------------------------------------ checks

    def verify(self, op: dict, o: dict) -> list[str]:
        kind = op["kind"]
        want_code = {"partner-degenerate": 3, "bad-input": 2}.get(kind, 0)
        if o["code"] != want_code:
            return [f"exit code {o['code']} != {want_code}; stderr {o['stderr'][-200:]!r}"]
        if kind == "bad-input":
            return refs.require("bad input message", o["stdout"] == "" and o["stderr"].startswith("error:"))
        if kind == "partner-degenerate":
            return refs.require("degenerate message", o["stdout"].startswith("degenerate geometry:"))
        if o["stderr"]:
            return [f"unexpected stderr {o['stderr'][-200:]!r}"]
        if kind.startswith("state"):
            return self._check_state(op, o)
        if kind.startswith("partner"):
            return self._check_partner(op, o)
        if kind == "replay-config":
            saved = self.saved or {}
            return refs.require("replay reproduces the saved run byte for byte",
                                o["files"] == saved.get("files") and o["stdout"] == saved.get("stdout"))
        return self._check_sweep(op, o)

    def _check_state(self, op: dict, o: dict) -> list[str]:
        bp = self.bp
        if "c" in op:
            amps = [complex(p.strip()) for p in op["c"].split(",")]
            lib = bp.BiphotonQutrit(*amps)
            own = refs.normalize(np.array([amps]))
        else:
            lib = bp.source_state(bp.SourceSetting(op["chi"], op["dphi"]))
            own = refs.source_qutrit([op["chi"]], [op["dphi"]])
        lib_amps = np.array([[lib.c1, lib.c2, lib.c3]])
        problems = refs.close("qutrit vs refs", refs.phase_distance(own, lib_amps), [0.0], atol=1e-12)
        p_deg, sigma = bp.polarization_degree(lib), bp.subtense_angle(lib)
        if op["kind"].endswith("json"):
            rep = json.loads(o["stdout"])
            got = np.array([[complex(*rep["qutrit"][k]) for k in ("c1", "c2", "c3")]])
            problems += refs.close("qutrit", got, lib_amps, atol=1e-12)
            problems += refs.close("P", rep["polarization_degree"], p_deg, atol=1e-12)
            problems += refs.close("sigma", rep["subtense_angle"], sigma, atol=1e-9)
            halves = rep["halves_sphere"]
            own_halves = refs.pair_state(refs.jones_of_sphere([halves[0]["theta"]], [halves[0]["phi"]]),
                                         refs.jones_of_sphere([halves[1]["theta"]], [halves[1]["phi"]]))
            problems += refs.close("halves round trip", refs.phase_distance(own_halves, got), [0.0], atol=1e-9)
            return problems
        text = o["stdout"]
        m = re.match(r"qutrit: c1 = (\S+), c2 = (\S+), c3 = (\S+)\n", text)
        got = np.array([[complex(m.group(i)) for i in (1, 2, 3)]])
        problems += refs.close("qutrit", got, lib_amps, atol=1e-8)
        problems += refs.close("P", float(re.search(r"^P = (\S+)$", text, re.M).group(1)), p_deg, atol=1e-8)
        problems += refs.close("sigma", float(re.search(r"^sigma = (\S+) deg$", text, re.M).group(1)),
                               sigma, atol=1e-4)
        return problems

    def _check_partner(self, op: dict, o: dict) -> list[str]:
        bp = self.bp
        args = [a for a in op["argv"][1:] if not a.startswith("--")]
        if "--globe" in op["argv"]:
            points = [bp.globe_to_poincare(bp.CITIES[a] if a in bp.CITIES
                                           else bp.GlobePoint(*map(float, a.split(","))))
                      for a in args]
        else:
            points = [bp.poincare_from_jones(bp.NAMED_STATES[a]) if a in bp.NAMED_STATES
                      else bp.PoincarePoint(*map(float, a.split(","))) for a in args]
        lib = bp.orthogonal_partner(*points)
        if op["kind"].endswith("json"):
            rep = json.loads(o["stdout"])
            theta, phi = rep["partner_sphere"]["theta"], rep["partner_sphere"]["phi"]
            lat, lon = rep["partner_globe"]["latitude"], rep["partner_globe"]["longitude"]
            resid, tol = rep["residual"], 1e-9
        else:
            text = o["stdout"]
            theta, phi = map(float, re.search(r"partner \(sphere\): \(theta=(\S+), phi=(\S+)\)\n", text).groups())
            lat, lon = map(float, re.search(r"partner \(globe\): \(lat=(\S+), lon=(\S+)\)\n", text).groups())
            resid = float(re.search(r"residual \|amplitude\| = (\S+)\n", text).group(1))
            tol = 1e-5
        got = refs.jones_of_sphere([theta], [phi])
        problems = refs.close("partner vs library",
                              refs.stokes_of_jones(got), refs.stokes_of_jones(
                                  refs.jones_of_sphere([lib.theta], [lib.phi])), atol=tol)
        a, b, c = (refs.jones_of_sphere([p.theta], [p.phi]) for p in points)
        problems += refs.close("partner residual (refs)", np.abs(refs.permanent_amplitude(c, got, a, b)),
                               [0.0], atol=tol)
        problems += refs.require("reported residual", resid <= 1e-9)
        problems += refs.close("globe latitude = 90 - theta", lat, 90.0 - theta, atol=2e-4)
        problems += refs.close("globe longitude = phi", lon, phi, atol=2e-4)
        return problems

    def _check_sweep(self, op: dict, o: dict) -> list[str]:
        bp = self.bp
        sampling = dict(seed=op["seed"], pump_drift=op["drift"]) if op["seed"] is not None else {}
        if op["sweep"] == "chi":
            lib = bp.sweep_chi(op["zeta1"], op["zeta2"], **sampling)
        else:
            fixed = op["zeta2"] if op["sweep"] == "P1" else op["zeta1"]
            lib = bp.sweep_filter(op["chi"], which_filter=op["sweep"], fixed_zeta=fixed, **sampling)
        columns = {"param": lib.param, "R1": lib.r1, "R2": lib.r2, "Rc": lib.rc, "g2": lib.g2}
        grid = np.linspace(0.0, 90.0, 181)
        problems = refs.check_sweep_table(columns, op["sweep"], grid, op["chi"], op["zeta1"],
                                          op["zeta2"], op["seed"] is not None, 1.0, op["drift"])
        if op["file"] not in o["files"]:
            return problems + [f"no output file {op['file']}"]
        table = refs.parse_table(o["files"][op["file"]].decode("utf-8"), op["fmt"])
        if len(table["param"]) != len(grid):
            return problems + [f"file has {len(table['param'])} rows, expected {len(grid)}"]
        problems += refs.check_file_matches(table, columns, op["fmt"])
        lines = o["stdout"].splitlines()
        problems += refs.require("wrote line", lines[0] == f"wrote {o['path']}")
        m = re.match(r"argmin \S+ = (\S+) deg, min g2 = (\S+), Rc there = (\S+)$", lines[1])
        best_param, best_g2 = lib.argmin_g2()
        problems += refs.close("argmin", float(m.group(1)), best_param, atol=1e-4)
        problems += refs.close("min g2", float(m.group(2)), best_g2, rtol=1e-6)
        if op["kind"] == "save-config":
            with open(os.path.join(self.tmpdir, "saved_config.json"), encoding="utf-8") as fh:
                problems += refs.require("saved config", json.load(fh)["command"] == "sweep")
        return problems


def cli_repro(seed: int, ctx) -> list[str]:
    """Run one seeded CLI sweep twice; output file and stdout must be byte-identical."""
    op = repro_op(seed)
    env = child_env(ctx.tmpdir)
    outputs = []
    for _ in range(2):
        run = run_child([sys.executable, "-m", "biphoton.cli", *op["argv"]], env, ctx.tmpdir)
        path = os.path.join(ctx.tmpdir, op["file"])
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
        outputs.append((run.code, run.stdout, run.stderr, data))
    if outputs[0][0] != 0:
        return [f"repro sweep exited {outputs[0][0]}: {outputs[0][2][-200:]!r}"]
    return [] if outputs[0] == outputs[1] else ["seeded CLI sweep differs between two runs"]

