"""Command-line front end: reproducible state reports, partner solving and
parameter sweeps with CSV/JSON output.

Angles are accepted in degrees only.  Exit codes: 0 success, 2 bad input,
3 degenerate partner geometry, 4 output I/O failure.  The environment
variable BIPHOTON_OUTDIR sets the default directory for bare output
filenames.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from .experiment import (
    RateModel,
    SourceSetting,
    _write_atomic,
    source_state,
    sweep_chi,
    sweep_filter,
)
from .orthogonality import AnyPartnerError, orthogonal_partner_jones
from .polarization import (
    CITIES,
    NAMED_STATES,
    GlobePoint,
    PoincarePoint,
    globe_to_poincare,
    jones_from_poincare,
    poincare_from_jones,
    poincare_to_globe,
)
from .qutrit import (
    BiphotonQutrit,
    factor_qutrit,
    pair_amplitude,
    polarization_degree,
    stokes_expectation,
    subtense_angle,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

OUTDIR_ENV = "BIPHOTON_OUTDIR"

# Largest --grid accepted: a bound on outside input, checked before the
# grid is built.
_MAX_GRID_POINTS = 10**6


@dataclass
class RunConfig:
    """Resolved parameters of one CLI invocation; round-trips through JSON."""

    command: str
    params: dict = field(default_factory=dict)
    output_format: str = "csv"
    output_path: str | None = None
    seed: int | None = None
    rate_model: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "output_format": self.output_format,
            "output_path": self.output_path,
            "seed": self.seed,
            "rate_model": self.rate_model,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "RunConfig":
        return cls(
            command=obj["command"],
            params=dict(obj.get("params", {})),
            output_format=obj.get("output_format", "csv"),
            output_path=obj.get("output_path"),
            seed=obj.get("seed"),
            rate_model=dict(obj.get("rate_model", {})),
        )

    def save(self, path: str) -> None:
        _write_atomic(path, json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_obj(json.load(fh))


class CliError(ValueError):
    """Bad user input detected after argument parsing."""


def _parse_complex_triple(text: str) -> list[list[float]]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise CliError(f"expected three comma-separated amplitudes, got {text!r}")
    try:
        values = [complex(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"malformed amplitude in {text!r}: {exc}") from exc
    return [[z.real, z.imag] for z in values]


def _parse_sphere_point(text: str) -> PoincarePoint:
    key = text.strip()
    for name, state in NAMED_STATES.items():
        if key.lower() == name.lower():
            return poincare_from_jones(state)
    try:
        theta, phi = (float(p) for p in key.split(","))
        return PoincarePoint(theta, phi)
    except (ValueError, TypeError) as exc:
        raise CliError(
            f"{text!r} is neither a named state ({', '.join(NAMED_STATES)}) "
            "nor 'theta,phi' in degrees"
        ) from exc


def _parse_globe_point(text: str) -> PoincarePoint:
    key = text.strip().lower()
    if key in CITIES:
        return globe_to_poincare(CITIES[key])
    try:
        lat, lon = (float(p) for p in text.split(","))
        return globe_to_poincare(GlobePoint(lat, lon))
    except (ValueError, TypeError) as exc:
        raise CliError(
            f"{text!r} is neither a known place ({', '.join(CITIES)}) "
            "nor 'latitude,longitude' in degrees"
        ) from exc


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise CliError(f"grid must be 'start:stop:step', got {text!r}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise CliError(f"grid values must be finite, got {text!r}")
    if step <= 0 or stop <= start:
        raise CliError("grid needs stop > start and step > 0")
    intervals = (stop - start) / step
    # round(intervals) + 1 points; checked before round(), which fails on inf
    if not intervals < _MAX_GRID_POINTS - 0.5:
        raise CliError(
            f"grid {text!r} has about {intervals + 1:.3g} points; "
            f"at most {_MAX_GRID_POINTS} are allowed"
        )
    n = int(round(intervals))
    return [start + step * i for i in range(n + 1) if start + step * i <= stop + 1e-9]


def _resolve_output_path(name: str) -> str:
    if os.path.isabs(name) or os.path.dirname(name):
        return name
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), name)


def _format_point(p: PoincarePoint) -> str:
    return f"(theta={p.theta:.4f}, phi={p.phi:.4f})"


def _format_globe(g: GlobePoint) -> str:
    return f"(lat={g.latitude:.4f}, lon={g.longitude:.4f})"


# ---------------------------------------------------------------- state


def run_state(cfg: RunConfig) -> int:
    params = cfg.params
    if "c" in params:
        c1, c2, c3 = (complex(re, im) for re, im in params["c"])
        try:
            state = BiphotonQutrit(c1, c2, c3)
        except ValueError as exc:
            raise CliError(f"amplitudes not normalizable: {exc}") from exc
    else:
        state = source_state(SourceSetting(params["chi"], params["dphi"]))
    pair = factor_qutrit(state)
    stokes = stokes_expectation(state)
    report = {
        "qutrit": state.to_json(),
        "d1_squared_over_d3_squared": (
            (state.d1 / state.d3) ** 2 if state.d3 > 0 else None
        ),
        "halves_sphere": [pair.p.to_json(), pair.q.to_json()],
        "halves_globe": [
            poincare_to_globe(pair.p).to_json(),
            poincare_to_globe(pair.q).to_json(),
        ],
        "stokes": stokes.to_json(),
        "polarization_degree": polarization_degree(state),
        "subtense_angle": subtense_angle(state),
    }
    if cfg.output_format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"qutrit: c1 = {state.c1:.9g}, c2 = {state.c2:.9g}, c3 = {state.c3:.9g}",
            "d1^2/d3^2 = "
            + (
                f"{report['d1_squared_over_d3_squared']:.9g}"
                if report["d1_squared_over_d3_squared"] is not None
                else "inf"
            ),
            f"halves (sphere): {_format_point(pair.p)}, {_format_point(pair.q)}",
            "halves (globe): "
            f"{_format_globe(poincare_to_globe(pair.p))}, "
            f"{_format_globe(poincare_to_globe(pair.q))}",
            f"stokes: ({stokes.s1:.9g}, {stokes.s2:.9g}, {stokes.s3:.9g})",
            f"P = {report['polarization_degree']:.9g}",
            f"sigma = {report['subtense_angle']:.4f} deg",
        ]
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.output_path)
    return EXIT_OK


# ---------------------------------------------------------------- partner


def run_partner(cfg: RunConfig) -> int:
    params = cfg.params
    parse = _parse_globe_point if params.get("globe") else _parse_sphere_point
    a = parse(params["a"])
    b = parse(params["b"])
    c = parse(params["c"])
    ja, jb, jc = (jones_from_poincare(p) for p in (a, b, c))
    try:
        jd = orthogonal_partner_jones(ja, jb, jc)
    except AnyPartnerError as exc:
        _emit(f"degenerate geometry: {exc}\n", cfg.output_path)
        return EXIT_DEGENERATE
    d = poincare_from_jones(jd)
    residual = abs(pair_amplitude(jc, jd, ja, jb))
    if cfg.output_format == "json":
        text = (
            json.dumps(
                {
                    "partner_sphere": d.to_json(),
                    "partner_globe": poincare_to_globe(d).to_json(),
                    "residual": residual,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    else:
        text = (
            f"partner (sphere): {_format_point(d)}\n"
            f"partner (globe): {_format_globe(poincare_to_globe(d))}\n"
            f"residual |amplitude| = {residual:.3e}\n"
        )
    _emit(text, cfg.output_path)
    return EXIT_OK


# ---------------------------------------------------------------- sweep


def run_sweep(cfg: RunConfig) -> int:
    import numpy as np

    params = cfg.params
    m = RateModel(**cfg.rate_model)
    grid = params.get("grid")
    common = dict(
        m=m,
        seed=cfg.seed,
        duration_per_point=params.get("duration", 1.0),
        pump_drift=params.get("drift", 0.0),
    )
    if params["kind"] == "chi":
        result = sweep_chi(
            params["zeta1"], params["zeta2"], params["dphi"], chi_grid=grid, **common
        )
    else:
        result = sweep_filter(
            params["chi"],
            params["dphi"],
            which_filter=params.get("which", "P1"),
            fixed_zeta=params["fixed_zeta"],
            zeta_grid=grid,
            **common,
        )
    out_name = cfg.output_path or f"sweep_{params['kind']}.{cfg.output_format}"
    path = _resolve_output_path(out_name)
    result.write(path, cfg.output_format)
    if np.isnan(result.g2).all():  # a seeded run whose sampled singles all vanish
        print(f"wrote {path}\nmin g2 undefined: g2 is nan at every point")
        return EXIT_OK
    i = int(np.nanargmin(result.g2))
    print(
        f"wrote {path}\n"
        f"argmin {result.param_name} = {result.param[i]:.4f} deg, "
        f"min g2 = {result.g2[i]:.6f}, Rc there = {result.rc[i]:.8e}"
    )
    return EXIT_OK


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        _write_atomic(_resolve_output_path(output_path), text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- parser


def _add_rate_model_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pair-rate", type=float, help="pairs/s at the beamsplitter")
    sub.add_argument("--eta1", type=float, help="detector 1 efficiency")
    sub.add_argument("--eta2", type=float, help="detector 2 efficiency")
    sub.add_argument("--tc", type=float, help="coincidence window in seconds")
    sub.add_argument("--bg1", type=float, help="detector 1 background counts/s")
    sub.add_argument("--bg2", type=float, help="detector 2 background counts/s")


def _collect_rate_model(args: argparse.Namespace) -> dict:
    mapping = {
        "pair_rate": args.pair_rate,
        "eta1": args.eta1,
        "eta2": args.eta2,
        "coincidence_window": args.tc,
        "background1": args.bg1,
        "background2": args.bg2,
    }
    return {k: v for k, v in mapping.items() if v is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Photon-pair polarization states, orthogonality and "
        "anticorrelation-dip sweeps.",
    )
    parser.add_argument("--config", help="run from a saved JSON config file")
    subparsers = parser.add_subparsers(dest="command")

    p_state = subparsers.add_parser(
        "state", help="report a pair state from source settings or amplitudes"
    )
    p_state.add_argument("--chi", type=float, help="pump half-wave-plate angle, deg")
    p_state.add_argument("--dphi", type=float, default=180.0, help="quartz phase, deg")
    p_state.add_argument("--c", help="qutrit amplitudes 'c1,c2,c3' (complex allowed)")
    p_state.add_argument("--json", action="store_true", help="machine-readable output")
    p_state.add_argument("--out", help="write the report to this path")
    p_state.add_argument("--save-config", help="save the resolved config as JSON")

    p_partner = subparsers.add_parser(
        "partner", help="solve for the polarization completing an orthogonal pair"
    )
    p_partner.add_argument("a", help="first half of the fixed pair")
    p_partner.add_argument("b", help="second half of the fixed pair")
    p_partner.add_argument("c", help="chosen half of the partner pair")
    p_partner.add_argument(
        "--globe",
        action="store_true",
        help="interpret inputs as globe places or 'lat,lon'",
    )
    p_partner.add_argument("--json", action="store_true")
    p_partner.add_argument("--out", help="write the report to this path")
    p_partner.add_argument("--save-config", help="save the resolved config as JSON")

    p_sweep = subparsers.add_parser(
        "sweep", help="scan a source or filter angle and write a rate table"
    )
    p_sweep.add_argument("kind", choices=["chi", "polarizer"])
    p_sweep.add_argument("--z1", type=float, default=45.0, help="polarizer P1 angle")
    p_sweep.add_argument("--z2", type=float, default=60.0, help="polarizer P2 angle")
    p_sweep.add_argument("--chi", type=float, help="pump angle (polarizer sweep)")
    p_sweep.add_argument("--dphi", type=float, default=180.0)
    p_sweep.add_argument(
        "--which", choices=["P1", "P2"], default="P1", help="polarizer to scan"
    )
    p_sweep.add_argument("--grid", help="scan grid 'start:stop:step' in degrees")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.add_argument("--out", help="output path (default sweep_<kind>.<format>)")
    p_sweep.add_argument("--seed", type=int, help="sample Poisson counts with this seed")
    p_sweep.add_argument(
        "--duration", type=float, default=1.0, help="seconds per grid point"
    )
    p_sweep.add_argument(
        "--drift", type=float, default=0.0, help="total fractional pump-power decrease"
    )
    p_sweep.add_argument("--save-config", help="save the resolved config as JSON")
    _add_rate_model_args(p_sweep)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "state":
        if (args.c is None) == (args.chi is None):
            raise CliError("give exactly one of --chi/--dphi or --c")
        if args.c is not None:
            params = {"c": _parse_complex_triple(args.c)}
        else:
            params = {"chi": args.chi, "dphi": args.dphi}
        return RunConfig(
            command="state",
            params=params,
            output_format="json" if args.json else "text",
            output_path=args.out,
        )
    if args.command == "partner":
        return RunConfig(
            command="partner",
            params={"a": args.a, "b": args.b, "c": args.c, "globe": args.globe},
            output_format="json" if args.json else "text",
            output_path=args.out,
        )
    if args.command == "sweep":
        params: dict = {
            "kind": args.kind,
            "dphi": args.dphi,
            "duration": args.duration,
            "drift": args.drift,
        }
        if args.grid:
            params["grid"] = _parse_grid(args.grid)
        if args.kind == "chi":
            params["zeta1"] = args.z1
            params["zeta2"] = args.z2
        else:
            if args.chi is None:
                raise CliError("polarizer sweep needs --chi")
            params["chi"] = args.chi
            params["which"] = args.which
            params["fixed_zeta"] = args.z2 if args.which == "P1" else args.z1
        return RunConfig(
            command="sweep",
            params=params,
            output_format=args.format,
            output_path=args.out,
            seed=args.seed,
            rate_model=_collect_rate_model(args),
        )
    raise CliError(f"unknown command {args.command!r}")


def run_config(cfg: RunConfig) -> int:
    runners = {"state": run_state, "partner": run_partner, "sweep": run_sweep}
    if cfg.command not in runners:
        raise CliError(f"unknown command {cfg.command!r}")
    return runners[cfg.command](cfg)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            if args.command:
                parser.error("--config replaces a command line, not combines with it")
            cfg = RunConfig.load(args.config)
        else:
            if not args.command:
                parser.error("a command or --config is required")
            cfg = config_from_args(args)
            if getattr(args, "save_config", None):
                cfg.save(args.save_config)
        return run_config(cfg)
    except (CliError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
