"""Command-line front end: reproducible state reports, partner solving and
parameter sweeps with CSV/JSON output.

Angles are accepted in degrees only.  Exit codes: 0 success, 2 bad input,
3 degenerate partner geometry, 4 output I/O failure.  The environment
variable BIPHOTON_OUTDIR sets the default directory for bare output
filenames.

A run takes one path: argv (through `config_from_args`) or a `--config`
file becomes a JSON-shaped dict, `RunConfig.from_json_obj` checks it
against the run schema, the command's pure step builds every library
object and formats the output, `--save-config` is written, and only then
does `_write` print and write the output.  Bad input therefore exits 2
before any file is touched.
"""
from __future__ import annotations

import argparse
import dataclasses
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

# Largest grid accepted: a bound on outside input, checked before a
# --grid is built and before a config's grid list is read.
_MAX_GRID_POINTS = 10**6


class CliError(ValueError):
    """Bad user input detected after argument parsing."""


# ---------------------------------------------------------------- schema
#
# The run schema.  Nothing else in this module knows which keys a run has,
# their types or their defaults.  Each check takes the key's name, as it
# appears in error messages, and the value; it returns the value or raises
# a CliError naming the key.


def _shown(value) -> str:
    if isinstance(value, (dict, list)):
        return "an object" if isinstance(value, dict) else "an array"
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _json_text(obj) -> str:
    """The JSON text of a report or a saved config."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _check(what: str, ok, **argv):
    """The check that accepts the values for which ok() is true.  argv holds
    the add_argument keywords that read such a value from the command line."""

    def check(key: str, value):
        if not ok(value):
            raise CliError(f"{key}: expected {what}, got {_shown(value)}")
        return value

    check.argv = argv
    return check


def _is_real(value) -> bool:
    # `true` is not a number, though bool is an int in Python; an int
    # beyond the float range would overflow in the library's math
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def _one_of(*choices: str):
    return _check(
        f"one of {', '.join(choices)}", lambda v: type(v) is str and v in choices, choices=choices
    )


_real = _check("a real number", _is_real, type=float)
_text = _check("a string", lambda v: type(v) is str)
_flag = _check("true or false", lambda v: type(v) is bool, action="store_true")
_path = _check("a string or null", lambda v: v is None or type(v) is str)
_seed = _check(
    "an integer >= 0 or null", lambda v: v is None or (type(v) is int and v >= 0), type=int
)
_object = _check("a JSON object", lambda v: type(v) is dict)
_amplitudes = _check(
    "three [re, im] pairs of real numbers",
    lambda v: type(v) is list and len(v) == 3
    and all(type(z) is list and len(z) == 2 and all(map(_is_real, z)) for z in v),
)


def _grid(key: str, value):
    _check("an array of angles", lambda v: type(v) is list)(key, value)
    if len(value) > _MAX_GRID_POINTS:
        raise CliError(f"{key}: {len(value)} points; at most {_MAX_GRID_POINTS} are allowed")
    for i, angle in enumerate(value):
        _real(f"{key}[{i}]", angle)
    return value


_REQUIRED = object()  # a key without a default
_UNSET = object()  # left out when not given: the library's default applies

_COMMANDS = {
    "state": "report a pair state from source settings or amplitudes",
    "partner": "solve for the polarization completing an orthogonal pair",
    "sweep": "scan a source or filter angle and write a rate table",
}
# per command; the first is the default
_FORMATS = {"state": ("text", "json"), "partner": ("text", "json"), "sweep": ("csv", "json")}
_KINDS = ("chi", "polarizer")
_ZETA1, _ZETA2 = 45.0, 60.0  # default angles of polarizers P1 and P2, deg
# the forms of each command: state takes either amplitudes or a source
# setting, a sweep scans chi or one polarizer
_STATE, _PARTNER, _SWEEP = ("state:c", "state:chi"), ("partner",), ("sweep:chi", "sweep:polarizer")
_ALL = _STATE + _PARTNER + _SWEEP

# The command line and the run schema, one row per option and config key,
# in --help order: the flag or positional ("" for a key no option sets),
# the key in a run's config as errors name it (None for an option outside
# the run), the command forms that take it, its check (which also says how
# argv reads it, see _argv), its default and its --help text.  The tests
# pin the defaults that the library's signatures repeat.
_OPTIONS = (
    ("", "command", _ALL, _one_of(*_COMMANDS), _REQUIRED, None),
    ("", "params", _ALL, _object, _REQUIRED, None),
    ("a", "params.a", _PARTNER, _text, _REQUIRED, "first half of the fixed pair"),
    ("b", "params.b", _PARTNER, _text, _REQUIRED, "second half of the fixed pair"),
    ("c", "params.c", _PARTNER, _text, _REQUIRED, "chosen half of the partner pair"),
    ("kind", "params.kind", _SWEEP, _one_of(*_KINDS), _REQUIRED, None),
    ("--z1", "params.zeta1", ("sweep:chi",), _real, _ZETA1, "polarizer P1 angle"),
    ("--z2", "params.zeta2", ("sweep:chi",), _real, _ZETA2, "polarizer P2 angle"),
    ("--chi", "params.chi", ("state:chi", "sweep:polarizer"), _real, _REQUIRED,
     "pump half-wave-plate angle, deg"),
    ("--dphi", "params.dphi", ("state:chi", *_SWEEP), _real, 180.0, "quartz phase, deg"),
    ("--c", "params.c", ("state:c",), _amplitudes, _REQUIRED,
     "qutrit amplitudes 'c1,c2,c3' (complex allowed)"),
    ("--globe", "params.globe", _PARTNER, _flag, False,
     "interpret inputs as globe places or 'lat,lon'"),
    ("--which", "params.which", ("sweep:polarizer",), _one_of("P1", "P2"), "P1",
     "polarizer to scan"),
    # the polarizer held fixed keeps its default angle
    ("", "params.fixed_zeta", ("sweep:polarizer",), _real,
     lambda params: _ZETA2 if params["which"] == "P1" else _ZETA1, None),
    ("--grid", "params.grid", _SWEEP, _grid, _UNSET, "scan grid 'start:stop:step' in degrees"),
    # output_format is checked per command, against _FORMATS
    ("--json", "output_format", _STATE + _PARTNER, _text, _UNSET, "machine-readable output"),
    ("--format", "output_format", _SWEEP, _text, _UNSET, None),
    ("--out", "output_path", _ALL, _path, None,
     "output path (default: stdout or sweep_<kind>.<format>)"),
    ("--seed", "seed", _SWEEP, _seed, None, "sample Poisson counts with this seed"),
    ("", "rate_model", _ALL, _object, _UNSET, None),
    ("--duration", "params.duration", _SWEEP, _real, 1.0, "seconds per grid point"),
    ("--drift", "params.drift", _SWEEP, _real, 0.0, "total fractional pump-power decrease"),
    ("--save-config", None, _ALL, None, None, "save the resolved config as JSON"),
    ("--pair-rate", "rate_model.pair_rate", _SWEEP, _real, _UNSET, "pairs/s at the beamsplitter"),
    ("--eta1", "rate_model.eta1", _SWEEP, _real, _UNSET, "detector 1 efficiency"),
    ("--eta2", "rate_model.eta2", _SWEEP, _real, _UNSET, "detector 2 efficiency"),
    ("--tc", "rate_model.coincidence_window", _SWEEP, _real, _UNSET,
     "coincidence window in seconds"),
    ("--bg1", "rate_model.background1", _SWEEP, _real, _UNSET, "detector 1 background counts/s"),
    ("--bg2", "rate_model.background2", _SWEEP, _real, _UNSET, "detector 2 background counts/s"),
)


def _section(section: str, form: str | None = None) -> dict:
    """Check and default per key of one section of the run schema ("" for
    the top level), from the rows that take form if one is given."""
    return {
        key.rpartition(".")[2]: (check, default)
        for _, key, forms, check, default, _ in _OPTIONS
        if key and key.rpartition(".")[0] == section and (form is None or form in forms)
    }


_TOP = _section("")
_PARAMS = {form: _section("params", form) for form in _ALL}
_RATE_MODEL = _section("rate_model")


def _checked(where: str, obj: dict, schema: dict) -> dict:
    """obj checked against schema: known keys only, each key checked, and
    the defaults of the keys not given filled in (in schema order, so a
    callable default sees the keys before it)."""
    unknown = [key for key in obj if key not in schema]
    if unknown:
        raise CliError(f"{where}{unknown[0]}: unknown key (known: {', '.join(schema)})")
    out = {}
    for key, (check, default) in schema.items():
        if key in obj:
            out[key] = check(where + key, obj[key])
        elif default is _REQUIRED:
            raise CliError(f"{where}{key}: required key is missing")
        elif default is not _UNSET:
            out[key] = default(out) if callable(default) else default
    return out


def _form(command: str, params: dict) -> str:
    if command == "state":
        if ("c" in params) == ("chi" in params):
            raise CliError("params.c, params.chi: give exactly one of the two")
        return "state:c" if "c" in params else "state:chi"
    if command == "sweep":
        if "kind" not in params:
            raise CliError("params.kind: required key is missing")
        return "sweep:" + _one_of(*_KINDS)("params.kind", params["kind"])
    return command


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
        return dataclasses.asdict(self)

    @classmethod
    def from_json_obj(cls, obj) -> "RunConfig":
        """Check a run against the schema and fill in its defaults.

        This is the one validator of a run: argv (through config_from_args)
        and --config files both pass through it.  It checks the keys, their
        types and the choices; ranges and finiteness are left to the
        library objects the command builds.  Every error is a CliError that
        names the offending key.
        """
        if not isinstance(obj, dict):
            raise CliError(f"config: expected a JSON object, got {_shown(obj)}")
        top = _checked("", obj, _TOP)
        command = top["command"]
        formats = _FORMATS[command]
        output_format = _one_of(*formats)("output_format", top.get("output_format", formats[0]))
        rate_model = top.get("rate_model", {})
        if command != "sweep" and (top["seed"] is not None or rate_model):
            key = "seed" if top["seed"] is not None else "rate_model"
            raise CliError(f"{key}: applies to sweep only")
        params = top["params"]
        return cls(
            command=command,
            params=_checked("params.", params, _PARAMS[_form(command, params)]),
            output_format=output_format,
            output_path=top["output_path"],
            seed=top["seed"],
            rate_model=_checked("rate_model.", rate_model, _RATE_MODEL),
        )

    def save(self, path: str) -> None:
        _write_atomic(path, _json_text(self.to_json_obj()))

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh)
            except RecursionError:
                raise CliError("config: nested too deeply to read") from None
        return cls.from_json_obj(obj)


# ---------------------------------------------------------------- argv text


def _parse_complex_triple(text: str) -> list[list[float]]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise CliError(f"expected three comma-separated amplitudes, got {text!r}")
    try:
        values = [complex(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"malformed amplitude in {text!r}: {exc}") from exc
    return [[z.real, z.imag] for z in values]


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


# Partner inputs per picture: the points known by name, keyed in lower
# case so names match case-insensitively; how the names and the
# coordinates read in messages; and the point two coordinates make.
_SPHERE_INPUT = (
    {name.lower(): poincare_from_jones(state) for name, state in NAMED_STATES.items()},
    f"a named state ({', '.join(NAMED_STATES)}) nor 'theta,phi'",
    PoincarePoint,
)
_GLOBE_INPUT = (
    {name.lower(): globe_to_poincare(place) for name, place in CITIES.items()},
    f"a known place ({', '.join(CITIES)}) nor 'latitude,longitude'",
    lambda lat, lon: globe_to_poincare(GlobePoint(lat, lon)),
)


def _parse_point(text: str, globe: bool) -> PoincarePoint:
    """A name from the picture's table, else two coordinates in degrees.

    Coordinates out of range raise the ValueError of PoincarePoint or
    GlobePoint, with its own message.
    """
    names, forms, from_coordinates = _GLOBE_INPUT if globe else _SPHERE_INPUT
    point = names.get(text.strip().lower())
    if point is not None:
        return point
    try:
        x, y = (float(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"{text!r} is neither {forms} in degrees") from None
    return from_coordinates(x, y)


def _resolve_output_path(name: str) -> str:
    if os.path.isabs(name) or os.path.dirname(name):
        return name
    return os.path.join(os.environ.get(OUTDIR_ENV, "."), name)


def _format_point(p: PoincarePoint) -> str:
    return f"(theta={p.theta:.4f}, phi={p.phi:.4f})"


def _format_globe(g: GlobePoint) -> str:
    return f"(lat={g.latitude:.4f}, lon={g.longitude:.4f})"


# ---------------------------------------------------------------- runs
#
# Each command's pure step takes a validated RunConfig, builds every
# library object (so every domain check runs) and formats the output; it
# writes nothing.  `_write` then does all of a run's output.


@dataclass(frozen=True)
class _Output:
    """What a run prints and writes, computed before anything is written."""

    code: int
    stdout: str
    path: str | None = None
    text: str = ""


def _report(cfg: RunConfig, text: str, code: int = EXIT_OK) -> _Output:
    """A report goes to the output path when one is given, else to stdout."""
    if cfg.output_path:
        return _Output(code, "", _resolve_output_path(cfg.output_path), text)
    return _Output(code, text)


def _state(cfg: RunConfig) -> _Output:
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
    halves = (pair.p, pair.q)
    globe = [poincare_to_globe(p) for p in halves]
    stokes = stokes_expectation(state)
    try:
        d_ratio = (state.d1 / state.d3) ** 2
    except (ZeroDivisionError, OverflowError):  # d3 = 0, or beyond the float range
        d_ratio = math.inf
    report = {
        "qutrit": state.to_json(),
        "d1_squared_over_d3_squared": d_ratio if d_ratio < math.inf else None,
        "halves_sphere": [p.to_json() for p in halves],
        "halves_globe": [g.to_json() for g in globe],
        "stokes": stokes.to_json(),
        "polarization_degree": polarization_degree(state),
        "subtense_angle": subtense_angle(state),
    }
    if cfg.output_format == "json":
        text = _json_text(report)
    else:
        lines = [
            f"qutrit: c1 = {state.c1:.9g}, c2 = {state.c2:.9g}, c3 = {state.c3:.9g}",
            f"d1^2/d3^2 = {d_ratio:.9g}",
            f"halves (sphere): {', '.join(map(_format_point, halves))}",
            f"halves (globe): {', '.join(map(_format_globe, globe))}",
            f"stokes: ({stokes.s1:.9g}, {stokes.s2:.9g}, {stokes.s3:.9g})",
            f"P = {report['polarization_degree']:.9g}",
            f"sigma = {report['subtense_angle']:.4f} deg",
        ]
        text = "\n".join(lines) + "\n"
    return _report(cfg, text)


def _partner(cfg: RunConfig) -> _Output:
    params = cfg.params
    a, b, c = (_parse_point(params[key], params["globe"]) for key in ("a", "b", "c"))
    ja, jb, jc = (jones_from_poincare(p) for p in (a, b, c))
    try:
        jd = orthogonal_partner_jones(ja, jb, jc)
    except AnyPartnerError as exc:
        return _report(cfg, f"degenerate geometry: {exc}\n", EXIT_DEGENERATE)
    d = poincare_from_jones(jd)
    residual = abs(pair_amplitude(jc, jd, ja, jb))
    if cfg.output_format == "json":
        report = {
            "partner_sphere": d.to_json(),
            "partner_globe": poincare_to_globe(d).to_json(),
            "residual": residual,
        }
        text = _json_text(report)
    else:
        text = (
            f"partner (sphere): {_format_point(d)}\n"
            f"partner (globe): {_format_globe(poincare_to_globe(d))}\n"
            f"residual |amplitude| = {residual:.3e}\n"
        )
    return _report(cfg, text)


def _sweep(cfg: RunConfig) -> _Output:
    import numpy as np

    p = cfg.params
    common = dict(
        delta_phi=p["dphi"], m=RateModel(**cfg.rate_model), seed=cfg.seed,
        duration_per_point=p["duration"], pump_drift=p["drift"],
    )
    if p["kind"] == "chi":
        result = sweep_chi(zeta1=p["zeta1"], zeta2=p["zeta2"], chi_grid=p.get("grid"), **common)
    else:
        result = sweep_filter(
            chi=p["chi"], which_filter=p["which"], fixed_zeta=p["fixed_zeta"],
            zeta_grid=p.get("grid"), **common,
        )
    text = result.to_csv() if cfg.output_format == "csv" else result.to_json()
    path = _resolve_output_path(cfg.output_path or f"sweep_{p['kind']}.{cfg.output_format}")
    if np.isnan(result.g2).all():  # a seeded run whose sampled singles all vanish
        summary = "min g2 undefined: g2 is nan at every point"
    else:
        i = int(np.nanargmin(result.g2))
        summary = (
            f"argmin {result.param_name} = {result.param[i]:.4f} deg, "
            f"min g2 = {result.g2[i]:.6f}, Rc there = {result.rc[i]:.8e}"
        )
    return _Output(EXIT_OK, f"wrote {path}\n{summary}\n", path, text)


_RUNS = {"state": _state, "partner": _partner, "sweep": _sweep}


def _write(out: _Output) -> int:
    """The write step: the one place a run's output is written."""
    if out.path is not None:
        _write_atomic(out.path, out.text)
    sys.stdout.write(out.stdout)
    return out.code


def run_config(cfg: RunConfig) -> int:
    """Run a validated config (from config_from_args or RunConfig.load)."""
    return _write(_RUNS[cfg.command](cfg))


# ---------------------------------------------------------------- parser


def _argv(command: str, key: str | None, check) -> dict:
    """add_argument's keywords for an option of the table: its check's,
    except that each command reads output_format its own way."""
    if key != "output_format":
        return getattr(check, "argv", {})  # _grid reads plain text
    if command == "sweep":
        return {"choices": _FORMATS[command]}
    return {"action": "store_const", "const": "json"}  # text unless --json


def build_parser() -> argparse.ArgumentParser:
    """The command line, built from the option table.  Each command leaves
    out the options not given, so the defaults come from the run schema
    only."""
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Photon-pair polarization states, orthogonality and "
        "anticorrelation-dip sweeps.",
    )
    parser.add_argument("--config", help="run from a saved JSON config file")
    subparsers = parser.add_subparsers(dest="command")
    for command, help in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help, argument_default=argparse.SUPPRESS)
        for flag, key, forms, check, _, help in _OPTIONS:
            if flag and any(form.partition(":")[0] == command for form in forms):
                sub.add_argument(flag, help=help, **_argv(command, key, check))
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Sort a parsed command line by the option table onto the JSON shape
    of a run, then check it with RunConfig.from_json_obj like any --config
    file."""
    # argparse names each option's value after its flag
    keys = {flag.lstrip("-").replace("-", "_"): key for flag, key, *_ in _OPTIONS if flag}
    obj = {"params": {}, "rate_model": {}}
    for dest, value in vars(args).items():
        if dest not in ("config", "save_config"):
            section, _, key = keys.get(dest, dest).rpartition(".")
            (obj[section] if section else obj)[key] = value
    params = obj["params"]
    if args.command == "state" and "c" in params:
        params["c"] = _parse_complex_triple(params["c"])
    if "grid" in params:
        params["grid"] = _parse_grid(params["grid"])
    if args.command == "sweep":
        # a sweep leaves out the options its kind does not take
        schema = _PARAMS["sweep:" + params["kind"]]
        dropped = {key: params.pop(key) for key in list(params) if key not in schema}
        # a polarizer sweep holds P2 at --z2, unless --which P2 scans it
        fixed = dropped.get("zeta1" if params.get("which") == "P2" else "zeta2")
        if fixed is not None:
            params["fixed_zeta"] = fixed
    return RunConfig.from_json_obj(obj)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config and args.command:
        parser.error("--config replaces a command line, not combines with it")
    if not args.config and not args.command:
        parser.error("a command or --config is required")
    save_path = getattr(args, "save_config", None)
    try:
        cfg = RunConfig.load(args.config) if args.config else config_from_args(args)
        output = _RUNS[cfg.command](cfg)
        if save_path:
            cfg.save(save_path)
        return _write(output)
    except ValueError as exc:  # CliError and the library's input checks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
