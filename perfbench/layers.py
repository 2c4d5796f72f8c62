"""Per-layer metrics derived from spans.

Each metric names the end-to-end metric and workload it should move (see
README.md).  Times per call are medians of inclusive span durations; per
point and per row figures divide span time by the rows the span produced;
"self" times subtract the part of the span covered by child spans.
"""
from __future__ import annotations

import statistics

from .spans import ATTRS, END, NAME, START, self_times

# metric -> span name, for the median inclusive time of one call
CALL_US = {
    "polarization.jones_construct_us": "polarization.JonesVector",
    "polarization.poincare_from_jones_us": "polarization.poincare_from_jones",
    "qutrit.from_jones_pair_us": "qutrit.qutrit_from_jones_pair",
    "qutrit.factor_us": "qutrit.factor_qutrit",
    "qutrit.stokes_us": "qutrit.stokes_expectation",
    "qutrit.subtense_us": "qutrit.subtense_angle",
    "qutrit.pair_amplitude_us": "qutrit.pair_amplitude",
    "orthogonality.partner_us": "orthogonality.orthogonal_partner_jones",
    "orthogonality.is_orthogonal_us": "orthogonality.is_orthogonal",
    "experiment.filter_jones_us": "experiment.filter_jones",
    "experiment.singles_us": "experiment.singles_rate",
    "experiment.coincidence_us": "experiment.coincidence_rate",
    "experiment.g2_us": "experiment.g2",
    "experiment.source_state_us": "experiment.source_state",
}
# metric -> (span name, use self time) for microseconds per row produced
PER_ROW_US = {
    "experiment.sweep_chi_us_per_point": ("experiment.sweep_chi", True),
    "experiment.sweep_filter_us_per_point": ("experiment.sweep_filter", True),
    "experiment.sample_us_per_row": ("experiment.simulate_counts", False),
    "experiment.to_csv_us_per_row": ("experiment.SweepResult.to_csv", False),
    "experiment.to_json_us_per_row": ("experiment.SweepResult.to_json", False),
}
# metric -> (sweep span, counted call) for exact calls per sweep point
PER_POINT_COUNT = {
    "experiment.factor_calls_per_point_chi": ("experiment.sweep_chi", "qutrit.factor_qutrit"),
    "experiment.factor_calls_per_point_filter": ("experiment.sweep_filter", "qutrit.factor_qutrit"),
    "experiment.filter_jones_calls_per_point_chi": ("experiment.sweep_chi", "experiment.filter_jones"),
    "experiment.filter_jones_calls_per_point_filter": ("experiment.sweep_filter", "experiment.filter_jones"),
    "experiment.qutrit_constructs_per_point_chi": ("experiment.sweep_chi", "qutrit.BiphotonQutrit"),
    "experiment.qutrit_constructs_per_point_filter": ("experiment.sweep_filter", "qutrit.BiphotonQutrit"),
}
BYTES_PER_ROW = {
    "experiment.output_bytes_per_row_csv": "experiment.SweepResult.to_csv",
    "experiment.output_bytes_per_row_json": "experiment.SweepResult.to_json",
}
CLI_COMMANDS = ("state", "partner", "sweep")
ROW_SPANS = {name for name, _ in PER_ROW_US.values()} | {"experiment.SweepResult.write"}

UNITS = {
    **{k: "us" for k in CALL_US}, **{k: "us" for k in PER_ROW_US},
    "experiment.write_io_ms": "ms",
    **{k: "count" for k in PER_POINT_COUNT}, **{k: "B" for k in BYTES_PER_ROW},
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.parse_ms": "ms",
    **{f"cli.run_{c}_ms": "ms" for c in CLI_COMMANDS},
    "trace.overhead_frac": "ratio",
}


def from_spans(spans: list[list]) -> dict[str, float]:
    """Every metric the spans hold data for; others are left out."""
    by_name: dict[str, list[list]] = {}
    for s in spans:
        # a sweep, sampling or format call that raised has no row count
        if s[NAME] in ROW_SPANS and "rows" not in (s[ATTRS] or {}):
            continue
        by_name.setdefault(s[NAME], []).append(s)
    own = self_times(spans)
    out: dict[str, float] = {}

    for metric, name in CALL_US.items():
        if name in by_name:
            out[metric] = statistics.median(s[END] - s[START] for s in by_name[name]) / 1e3
    for metric, (name, use_self) in PER_ROW_US.items():
        rows = [s for s in by_name.get(name, ()) if s[ATTRS]["rows"]]
        if rows:
            out[metric] = statistics.median(
                (own[s[0]] if use_self else s[END] - s[START]) / s[ATTRS]["rows"] for s in rows) / 1e3
    writes = by_name.get("experiment.SweepResult.write")
    if writes:
        out["experiment.write_io_ms"] = statistics.median(own[s[0]] for s in writes) / 1e6
    for metric, (name, counted) in PER_POINT_COUNT.items():
        sweeps = by_name.get(name)
        if sweeps:
            calls = sum(s[ATTRS]["counts"].get(counted, 0) for s in sweeps)
            out[metric] = calls / sum(s[ATTRS]["rows"] for s in sweeps)
    for metric, name in BYTES_PER_ROW.items():
        formats = by_name.get(name)
        if formats:
            out[metric] = sum(s[ATTRS]["bytes"] for s in formats) / sum(s[ATTRS]["rows"] for s in formats)
    if "cli.parse" in by_name:
        out["cli.parse_ms"] = statistics.median(s[END] - s[START] for s in by_name["cli.parse"]) / 1e6
    for command in CLI_COMMANDS:
        runs = [s for s in by_name.get("cli.run_config", ()) if s[ATTRS]["command"] == command]
        if runs:
            out[f"cli.run_{command}_ms"] = statistics.median(s[END] - s[START] for s in runs) / 1e6
    return out
