"""biphoton benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload dense-sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout that holds src/biphoton, which it imports
from there (nothing is installed).  It prints each metric by name and unit,
then, as the last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  A full record (environment,
op mix, sample counts, failures) goes to perfbench/out/.  End-to-end times
are scaled to a reference host speed (perfbench/speed.py); the unscaled
figures are printed and recorded under `raw.`.
See perfbench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT  # import perfbench as a package; nothing in perfbench/ shadows a module

from perfbench import harness, layers, speed  # noqa: E402
from perfbench.harness import Tally  # noqa: E402

WORKLOADS = ("dense-sweep", "pair-algebra", "cli-runs")
SETUP_PROBES = 9


@dataclass
class Context:
    tmpdir: str


@dataclass
class Phase:
    latencies: array = field(default_factory=lambda: array("d"))  # compact: RSS is a metric
    scaled: array = field(default_factory=lambda: array("d"))  # the same, at speed.REF_S speed
    failed_ops: int = 0
    points: int = 0
    digests: list[str] = field(default_factory=list)
    child_peak_rss_mb: float = 0.0
    busy: float = 0.0  # op time so far, s
    scaled_busy: float = 0.0
    unit_count: int = 0

    @staticmethod
    def ok(times) -> list[float]:
        return [x for x in times if x == x]  # a failed op that raised has no time


def make_workload(name: str, seed: int, ctx: Context, points: int | None):
    if name == "dense-sweep":
        from perfbench.dense_sweep import POINTS, DenseSweep
        return DenseSweep(seed, ctx, points or POINTS)
    if name == "pair-algebra":
        from perfbench.pair_algebra import PairAlgebra
        return PairAlgebra(seed, ctx)
    from perfbench.cli_runs import CliRuns
    return CliRuns(seed, ctx)


def run_phase(workload, tally: Tally, seconds: float, between_units, meter: speed.Meter) -> Phase:
    """Closed loop, one client: whole units until `seconds` of op time
    (verification runs between ops, off the clock).  `between_units(phase)`
    runs before each unit.  The host-speed kernel is sampled before and after
    each slice of a unit (and inside it, for in-process ops), and the slice's
    op times are also kept scaled by those samples.  A wall-clock deadline
    ends the loop when ops keep failing without time."""
    phase = Phase()
    deadline = time.monotonic() + 2 * seconds + 60
    for unit in workload.units():
        between_units(phase)
        before = meter.sample()
        for part in workload.split(unit):
            with meter.during() if workload.in_process else contextlib.nullcontext([]) as inside:
                r = workload.run_unit(part)
            after = meter.sample()
            record(phase, r, tally, "timed", speed.scale([before, *inside, after]))
            before = after
        phase.unit_count += 1
        if phase.busy >= seconds or time.monotonic() > deadline:
            break
    return phase


def record(phase: Phase, r, tally: Tally, where: str, factor: float = 1.0) -> None:
    tally.add(len(r.latencies), r.failures, where)
    phase.latencies.extend(r.latencies)
    phase.scaled.extend(x * factor for x in r.latencies)
    phase.busy += sum(x for x in r.latencies if x == x)
    phase.scaled_busy += factor * sum(x for x in r.latencies if x == x)
    phase.failed_ops += len(r.failures)
    phase.points += r.points
    phase.digests += r.digests
    phase.child_peak_rss_mb = max(phase.child_peak_rss_mb, r.child_peak_rss_mb)


def child_seconds(argv: list[str], env: dict) -> float:
    """Wall time of one child process that must succeed."""
    run = harness.run_child(argv, env, ROOT)
    if run.code != 0:
        raise RuntimeError(f"{argv[1:3]} exited {run.code}: {run.stderr[-300:]}")
    return run.seconds


def setup_time(args) -> float:
    """Process start to first timed op, for a fresh workload process."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"]
    if args.points:
        argv += ["--points", str(args.points)]
    t0 = time.monotonic_ns()
    run = harness.run_child(argv, harness.child_env(), ROOT)
    lines = run.stdout.strip().splitlines()
    if run.code != 0 or not lines or not lines[-1].startswith("READY "):
        raise RuntimeError(f"set-up probe failed ({run.code}): {run.stderr[-300:]}")
    return (int(lines[-1].split()[1]) - t0) / 1e9


# ------------------------------------------------------------ end to end


def end_to_end(args, workload, ctx: Context, tally: Tally) -> tuple[dict, dict]:
    meter = speed.Meter()
    setups: list[float] = []
    scaled_setups: list[float] = []

    def probe() -> None:
        before = meter.sample()
        setups.append(setup_time(args))
        scaled_setups.append(setups[-1] * speed.scale([before, meter.sample()]))

    def probe_setup(phase: Phase) -> None:
        # spread the set-up probes over the run, so that they see the same
        # machine as the timed ops: probe k once k/probes of the op time is done
        while len(setups) < args.probes and phase.busy >= len(setups) * args.seconds / args.probes:
            probe()

    phase = run_phase(workload, tally, args.seconds, probe_setup, meter)
    if workload.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss_mb = phase.child_peak_rss_mb
    repro(args, workload, ctx, tally)
    while len(setups) < args.probes:
        probe()

    lat = phase.ok(phase.scaled)
    raw = phase.ok(phase.latencies)
    ok_ops = len(phase.latencies) - phase.failed_ops
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "throughput_ops_per_s": (ok_ops / phase.scaled_busy if phase.scaled_busy else 0.0, "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3 if lat else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "error_rate": (tally.failed / tally.attempted, "ratio"),
    }
    tail = harness.tail(lat)
    if tail:
        metrics["latency_tail_ms"] = (tail[1] * 1e3, "ms")
    if phase.points and phase.scaled_busy:
        metrics["points_per_s"] = (phase.points / phase.scaled_busy, "1/s")
    # the same figures as timed, before scaling to the reference host speed
    metrics["raw.setup_s"] = (statistics.median(setups), "s")
    metrics["raw.throughput_ops_per_s"] = (ok_ops / phase.busy if phase.busy else 0.0, "1/s")
    metrics["raw.latency_p50_ms"] = (statistics.median(raw) * 1e3 if raw else 0.0, "ms")
    detail = {
        "timed_ops": len(phase.latencies), "timed_units": phase.unit_count, "busy_s": phase.busy,
        "latency_n": len(lat), "latency_tail": None if not tail else {"percentile": tail[0], "n": len(lat)},
        "setup_samples_s": setups, "scaled_setup_samples_s": scaled_setups, "points": phase.points,
        "peak_rss_of": "this process" if workload.in_process else "largest CLI child process",
        "speed_kernel": {"ref_s": speed.REF_S, "samples": len(meter.samples),
                         "median_s": statistics.median(meter.samples),
                         "min_s": min(meter.samples), "max_s": max(meter.samples)},
    }
    return metrics, detail


def repro(args, workload, ctx: Context, tally: Tally) -> None:
    """Seeded outputs run twice outside the timed loop must be byte-identical."""
    from perfbench.cli_runs import cli_repro

    if hasattr(workload, "repro"):
        tally.add(1, workload.repro(), "repro dense-sweep")
    tally.add(1, cli_repro(args.seed, ctx), "repro cli-runs")


# ------------------------------------------------------------ traced


def traced(args, workload, ctx: Context, tally: Tally) -> tuple[dict, dict]:
    from perfbench.spans import Tracer

    tracer = Tracer()
    plain, spanned = Phase(), Phase()
    units = 0
    for unit in workload.units():
        # each op (a 64-op slice on pair-algebra) runs untraced, then traced, so that
        # both see the same machine and the overhead is a like-for-like ratio
        for part in workload.split(unit):
            record(plain, workload.run_unit(part), tally, "trace-untraced")
            if workload.in_process:
                tracer.install()
            try:
                record(spanned, workload.run_unit(part, tracer), tally, "trace-traced")
            finally:
                tracer.uninstall()
        units += 1
        if units >= workload.trace_units or plain.busy >= args.seconds / 2:
            break
    mismatched = [f"op {i}: traced output differs from untraced"
                  for i, (x, y) in enumerate(zip(plain.digests, spanned.digests)) if x != y]
    tally.add(len(spanned.digests), mismatched, "trace parity")
    overhead = spanned.busy / plain.busy - 1.0 if plain.busy else 0.0

    layer_tracer = layer_pass(args, ctx, tally)
    env = harness.child_env()
    bare, imported = [], []
    for _ in range(args.probes):
        bare.append(child_seconds([sys.executable, "-c", "pass"], env))
        imported.append(child_seconds([sys.executable, "-c", "import biphoton"], env))
    repro(args, workload, ctx, tally)

    found = layers.from_spans(layer_tracer.spans)
    from_workload = layers.from_spans(tracer.spans)
    found.update(from_workload)
    found["cli.interpreter_s"] = statistics.median(bare)
    found["cli.import_s"] = statistics.median(imported) - statistics.median(bare)
    found["trace.overhead_frac"] = overhead

    stem = os.path.join(harness.OUT, f"{workload.name}-seed{args.seed}")
    tracer.dump(stem + "-spans.jsonl")
    layer_tracer.dump(stem + "-layer-spans.jsonl")
    metrics = {k: (found[k], unit) for k, unit in layers.UNITS.items() if k in found}
    detail = {
        "traced_ops": len(spanned.latencies), "spans": len(tracer.spans),
        "layer_pass_spans": len(layer_tracer.spans),
        "from_workload": sorted(from_workload), "missing_targets": tracer.missing,
        "span_files": [os.path.relpath(stem, ROOT) + s for s in ("-spans.jsonl", "-layer-spans.jsonl")],
        "untraced_busy_s": plain.busy, "traced_busy_s": spanned.busy,
    }
    return metrics, detail


def layer_pass(args, ctx: Context, tally: Tally):
    """Short traced pass over every layer, for the layers the workload skips:
    pair-algebra ops, 181-point sweeps of each kind, and CLI commands run
    in process (no interpreter start)."""
    from perfbench.cli_child import traced_main
    from perfbench.cli_runs import draw_cycle
    from perfbench.dense_sweep import DenseSweep
    from perfbench.pair_algebra import PairAlgebra
    from perfbench.spans import Tracer

    import numpy as np

    importlib.import_module("biphoton.cli")  # bound before wrapping, so uninstall restores it
    tracer = Tracer()
    tracer.install()
    try:
        for w in (PairAlgebra(args.seed, ctx), DenseSweep(args.seed, ctx)):
            for unit in w.layer_pass_units():
                r = w.run_unit(unit, tracer)
                tally.add(len(r.latencies), r.failures, f"layer pass {w.name}")
        cycle = [op for op in draw_cycle(np.random.default_rng([args.seed, 2]))
                 if op["kind"] not in ("save-config", "replay-config")]
        saved_outdir = os.environ.get("BIPHOTON_OUTDIR")
        os.environ["BIPHOTON_OUTDIR"] = ctx.tmpdir
        try:
            for op in cycle:
                sink = io.StringIO()
                with tracer.op(tracer.next_op(), "op.cli-in-process"), \
                        contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        traced_main(op["argv"], tracer)
                    except SystemExit:
                        pass
        finally:
            if saved_outdir is None:
                del os.environ["BIPHOTON_OUTDIR"]
            else:
                os.environ["BIPHOTON_OUTDIR"] = saved_outdir
    finally:
        tracer.uninstall()
    return tracer


# ------------------------------------------------------------ main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="op time to measure; whole units run, so it may run over")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--points", type=int, help="dense-sweep grid size (default 18001; tests use less)")
    p.add_argument("--probes", type=int, default=SETUP_PROBES,
                   help="fresh processes timed for setup_s, and for interpreter/import times")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(harness.SRC, "biphoton", "__init__.py")):
        print(f"perfbench: no biphoton package under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, harness.SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(harness.OUT, exist_ok=True)
    ctx = Context(tempfile.mkdtemp(prefix="tmp-", dir=harness.OUT))
    try:
        return measure(args, spec, ctx)
    finally:
        shutil.rmtree(ctx.tmpdir, ignore_errors=True)


def measure(args, spec: dict, ctx: Context) -> int:
    tally = Tally()
    workload = make_workload(args.workload, args.seed, ctx, args.points)
    warm = workload.run_unit(workload.warmup_unit())
    tally.add(len(warm.latencies), warm.failures, "warm-up")
    if args.setup_probe:
        print(f"READY {time.monotonic_ns()}")
        return 0

    if args.trace:
        metrics, detail = traced(args, workload, ctx, tally)
        declared = spec["per_layer"]
    else:
        metrics, detail = end_to_end(args, workload, ctx, tally)
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    for name in missing:  # a layer the program no longer has; reported as 0 and flagged
        metrics[name] = (0.0, next(m["unit"] for m in declared if m["name"] == name))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": harness.environment(), "mix": workload.mix(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "missing_metrics": missing, "attempted": tally.attempted, "failed": tally.failed,
        "failures": tally.messages, **detail,
    }
    path = os.path.join(harness.OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    env = record["environment"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu_model']!r}, commit {env['git_commit']}, src sha256 {env['src_sha256'][:16]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if not args.trace:
        tail = detail["latency_tail"]
        print(f"  samples: {detail['latency_n']} timed ops, {len(detail['setup_samples_s'])} set-up probes; "
              "latency tail " + (f"p{tail['percentile']:g}" if tail else
                                 "omitted (fewer than ten samples beyond p90)"))
    for msg in tally.messages:
        print(f"  FAILED {msg}")
    for name in missing:
        print(f"  MISSING {name}: no spans reached it", file=sys.stderr)
    print(f"  record: {os.path.relpath(path, ROOT)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
