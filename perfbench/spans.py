"""Spans and counters recorded around the calls into biphoton's modules.

The tracer replaces public functions and constructors at their module
attributes (every biphoton module that binds the same object, so calls
between modules are seen too) and restores them on `uninstall`.  Spans
carry name, start, end, parent span and op id; they stay in memory until
the run writes them out.  Nothing inside the library is edited.

Three kinds of target:
* "fine": a per-point call.  Outside a sweep it gets a span; inside a sweep
  it is only counted, because 18 001 points times a dozen calls would make
  the trace larger and slower than the work it measures.
* "bulk": a sweep.  Its span carries the counts of the fine calls nested in it.
* "coarse": always a span (sampling, formatting, writing).
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

TARGETS = (
    ("polarization", "JonesVector.__init__", "fine"),
    ("polarization", "poincare_from_jones", "fine"),
    ("qutrit", "BiphotonQutrit.__init__", "fine"),
    ("qutrit", "qutrit_from_jones_pair", "fine"),
    ("qutrit", "factor_qutrit", "fine"),
    ("qutrit", "stokes_expectation", "fine"),
    ("qutrit", "polarization_degree", "fine"),
    ("qutrit", "subtense_angle", "fine"),
    ("qutrit", "pair_amplitude", "fine"),
    ("orthogonality", "orthogonal_partner_jones", "fine"),
    ("orthogonality", "is_orthogonal", "fine"),
    ("experiment", "source_state", "fine"),
    ("experiment", "filter_jones", "fine"),
    ("experiment", "singles_rate", "fine"),
    ("experiment", "coincidence_rate", "fine"),
    ("experiment", "g2", "fine"),
    ("experiment", "sweep_chi", "bulk"),
    ("experiment", "sweep_filter", "bulk"),
    ("experiment", "simulate_counts", "coarse"),
    ("experiment", "SweepResult.to_csv", "coarse"),
    ("experiment", "SweepResult.to_json", "coarse"),
    ("experiment", "SweepResult.write", "coarse"),
)

# span record fields
ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._counts: Counter | None = None
        self._restore: list[tuple] = []
        self._last_op = 0

    # ------------------------------------------------------------ spans

    def begin(self, name: str, attrs: dict | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), parent, self._op, name, time.monotonic_ns(), None, attrs]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.monotonic_ns()
        self._stack.pop()

    def span(self, name: str, attrs: dict | None = None):
        return _Span(self, name, attrs)

    def next_op(self) -> int:
        self._last_op += 1
        return self._last_op

    def op(self, op_id: int, name: str):
        """Root span of one benchmark op; nested spans inherit its op id."""
        self._op = op_id
        return _Span(self, name, None)

    def adopt(self, spans: list[list], parent: list) -> None:
        """Attach spans recorded in a child process under `parent`.

        Both processes read CLOCK_MONOTONIC, so times need no shift.
        """
        offset = len(self.spans)
        for s in spans:
            self.spans.append([
                s[ID] + offset,
                parent[ID] if s[PARENT] is None else s[PARENT] + offset,
                parent[OP], s[NAME], s[START], s[END], s[ATTRS],
            ])

    # ------------------------------------------------------------ wrapping

    def install(self) -> None:
        """Wrap every TARGETS entry found in the imported biphoton package."""
        modules = [m for k, m in sys.modules.items() if k == "biphoton" or k.startswith("biphoton.")]
        for mod_name, attr, kind in TARGETS:
            module = importlib.import_module("biphoton." + mod_name)
            name = f"{mod_name}.{attr.replace('.__init__', '')}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or method not in vars(cls):
                    self.missing.append(name)
                    continue
                original = vars(cls)[method]
                setattr(cls, method, self._wrap(original, name, kind))
                self._restore.append((cls, method, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(original, name, kind)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _wrap(self, fn, name: str, kind: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = tracer._counts
            if counts is not None and kind == "fine":
                counts[name] += 1
                return fn(*args, **kwargs)
            rec = tracer.begin(name)
            if kind == "bulk":
                tracer._counts = Counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
                if kind == "bulk":
                    rec[ATTRS] = {"counts": dict(tracer._counts)}
                    tracer._counts = counts
            if kind != "fine":
                table = out if kind == "bulk" else args[0]
                attrs = rec[ATTRS] or {}
                attrs["rows"] = len(table)
                if isinstance(out, str):
                    attrs["bytes"] = len(out.encode("utf-8"))
                rec[ATTRS] = attrs
            return out

        return traced

    # ------------------------------------------------------------ output

    def dump(self, path: str) -> None:
        """One JSON array per line: [id, parent, op, name, start_ns, end_ns, attrs]."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "attrs", "rec")

    def __init__(self, tracer: Tracer, name: str, attrs: dict | None) -> None:
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> list:
        self.rec = self.tracer.begin(self.name, self.attrs)
        return self.rec

    def __exit__(self, *exc) -> None:
        self.tracer.end(self.rec)


def load_spans(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> duration minus the part of it that child spans cover (ns)."""
    children: dict[int, list[list]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s[START]
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            lo, hi = max(c[START], reach), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[ID]] = s[END] - s[START] - covered
    return out
