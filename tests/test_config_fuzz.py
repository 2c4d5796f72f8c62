"""Bounded fuzz of `--config` files: any JSON object ends in exit 0, 2 or 3,
never in a traceback, and a run rejected with exit 2 writes nothing.

Values are drawn near the schema (the right keys with wrong types, values
out of range, non-finite numbers, unknown keys) so that both valid and
rejected runs occur.  Grids hold at most 50 points and output paths are
bare names, resolved in a fresh directory through BIPHOTON_OUTDIR.
"""
import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.cli import EXIT_DEGENERATE, EXIT_OK, EXIT_USAGE, main

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.text(max_size=4),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0, 1e300]),
)
angle = st.floats(-400.0, 400.0)
point = st.one_of(
    st.sampled_from(["H", "v", "Dbar", "R", "l", "moscow", "Turin", "baltimore", "bounty"]),
    st.tuples(st.floats(0.0, 180.0), st.floats(-400.0, 400.0)).map(
        lambda xy: f"{xy[0]},{xy[1]}"
    ),
    st.tuples(st.floats(-200.0, 200.0), st.floats(-400.0, 400.0)).map(
        lambda xy: f"{xy[0]},{xy[1]}"
    ),
)
PARAMS = {
    "state": st.one_of(
        st.fixed_dictionaries(
            {"c": st.lists(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2),
                           min_size=3, max_size=3)}
        ),
        st.fixed_dictionaries({"chi": angle}, optional={"dphi": angle}),
    ),
    "partner": st.fixed_dictionaries(
        {"a": point, "b": point, "c": point}, optional={"globe": st.booleans()}
    ),
    "sweep": st.fixed_dictionaries(
        {"kind": st.sampled_from(["chi", "polarizer"]), "chi": angle},
        optional={
            "zeta1": angle, "zeta2": angle, "dphi": angle, "fixed_zeta": angle,
            "which": st.sampled_from(["P1", "P2"]),
            "duration": st.floats(0.0, 5.0), "drift": st.floats(0.0, 1.2),
            "grid": st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=50,
                             unique=True).map(sorted),
        },
    ),
}
FORMATS = {"state": ["text", "json"], "partner": ["text", "json"], "sweep": ["csv", "json"]}
RATE_MODEL = st.fixed_dictionaries(
    {},
    optional={
        "pair_rate": st.floats(0.0, 1e5),
        "eta1": st.floats(0.0, 1.0),
        "eta2": st.floats(0.0, 1.0),
        "coincidence_window": st.floats(1e-10, 1e-8),
        "background1": st.floats(0.0, 100.0),
    },
)


@st.composite
def configs(draw):
    """A config of the schema's shape, then at most one key set to a wrong
    value, dropped, or added."""
    command = draw(st.sampled_from(sorted(PARAMS)))
    obj = {"command": command, "params": draw(PARAMS[command])}
    if command == "sweep" and obj["params"]["kind"] == "chi":
        del obj["params"]["chi"]
    if draw(st.booleans()):
        obj["output_format"] = draw(st.sampled_from(FORMATS[command]))
    if draw(st.booleans()):
        obj["output_path"] = draw(st.sampled_from([None, "out.csv", "out.json", "r"]))
    if command == "sweep" and draw(st.booleans()):
        obj["seed"] = draw(st.integers(0, 2**40))
    if command == "sweep" and draw(st.booleans()):
        obj["rate_model"] = draw(RATE_MODEL)
    change = draw(st.sampled_from(["none", "set", "drop", "add"]))
    target = draw(st.sampled_from([obj, obj["params"]]))
    if change == "set" and target:
        target[draw(st.sampled_from(sorted(target)))] = draw(junk)
    elif change == "drop" and target:
        del target[draw(st.sampled_from(sorted(target)))]
    elif change == "add":
        target[draw(st.sampled_from(["bogus", "c", "chi", "grid", "seed", "kind"]))] = draw(junk)
    return obj


# mostly configs of the schema's shape, some JSON values of any other shape
config = st.one_of(configs(), configs(), configs(), st.text(max_size=4), junk)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(config)
def test_any_config_exits_0_2_or_3_and_exit_2_writes_nothing(obj):
    with tempfile.TemporaryDirectory() as root:
        outdir = os.path.join(root, "out")
        os.mkdir(outdir)
        path = os.path.join(root, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        saved = os.environ.get("BIPHOTON_OUTDIR")
        os.environ["BIPHOTON_OUTDIR"] = outdir
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(["--config", path])
        finally:
            if saved is None:
                del os.environ["BIPHOTON_OUTDIR"]
            else:
                os.environ["BIPHOTON_OUTDIR"] = saved
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DEGENERATE), sink.getvalue()
        if code == EXIT_USAGE:
            assert os.listdir(outdir) == [], sink.getvalue()
