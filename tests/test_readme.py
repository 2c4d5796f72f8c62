"""The README's examples run and print what their comments say.

The Python quick tour is executed statement by statement; each expression's
value, rounded to two decimals, must appear in the comment that follows it.
Every `biphoton` line of the CLI block runs in-process and must exit 0.
The two config tables must read as the CLI's option table renders them.
"""
import ast
import dataclasses
import json
import pathlib
import re
import shlex

import pytest

from biphoton import cli
from biphoton.cli import EXIT_OK, main

README = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
QUICK_TOUR = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README, re.S).group(1)
CLI_RUNS = [
    shlex.split(line, comments=True)[1:]
    for line in re.search(r"## CLI\n.*?```sh\n(.*?)```", README, re.S).group(1).splitlines()
    if line.startswith("biphoton ")
]


def _rounded(value):
    """value with every float rounded to two decimals, inside tuples and
    dataclasses too, so that its repr reads as the README writes it."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(round(value, 2))
    if isinstance(value, tuple):
        return tuple(map(_rounded, value))
    if dataclasses.is_dataclass(value):
        fields = {f.name: _rounded(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return dataclasses.replace(value, **fields)
    return value


def _comment(lines: list[str], node: ast.stmt) -> str:
    """The comment on a statement's last line, else on the comment line after it."""
    line = lines[node.end_lineno - 1]
    if "#" not in line and node.end_lineno < len(lines):
        line = lines[node.end_lineno]
    return line.partition("#")[2].strip()


def test_quick_tour_values_match_their_comments():
    lines = QUICK_TOUR.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(QUICK_TOUR).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            shown = repr(_rounded(value))
            assert shown in _comment(lines, node), (ast.unparse(node), shown)
            checked.append(shown)
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert checked == [
        "0.5", "148.92", "True", "GlobePoint(latitude=-52.01, longitude=-159.12)", "1.0",
        "(30.0, 1.0)",
    ]
    pair = namespace["pair"]
    assert "theta = 74.46" in QUICK_TOUR
    assert _rounded(pair.p.theta) == _rounded(pair.q.theta) == 74.46


@pytest.mark.parametrize("argv", CLI_RUNS, ids=" ".join)
def test_cli_example_runs(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BIPHOTON_OUTDIR", str(tmp_path))
    assert main(argv) == EXIT_OK


# ---------------------------------------------------------------- config tables
#
# The README's two config tables are rendered from the CLI's option table,
# so a key, option, check or default that changes there fails here until
# the README says the same.

TYPES = {
    cli._real: "number",
    cli._text: "string",
    cli._flag: "true or false",
    cli._path: "string or null",
    cli._seed: "integer >= 0 or null",
    cli._object: "object",
    cli._amplitudes: "three `[re, im]` pairs of numbers",
    cli._grid: "array of at most 10^6 numbers",
}


def _type(check) -> str:
    choices = [f'`"{choice}"`' for choice in getattr(check, "argv", {}).get("choices", ())]
    if choices:
        return ", ".join(choices[:-1]) + " or " + choices[-1]
    return TYPES[check]


def _default(default) -> str:
    if default is cli._REQUIRED:
        return "required"
    if default is cli._UNSET:
        return "omitted"
    if callable(default):
        return "see below"
    return f"`{json.dumps(default)}`"


def _forms(forms) -> str:
    """The forms as the README names them: a command alone when it takes all."""
    names = []
    for command in cli._COMMANDS:
        own = [form for form in cli._ALL if form.partition(":")[0] == command]
        taken = [form for form in own if form in forms]
        names += [command] if taken == own else [form.replace(":", " ") for form in taken]
    return ", ".join(names)


def _options(key: str) -> str:
    return ", ".join(f"`{flag}`" for flag, k, *_ in cli._OPTIONS if k == key and flag)


def render_config_tables() -> tuple[str, str]:
    top = ["| Key | Option | Type | Default |", "|---|---|---|---|"]
    for name, (check, default) in cli._TOP.items():
        top.append(f"| `{name}` | {_options(name)} | {_type(check)} | {_default(default)} |")
    for name, (check, default) in cli._RATE_MODEL.items():
        key = f"rate_model.{name}"
        top.append(f"| `{key}` | {_options(key)} | {_type(check)} | {_default(default)} |")
    params = ["| Forms | Key | Option | Type | Default |", "|---|---|---|---|---|"]
    for flag, key, forms, check, default, _ in cli._OPTIONS:
        if key and key.startswith("params."):
            params.append(
                f"| {_forms(forms)} | `{key[len('params.'):]}` | {f'`{flag}`' if flag else ''} "
                f"| {_type(check)} | {_default(default)} |"
            )
    return "\n".join(top) + "\n", "\n".join(params) + "\n"


@pytest.mark.parametrize("table", render_config_tables(), ids=["top", "params"])
def test_readme_config_tables_match_the_option_table(table):
    assert table in README, "\n" + table
