"""Only the array-building code loads numpy.

`import biphoton` and the state, partner and bad-input CLI runs must finish
without it, and without compiling the sweep-file writers (`biphoton._digits`),
since interpreter start-up is most of what a CLI call costs.
"""
import json
import os
import subprocess
import sys

import biphoton

# Runs in a fresh interpreter: the test process has numpy loaded already.
SCRIPT = r"""
import json
import sys

import biphoton
from biphoton import cli

codes = [
    cli.main(argv)
    for argv in (
        ["state", "--chi", "30"],
        ["state", "--c", "1,1j,0.5", "--json"],
        ["partner", "H", "V", "D"],
        ["partner", "moscow", "turin", "baltimore", "--globe"],
        ["partner", "V", "V", "H"],
        ["sweep", "chi", "--grid", "10:5:1"],
    )
]
numpy_loaded = "numpy" in sys.modules
digits_loaded = "biphoton._digits" in sys.modules
print(json.dumps({
    "codes": codes,
    "numpy_loaded": numpy_loaded,
    "digits_loaded": digits_loaded,
}))
"""


def test_non_sweep_runs_leave_numpy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(biphoton.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0, 3, 2]
    assert result["numpy_loaded"] is False
    assert result["digits_loaded"] is False
