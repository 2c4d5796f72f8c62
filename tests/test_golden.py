"""Golden outputs: the reproducibility contract of sweep files.

The seeded chi sweep must reproduce its CSV and JSON files byte for byte.
The ideal-rate sweep is compared numerically against full-precision JSON,
so a change that moves only round-off-level digits passes here and is
declared in CHANGES.md rather than hidden by regenerating the file.

Regenerate the two seeded files (only for a deliberate, declared change of
the seeded stream) with `PYTHONPATH=src python tests/test_golden.py`.  The
ideal-rate file is compared with a tolerance, so round-off moves never
require rewriting it, and the command leaves it alone.
"""
import json
from pathlib import Path

import numpy as np

from biphoton import RateModel, sweep_chi

DATA = Path(__file__).parent / "data"
M = RateModel()
SEEDED = dict(zeta1=45.0, zeta2=60.0, delta_phi=180.0, seed=7,
              duration_per_point=2.0, pump_drift=0.1)
IDEAL = dict(zeta1=45.0, zeta2=60.0, delta_phi=180.0,
             chi_grid=np.linspace(0.0, 90.0, 181))
RTOL = 1e-12
# Rc at an exact dip is round-off (~1e-30 counts/s) with no relative
# precision; below this floor two values count as equal.
RC_FLOOR = 1e-12 * M.pair_rate * M.eta1 * M.eta2


def seeded_sweep():
    return sweep_chi(m=M, **SEEDED)


def ideal_sweep():
    return sweep_chi(m=M, **IDEAL)


def test_seeded_csv_bytes():
    expected = (DATA / "sweep_chi_seeded.csv").read_text(encoding="utf-8")
    assert seeded_sweep().to_csv() == expected


def test_seeded_json_bytes():
    expected = (DATA / "sweep_chi_seeded.json").read_text(encoding="utf-8")
    assert seeded_sweep().to_json() == expected


def test_ideal_rates_match_golden():
    golden = json.loads((DATA / "sweep_chi_ideal.json").read_text(encoding="utf-8"))
    result = ideal_sweep()
    assert golden["param_name"] == result.param_name
    assert golden["coincidence_window"] == result.coincidence_window
    assert golden["duration"] is None and result.duration is None
    rows = golden["rows"]
    assert [r["param"] for r in rows] == result.param.tolist()
    for key, column, floor in (
        ("R1", result.r1, 0.0),
        ("R2", result.r2, 0.0),
        ("Rc", result.rc, RC_FLOOR),
        ("g2", result.g2, 0.0),
    ):
        expected = np.array([r[key] for r in rows])
        assert np.allclose(column, expected, rtol=RTOL, atol=floor), key


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    seeded = seeded_sweep()
    (DATA / "sweep_chi_seeded.csv").write_text(seeded.to_csv(), encoding="utf-8")
    (DATA / "sweep_chi_seeded.json").write_text(seeded.to_json(), encoding="utf-8")
