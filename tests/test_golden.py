"""Golden CLI rows: the ``ffode selftest`` campaign and one ``negdef``,
``sqrt`` and ``eigen-td`` campaign, pinned against ``golden/cli_rows.json``.

A refactor that claims unchanged outputs must pass this file as it stands:
floats agree to rtol 1e-12, ledgers and every other column exactly.  The
one exception is ``error_vs_reference``, which also passes within
ERROR_FLOOR: it is a difference of two unit states, so its rounding depends
on the BLAS kernels (forcing other OpenBLAS core types moved it by up to
3.1e-15, and every other float by at most 1e-14 relative).

Regenerate the data, only after a deliberate change of outputs, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import math
import os

import pytest

from ffode.cli import CSV_COLUMNS, SELFTEST_CONFIG, run_campaign

DATA = os.path.join(os.path.dirname(__file__), "golden", "cli_rows.json")
#: absolute slack of ``error_vs_reference``, 30× its largest BLAS-kernel drift
ERROR_FLOOR = 1e-13


def _campaign(name, solver, problems, sweep, seed=3):
    return {"version": 1, "campaign": name, "solver": solver, "seed": seed,
            "sweep": sweep, "problems": problems}


CAMPAIGNS = {
    "selftest": SELFTEST_CONFIG,
    "negdef": _campaign("golden-negdef", "negdef", [
        {"id": "negdef-b", "type": "ode", "family": "random-negdef", "N": 4},
        {"id": "negdef-hom", "type": "ode", "family": "random-negdef",
         "N": 4, "b": None},
    ], {"T": [1.0, 10.0], "eps": [1e-4]}),
    "sqrt": _campaign("golden-sqrt", "sqrt", [
        {"id": "sqrt-b", "type": "ode", "family": "random-sqrt", "N": 4},
        {"id": "sqrt-hom", "type": "ode", "family": "random-sqrt", "N": 4,
         "b": None},
    ], {"T": [1.0, 10.0], "eps": [1e-4]}),
    "eigen-td": _campaign("golden-eigen-td", "eigen-td", [
        {"id": "normal-b", "type": "ode", "family": "random-normal", "N": 4},
        {"id": "heat-drive", "type": "pde", "kind": "heat", "d": 1, "n": 4,
         "b": {"name": "cos-drive", "omega": 2.0}},
    ], {"T": [0.5], "eps": [1e-3]}),
}

#: every column but the wall time
COLUMNS = [c for c in CSV_COLUMNS if c != "wall_time_ms"]


def _rows(name):
    return [{c: row[c] for c in COLUMNS}
            for row in run_campaign(CAMPAIGNS[name])]


def _golden():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CAMPAIGNS))
def test_cli_rows_match_golden(name):
    want_rows = _golden()[name]
    got_rows = _rows(name)
    assert len(got_rows) == len(want_rows)
    for got, want in zip(got_rows, want_rows):
        where = f"{name}/{want['problem_id']} T={want['T']}"
        for col in COLUMNS:
            if isinstance(want[col], float):
                floor = ERROR_FLOOR if col == "error_vs_reference" else 0.0
                assert math.isclose(got[col], want[col], rel_tol=1e-12,
                                    abs_tol=floor), (where, col)
            else:
                assert got[col] == want[col], (where, col)


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({name: _rows(name) for name in CAMPAIGNS}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {DATA}")
