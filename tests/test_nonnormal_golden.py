"""Both non-normal witnesses, pinned against ``golden/nonnormal_witnesses.json``.

Every ``certified`` entry and every ``params`` value of
``witness_nonnormal_homogeneous`` and ``witness_nonnormal_inhomogeneous``
must equal the pinned one exactly, at four δ.  The pinned data predate
the shared ``_nonnormal_pair`` body, which added one certificate to the
inhomogeneous witness: ``exact_trace_distance``, checked here on its own.

Regenerate the data, only after a deliberate change of outputs, with
``PYTHONPATH=src python tests/test_nonnormal_golden.py``.
"""

import json
import os

import pytest

from ffode import witness_nonnormal_homogeneous, witness_nonnormal_inhomogeneous
from ffode.lower_bounds import inequality_holds

DATA = os.path.join(os.path.dirname(__file__), "golden",
                    "nonnormal_witnesses.json")
DELTAS = (0.1, 0.5, 0.9, 0.99)
WITNESSES = {"homogeneous": witness_nonnormal_homogeneous,
             "inhomogeneous": witness_nonnormal_inhomogeneous}
#: certificates added after the data were pinned, by witness
ADDED = {"homogeneous": (), "inhomogeneous": ("exact_trace_distance",)}


def _entries(witness, delta):
    pair = WITNESSES[witness](delta)
    return {"certified": {name: list(entry)
                          for name, entry in pair.certified.items()},
            "params": pair.params}


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("witness", list(WITNESSES))
def test_nonnormal_witness_matches_golden(witness, delta):
    with open(DATA, encoding="utf-8") as fh:
        want = json.load(fh)[witness][repr(delta)]
    got = _entries(witness, delta)
    assert got["params"] == want["params"]
    added = {name: got["certified"].pop(name) for name in ADDED[witness]}
    assert got["certified"] == want["certified"]
    for measured, bound, direction in added.values():
        assert inequality_holds(measured, bound, direction)


if __name__ == "__main__":
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({witness: {repr(delta): _entries(witness, delta)
                             for delta in DELTAS}
                   for witness in WITNESSES}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {DATA}")
