"""Three small seed-0 studies reproduce their committed reference reports.

h, every error column and every fitted order agree within 1e-12
relative; the level sizes and the solver's dims, convergence flags and
iteration counts agree exactly. The bytes are not compared: numpy's SIMD
exp and sin may differ in the last bit on another CPU, and a report is
only promised to be deterministic on one machine. A change that moves
these numbers on purpose regenerates the files (``study_references``).
"""

import json

import pytest

from ncflux.analysis import COLUMNS, StudyConfig, emit_report, run_study
from study_references import STUDIES, load

REL = 1e-12


def moved(got: float, ref: float) -> bool:
    return abs(got - ref) > REL * abs(ref)


@pytest.mark.parametrize("name", list(STUDIES))
def test_study_reproduces_its_reference(name):
    ref = load(name)
    assert StudyConfig(**ref["config"]) == STUDIES[name]
    got = json.loads(emit_report(run_study(STUDIES[name]), "structured"))
    assert got["config"] == ref["config"]

    assert [lv["ne"] for lv in got["levels"]] == \
        [lv["ne"] for lv in ref["levels"]]
    bad = [f"level {i + 1} {col}: {ref_lv[col]!r} -> {got_lv[col]!r}"
           for i, (got_lv, ref_lv) in enumerate(zip(got["levels"],
                                                    ref["levels"]))
           for col in ("h",) + COLUMNS if moved(got_lv[col], ref_lv[col])]
    assert got["orders"].keys() == ref["orders"].keys()
    bad += [f"order {col}: {ref['orders'][col]!r} -> {order!r}"
            for col, order in got["orders"].items()
            if moved(order, ref["orders"][col])]
    assert not bad, "\n".join(bad)

    exact = ("method", "converged", "iterations", "dim")
    assert [{k: rep[k] for k in exact} for rep in got["solver"]] == \
        [{k: rep[k] for k in exact} for rep in ref["solver"]]
