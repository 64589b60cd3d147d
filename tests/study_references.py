"""Seed-0 reference reports of three small studies, one per element.

Each file under ``references/`` is the structured report
(``analysis.emit_report(result, "structured")``) of one study: its
config, the four error columns per level, the fitted orders and the
solver block. ``test_study_references.py`` reruns every study from the
config in its file and compares the numbers, not the bytes.

A change that moves a study's numbers on purpose regenerates the files:

    PYTHONPATH=src python tests/study_references.py [name ...]

(all of them when no name is given) and records old -> new for each
moved column.
"""

import json
import sys
from pathlib import Path

from ncflux.analysis import StudyConfig, emit_report, run_study

FOLDER = Path(__file__).with_name("references")

# name -> config; small enough that all three run in well under a second.
# ncrt3d-p2's level 4 is the first to reach the 3d V-cycle.
STUDIES = {
    "ncrt2d-p1-L5": StudyConfig(problem="p1", element="ncrt2d", levels=5),
    "ncrt3d-p2-L4": StudyConfig(problem="p2", element="ncrt3d", levels=4),
    "cr-p1-L4": StudyConfig(problem="p1", element="cr", levels=4,
                            perturb=0.0),
}


def path(name: str) -> Path:
    return FOLDER / f"{name}.json"


def load(name: str) -> dict:
    return json.loads(path(name).read_text(encoding="utf-8"))


def regenerate(names) -> None:
    FOLDER.mkdir(exist_ok=True)
    for name in names:
        text = emit_report(run_study(STUDIES[name]), format="structured")
        path(name).write_text(text, encoding="utf-8")
        print(f"wrote {path(name)}")


if __name__ == "__main__":
    regenerate(sys.argv[1:] or list(STUDIES))
