import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ncflux.analysis import StudyConfig
from ncflux.cli import build_parser, load_custom, main, read_config_file
from ncflux.problems import Problem

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"

MODULE_SOURCE = '''\
import numpy as np
from ncflux.problems import custom_problem


def _u(x):
    return 2.0 * x[..., 0] - x[..., 1]


def _grad(x):
    out = np.zeros(x.shape)
    out[..., 0] = 2.0
    out[..., 1] = -1.0
    return out


def _zero(x):
    return np.zeros(x.shape[:-1])


def _one(x):
    return np.ones(x.shape[:-1])


def make():
    return custom_problem(
        2, _u, _grad, _zero, a=_one,
        initial_gridlines=((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))


def zero():
    return custom_problem(
        2, _zero, lambda x: np.zeros(x.shape), _zero, a=_one,
        initial_gridlines=((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))


def one_interval():
    return custom_problem(
        2, _u, _grad, _zero, a=_one,
        initial_gridlines=((0.0, 1.0), (0.0, 0.5, 1.0)))


INSTANCE = make()
NOT_A_PROBLEM = 42
'''


@pytest.fixture
def problem_module(tmp_path, monkeypatch):
    (tmp_path / "cli_problem_fixture.py").write_text(MODULE_SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    return "cli_problem_fixture"


def parse_with_config(path, *flags):
    """Study options from a config file and flags, as main parses them."""
    return build_parser().parse_args(
        ["study", *read_config_file(str(path)), *flags])


def study_flags():
    """Option strings of `ncflux study`, without --help."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices["study"]._actions
            for opt in action.option_strings
            if opt.startswith("--") and opt != "--help"}


def test_study_writes_csv_to_file(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["study", "--levels", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("ne,h,err_u")
    assert int(lines[1].split(",")[0]) == 6


def test_readme_cr_study_completes(tmp_path):
    out = tmp_path / "cr.csv"
    code = main(["study", "--element", "cr", "--cr-initial", "8",
                 "--levels", "4", "--perturb", "0", "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert [int(row.split(",")[0]) for row in rows] == [128, 512, 2048, 8192]


def test_study_writes_csv_to_stdout(capsys):
    code = main(["study", "--levels", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("ne,h,err_u")
    assert len(captured.out.strip().split("\n")) == 3
    # progress lines stay on stderr so stdout is clean data
    assert "ne=" in captured.err


def test_structured_format_emits_json(capsys):
    code = main(["study", "--levels", "2", "--format", "structured"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["levels"] == 2
    assert len(doc["levels"]) == 2


def test_orders_reported_on_stderr(capsys):
    code = main(["study", "--levels", "3", "--skip", "1"])
    assert code == 0
    assert "order err_u" in capsys.readouterr().err


def test_skip_leaving_too_few_levels_exits_before_any_level(capsys):
    code = main(["study", "--levels", "3", "--skip", "5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ne=" not in captured.err
    assert "skip=5" in captured.err and "levels=3" in captured.err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels=3\nseed=5\n")
    out = tmp_path / "report.csv"
    code = main(["study", "--config", str(cfg), "--levels", "2",
                 "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_config_file_alone_drives_the_study(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("# two quick levels\n\nlevels=2\ntol=1e-11\n")
    out = tmp_path / "report.csv"
    code = main(["study", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_config_file_normalizes_dashes(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("cr-initial=4\ncustom_spec=mod:attr\n")
    assert read_config_file(str(cfg)) == ["--cr-initial=4",
                                          "--custom-spec=mod:attr"]
    args = parse_with_config(cfg)
    assert args.cr_initial == 4 and args.custom_spec == "mod:attr"


def test_config_file_coerces_types(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels=4\nperturb=0.1\nproblem=p2\ntol=-1e-3\n")
    args = parse_with_config(cfg)
    assert (args.levels, args.perturb, args.problem) == (4, 0.1, "p2")
    assert isinstance(args.levels, int)
    assert isinstance(args.perturb, float)
    # a value that starts with a dash is still the key's value
    assert args.tol == -1e-3


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels=2\nmesh=fine\n")
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --mesh=fine" in err and "ne=" not in err


def test_config_file_rejects_bare_words(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("fast\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(str(cfg))
    assert main(["study", "--config", str(cfg)]) == 2
    assert "study.cfg:1: expected key=value" in capsys.readouterr().err


def test_config_file_rejects_bad_numbers(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels=three\n")
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "argument --levels: invalid int value: 'three'" \
        in capsys.readouterr().err


def test_config_file_format_is_checked_before_any_level(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels=2\nformat=xml\n")
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --format: invalid choice: 'xml'" in err
    assert "ne=" not in err


def test_out_into_missing_directory_exits_before_any_level(tmp_path, capsys):
    out = tmp_path / "absent" / "report.csv"
    assert main(["study", "--levels", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(out) in err and "ne=" not in err
    assert not out.parent.exists()


def test_out_naming_a_directory_exits_before_any_level(tmp_path, capsys):
    assert main(["study", "--levels", "2", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {tmp_path} is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exits_two(tmp_path):
    code = main(["study", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2


def test_load_custom_factory(problem_module):
    prob = load_custom(f"{problem_module}:make")
    assert isinstance(prob, Problem)
    assert prob.dim == 2


def test_load_custom_instance(problem_module):
    prob = load_custom(f"{problem_module}:INSTANCE")
    assert isinstance(prob, Problem)


def test_load_custom_rejects_non_problem(problem_module):
    with pytest.raises(TypeError):
        load_custom(f"{problem_module}:NOT_A_PROBLEM")


def test_load_custom_rejects_malformed_spec():
    with pytest.raises(ValueError):
        load_custom("no_colon_here")


def test_custom_study_from_spec(problem_module, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["study", "--problem", "custom", "--custom-spec",
                 f"{problem_module}:make", "--levels", "2", "--tol", "1e-13",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    # a linear exact solution is reproduced on every level
    for line in lines[1:]:
        errs = np.array([float(v) for v in line.split(",")[2:]])
        assert errs.max() < 1e-10


def test_custom_without_spec_exits_two(capsys):
    code = main(["study", "--problem", "custom", "--levels", "2"])
    assert code == 2
    assert "custom-spec" in capsys.readouterr().err


def test_bad_spec_exits_two(capsys):
    code = main(["study", "--problem", "custom", "--custom-spec",
                 "ncflux.problems:Problem", "--levels", "2"])
    assert code == 2


@pytest.mark.parametrize("spec, why", [
    ("nosuchmod:x", "No module named 'nosuchmod'"),
    ("ncflux.problems:nosuch", "has no attribute 'nosuch'"),
])
def test_unimportable_spec_exits_two_naming_it(capsys, spec, why):
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        load_custom(spec)
    code = main(["study", "--problem", "custom", "--custom-spec", spec,
                 "--levels", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: custom spec {spec!r}" in err and why in err
    assert "Traceback" not in err and "ne=" not in err


@pytest.mark.parametrize("module, source, why", [
    ("cli_syntax_fixture", "def make(:\n", "SyntaxError: "),
    ("cli_raising_fixture", "raise RuntimeError('no data here')\n",
     "RuntimeError: no data here"),
    ("cli_factory_fixture", "def make():\n    raise RuntimeError('no data')\n",
     "RuntimeError: no data"),
])
def test_spec_that_raises_exits_two_naming_it(tmp_path, monkeypatch, capsys,
                                              module, source, why):
    (tmp_path / f"{module}.py").write_text(source)
    monkeypatch.syspath_prepend(str(tmp_path))
    spec = f"{module}:make"
    code = main(["study", "--problem", "custom", "--custom-spec", spec,
                 "--levels", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: custom spec {spec!r}: {why}")
    assert err.count("\n") == 1 and "ne=" not in err


def test_spec_without_custom_problem_exits_before_any_level(tmp_path,
                                                            capsys):
    code = main(["study", "--custom-spec", "ncflux.problems:problem1",
                 "--levels", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--custom-spec needs --problem custom" in err and "ne=" not in err
    # a config file's spec is checked the same way
    cfg = tmp_path / "study.cfg"
    cfg.write_text("problem=p1\ncustom_spec=ncflux.problems:problem1\n")
    assert main(["study", "--config", str(cfg), "--levels", "2"]) == 2
    assert "ne=" not in capsys.readouterr().err


def test_one_interval_gridlines_exit_two_before_any_level(problem_module,
                                                          capsys):
    code = main(["study", "--problem", "custom", "--custom-spec",
                 f"{problem_module}:one_interval", "--levels", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "initial_gridlines" in err and "axis 0 has 2" in err
    assert "Traceback" not in err and "ne=" not in err


def test_zero_error_column_exits_two_naming_it(problem_module, capsys):
    # u = 0 is solved exactly, so no order can be fitted to err_u
    code = main(["study", "--problem", "custom", "--custom-spec",
                 f"{problem_module}:zero", "--levels", "2", "--skip", "0"])
    assert code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: cannot fit the order of err_u: it is 0.0 on "
                      "level 1 of 2 (ne=4), not positive"]
    assert "Traceback" not in err


def test_unknown_problem_exits_two(capsys):
    code = main(["study", "--problem", "p9", "--levels", "2"])
    assert code == 2
    assert "unknown problem" in capsys.readouterr().err


def test_bad_solver_and_tol_exit_two_before_any_level(tmp_path, capsys):
    # there is one Krylov method, so a solver key is unknown
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels=2\nsolver=dense\n")
    with pytest.raises(SystemExit) as exc:
        main(["study", "--config", str(cfg)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --solver=dense" in err
    assert "ne=" not in err

    assert main(["study", "--levels", "2", "--tol", "-1"]) == 2
    err = capsys.readouterr().err
    assert "tol must be in (0, 1), got -1.0" in err and "ne=" not in err


@pytest.mark.parametrize("element", ["ncrt2d", "cr"])
def test_negative_seed_exits_two_before_any_level(capsys, element):
    code = main(["study", "--element", element, "--levels", "2",
                 "--seed", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"


def test_triangular_perturbation_warning_is_one_line(capsys):
    assert main(["study", "--element", "cr", "--levels", "1"]) == 0
    lines = capsys.readouterr().err.splitlines()
    warning = ("warning: gridline perturbation does not apply to "
               "triangular studies; ignoring it")
    assert lines[0] == warning
    assert len(lines) == 2 and lines[1].startswith("ne=")


def test_identical_invocations_emit_identical_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["study", "--levels", "3", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def study_stdout(argv, threads):
    """stdout of `ncflux study` in a child process with the BLAS thread
    count set."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    env.update(dict.fromkeys(THREAD_VARIABLES, str(threads)))
    return subprocess.run([sys.executable, "-m", "ncflux.cli", "study",
                           *argv], env=env, capture_output=True,
                          check=True).stdout


@pytest.mark.parametrize("argv", [
    ["--element", "ncrt2d", "--levels", "6"],
    ["--element", "cr", "--levels", "2", "--cr-initial", "64"],
    # the last level is solved with the multigrid V-cycle
    ["--element", "ncrt3d", "--problem", "p2", "--levels", "4"],
])
def test_reports_do_not_depend_on_the_blas_thread_count(argv):
    assert study_stdout(argv, 1) == study_stdout(argv, 2)


def test_command_is_required():
    with pytest.raises(SystemExit):
        main([])


def test_parser_rejects_unknown_element():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["study", "--element", "hex"])


def test_option_table_does_not_drift():
    flags = study_flags()
    args = build_parser().parse_args(["study"])
    for f in fields(StudyConfig):
        if f.name == "custom":
            continue
        # StudyConfig holds the defaults, so the parser leaves them unset
        assert "--" + f.name.replace("_", "-") in flags
        assert getattr(args, f.name) is None
    table = re.findall(r"^\| `(--[a-z-]+)` \|", README.read_text(),
                       flags=re.MULTILINE)
    assert sorted(table) == sorted(flags)
