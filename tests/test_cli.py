import json

import numpy as np
import pytest

from ncflux.cli import build_parser, load_custom, main, read_config_file
from ncflux.problems import Problem

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


INSTANCE = make()
NOT_A_PROBLEM = 42
'''


@pytest.fixture
def problem_module(tmp_path, monkeypatch):
    (tmp_path / "cli_problem_fixture.py").write_text(MODULE_SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    return "cli_problem_fixture"


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
    cfg.write_text("# two quick levels\n\nlevels=2\nsolver=gmres\n")
    out = tmp_path / "report.csv"
    code = main(["study", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 3


def test_config_file_normalizes_dashes(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("cr-initial=4\n")
    assert read_config_file(str(cfg)) == {"cr_initial": 4}


def test_config_file_coerces_types(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels=4\nperturb=0.1\nproblem=p2\n")
    opts = read_config_file(str(cfg))
    assert opts == {"levels": 4, "perturb": 0.1, "problem": "p2"}
    assert isinstance(opts["levels"], int)
    assert isinstance(opts["perturb"], float)


def test_config_file_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("mesh=fine\n")
    with pytest.raises(ValueError, match="unknown option"):
        read_config_file(str(cfg))


def test_config_file_rejects_bare_words(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("fast\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(str(cfg))


def test_config_file_rejects_bad_numbers(tmp_path):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels=three\n")
    with pytest.raises(ValueError):
        read_config_file(str(cfg))


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


def test_unknown_problem_exits_two(capsys):
    code = main(["study", "--problem", "p9", "--levels", "2"])
    assert code == 2
    assert "unknown problem" in capsys.readouterr().err


def test_bad_solver_and_tol_exit_two_before_any_level(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels=2\nsolver=dense\n")
    assert main(["study", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown solver 'dense'" in err and "ne=" not in err

    assert main(["study", "--levels", "2", "--tol", "-1"]) == 2
    err = capsys.readouterr().err
    assert "tol must be in (0, 1), got -1.0" in err and "ne=" not in err


def test_identical_invocations_emit_identical_bytes(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["study", "--levels", "3", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_command_is_required():
    with pytest.raises(SystemExit):
        main([])


def test_parser_rejects_unknown_element():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["study", "--element", "hex"])
