import csv
import gc
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import mpmath as mp
import pytest

import maassforge
from maassforge import classforms, heckechar, lseries, maassform
from maassforge.classforms import ClassGroup
from maassforge.cli import AUTOMORPHY_SAMPLE_BUDGET, COEFFS_ROW_BUDGET, DISC_BUDGET, GAUSS_PRIME_BUDGET, main
from maassforge.maassform import ThetaForm
from maassforge.quadfield import IDEALS_NORM_BUDGET, QuadField
from oracles import ReferenceCountTable, dense_coefficients, report_floats
from test_maassform import dense_theta

SCHEMA = json.loads((Path(__file__).parent.parent / "schemas" / "report.json").read_text())


def run_cli(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr().out
    return exc.value.code, out


def validate(payload: str):
    jsonschema.validate(json.loads(payload), SCHEMA)


def test_field_command(capsys):
    code, out = run_cli(capsys, "field", "--disc", "229")
    assert code == 0
    data = json.loads(out)
    assert data["h_wide"] == 3
    assert data["unit"] == {"x": 15, "y": 1, "norm": -1}
    validate(out)


def test_field_command_d5(capsys):
    code, out = run_cli(capsys, "field", "--disc", "5")
    assert code == 0 and json.loads(out)["h_wide"] == 1


def test_field_command_d12_narrow(capsys):
    code, out = run_cli(capsys, "field", "--disc", "12")
    data = json.loads(out)
    assert code == 0 and data["h_wide"] == 1 and data["h_narrow"] == 2
    assert data["unit"]["norm"] == 1


def test_field_invalid_disc(capsys):
    code, _ = run_cli(capsys, "field", "--disc", "45")
    assert code == 2


def test_ideals_command(capsys):
    code, out = run_cli(capsys, "ideals", "--disc", "229", "--max-norm", "20")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == len(data["ideals"])
    assert all(i["norm"] <= 20 for i in data["ideals"])
    validate(out)


def test_ideals_max_norm_zero_lists_none(capsys):
    code, out = run_cli(capsys, "ideals", "--disc", "229", "--max-norm", "0")
    data = json.loads(out)
    assert code == 0 and data["count"] == 0 and data["ideals"] == []
    validate(out)


def test_ideals_cap_exceeded(capsys):
    code, _ = run_cli(capsys, "ideals", "--disc", "229", "--max-norm", str(IDEALS_NORM_BUDGET + 1))
    assert code == 3


def test_coeffs_command(capsys, tmp_path):
    csv_path = tmp_path / "c.csv"
    code, out = run_cli(
        capsys, "coeffs", "--disc", "229", "--index", "1", "--n-max", "10", "--csv", str(csv_path)
    )
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"][2] == {"n": 3, "re": -1.0, "im": 0.0}
    # a'(9) = zeta3^2 + 1 + zeta3 = 0 exactly, and every a'(n) is real
    assert data["coefficients"][8] == {"n": 9, "re": 0.0, "im": 0.0}
    assert all(c["im"] == 0.0 for c in data["coefficients"])
    dense = dense_coefficients(ReferenceCountTable(ClassGroup(QuadField(229)), 10), 1, 10)
    assert [c["n"] for c in data["coefficients"]] == list(range(1, 11))
    assert max(abs(c["re"] - dense[c["n"]]) for c in data["coefficients"]) < 1e-12
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["n", "re", "im"] and rows[9] == ["9", "0", "0"]
    assert all(float(im) == 0.0 for _, _, im in rows[1:])
    validate(out)


def test_coeffs_stdout_is_pinned(capsys):
    # every a'(n) of this order-3 character is an exact integer, printed as
    # the bytes of tests/golden
    code, out = run_cli(capsys, "coeffs", "--disc", "229", "--index", "1", "--n-max", "100")
    assert code == 0
    assert out == (Path(__file__).parent / "golden" / "coeffs_229_1_100.json").read_text()


@pytest.mark.parametrize(
    "argv",
    [
        ("ideals", "--disc", "12", "--max-norm", "200"),  # chi_-4
        ("ideals", "--disc", "40", "--max-norm", "200"),  # chi_8
        ("ideals", "--disc", "229", "--max-norm", "200"),
        ("field", "--disc", "95304805"),  # h+ = 680, not cyclic
    ],
    ids=" ".join,
)
def test_integer_reports_are_pinned(capsys, argv):
    # the prime splitting and the class group print integers, and the
    # regulator comes from 40-digit decimals: no float summation order moves
    # these bytes, kept in tests/golden as command_value_value.json
    code, out = run_cli(capsys, *argv)
    assert code == 0
    golden = "_".join(argv[:1] + argv[2::2]) + ".json"
    assert out == (Path(__file__).parent / "golden" / golden).read_text()


def test_coeffs_csv_and_json_export(capsys, tmp_path):
    csv_path, json_path = tmp_path / "coeffs.csv", tmp_path / "coeffs.json"
    code, out = run_cli(
        capsys, "coeffs", "--disc", "229", "--index", "1", "--n-max", "50",
        "--csv", str(csv_path), "--out", str(json_path),
    )
    assert code == 0
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0] == ["n", "re", "im"]
    assert len(rows) == 51
    assert float(rows[3][1]) == -1.0  # a'(3)
    data = json.loads(json_path.read_text())
    assert json_path.read_text() == out
    assert data["D"] == 229 and len(data["coefficients"]) == 50


@pytest.mark.parametrize(
    "argv",
    [
        ("coeffs", "--disc", "229", "--n-max", "-5"),
        ("ideals", "--disc", "229", "--max-norm", "-5"),
        ("ideals", "--disc", "229", "--max-norm", "100", "--cap", "10"),  # --cap is gone
        ("lvalue", "--disc", "229", "--s", "inf"),
        ("lvalue", "--disc", "229", "--s", "nan"),
        ("theta-eval", "--disc", "229", "--x", "nan", "--y", "0.5"),
        ("theta-eval", "--disc", "229", "--x", "0.2", "--y", "nan"),
        ("theta-eval", "--disc", "229", "--x", "0.2", "--y", "inf"),
        ("check-automorphy", "--disc", "229", "--samples", "0"),
        ("check-automorphy", "--disc", "229", "--tol", "nan"),
        ("check-automorphy", "--disc", "229", "--tol", "-1"),  # no residual is below it
        ("check-automorphy", "--disc", "229", "--tol", "0"),
        ("check-automorphy", "--disc", "229", "--c", "230", "--d", "1"),  # c != 0 mod D
        ("gauss-check", "--disc", "5", "--p", "2"),
        ("gauss-check", "--disc", "229", "--p", "15"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_invalid_numbers_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("where", ["directory", "beneath a file"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, flag, where):
    (tmp_path / "file").write_text("")
    path = tmp_path if where == "directory" else tmp_path / "file" / "x"
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--disc", "229", "--n-max", "5", flag, str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    # the file is opened before anything is printed
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"error: cannot write '{path}'")


def test_refused_out_path_leaves_no_csv(capsys, tmp_path):
    # both paths are opened before either is written, and the CSV the run
    # created is removed once --out is refused
    (tmp_path / "file").write_text("")
    csv_path, out = tmp_path / "coeffs.csv", tmp_path / "file" / "x"
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--disc", "229", "--n-max", "5", "--csv", str(csv_path), "--out", str(out)])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == f"error: cannot write '{out}': Not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("out", ["beneath a file", "/dev/full", "over the file size limit"])
def test_refused_out_path_keeps_an_existing_csv(capsys, tmp_path, out):
    # the CSV is opened without truncating it, and emptied only after every
    # path is open and the device, or the file the run creates, is written
    if out == "/dev/full" and not os.path.exists(out):
        pytest.skip("needs /dev/full")
    (tmp_path / "file").write_text("")
    csv_path = tmp_path / "coeffs.csv"
    csv_path.write_text("precious\n")
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)
    try:
        if out == "over the file size limit":  # the JSON of 200 rows passes 4 KB
            out = str(tmp_path / "new.json")
            resource.setrlimit(resource.RLIMIT_FSIZE, (4096, limit[1]))
        elif out == "beneath a file":
            out = str(tmp_path / "file" / "x")
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--disc", "229", "--n-max", "200", "--csv", str(csv_path), "--out", out])
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limit)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith(f"error: cannot write '{out}'")
    assert csv_path.read_bytes() == b"precious\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["coeffs.csv", "file"]


@pytest.mark.parametrize(
    "spelling, exists",
    [("same", False), ("same", True), ("dot", False), ("dot", True), ("symlink", True), ("hard link", True)],
)
def test_csv_and_out_naming_one_file_exit_2(capsys, tmp_path, monkeypatch, spelling, exists):
    # the second write would truncate the first: refused after both are
    # opened and before either is written, a file the run created removed
    monkeypatch.chdir(tmp_path)
    if exists:
        Path("X").write_text("precious\n")
    out = {"same": "X", "dot": "./X", "symlink": "Y", "hard link": "Z"}[spelling]
    if spelling == "symlink":
        os.symlink("X", "Y")
    elif spelling == "hard link":
        os.link("X", "Z")
    before = sorted(os.listdir())
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--disc", "229", "--n-max", "3", "--csv", "X", "--out", out])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == f"error: cannot write 'X' and '{out}': one file\n"
    assert sorted(os.listdir()) == before
    if before:
        assert Path("X").read_bytes() == b"precious\n"


def test_csv_and_out_may_both_be_dev_null(capsys):
    code, out = run_cli(capsys, "coeffs", "--disc", "229", "--n-max", "3", "--csv", os.devnull, "--out", os.devnull)
    assert code == 0 and json.loads(out)["coefficients"][2]["re"] == -1.0


def test_existing_csv_longer_than_the_new_one_is_overwritten(capsys, tmp_path):
    csv_path = tmp_path / "coeffs.csv"
    csv_path.write_text("x" * 1000)
    code, _ = run_cli(capsys, "coeffs", "--disc", "229", "--n-max", "3", "--csv", str(csv_path))
    # emptied before it is written: no byte of the old content is left
    assert code == 0 and csv_path.read_bytes() == b"n,re,im\r\n1,1,0\r\n2,0,0\r\n3,-1,0\r\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [("field", "--disc", "5", "--out", "/dev/full"), ("coeffs", "--disc", "229", "--n-max", "5", "--csv", "/dev/full")],
    ids=lambda argv: argv[0],
)
def test_full_device_exits_2(capsys, argv):
    # the write fails, not the open: one error line, and nothing on stdout
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == "error: cannot write '/dev/full': No space left on device\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("theta-eval", "--disc", "229", "--x", "0.12345678901234567", "--y", "0.30000000000000004"),
        ("check-automorphy", "--disc", "229", "--samples", "1", "--tol", "1.2345678901234567e-08"),
    ],
    ids=lambda argv: argv[0],
)
def test_echoed_inputs_print_at_15_digits(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    floats = list(report_floats(json.loads(out)))
    assert len(floats) >= 3 and all(v == float(f"{v:.15g}") for v in floats), floats


@pytest.mark.parametrize("half", [("--c", "458"), ("--d", "3")], ids=lambda half: half[0])
def test_check_automorphy_half_a_matrix_exits_2(capsys, half):
    with pytest.raises(SystemExit) as exc:
        main(["check-automorphy", "--disc", "229", "--index", "1", *half, "--samples", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("d", ["1", "-1"])
def test_check_automorphy_c_zero_exits_2(capsys, monkeypatch, d):
    # c = 0 passes c = 0 mod D and gcd(c, d) = 1, but the points sit around -d/c
    built = []
    monkeypatch.setattr(lseries.ClassCountTable, "__init__", lambda *a: built.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["check-automorphy", "--disc", "229", "--index", "1", "--c", "0", "--d", d])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert built == []  # refused before any table row is built


def test_gauss_check_over_prime_budget_exits_3(capsys, monkeypatch):
    summed = []
    monkeypatch.setattr(heckechar, "check_gauss_norm_lemma", lambda *a: summed.append(a))
    monkeypatch.setattr(heckechar, "gauss_sum_rational", lambda *a: summed.append(a))
    # 2011 is prime and inert in Q(sqrt 229)
    with pytest.raises(SystemExit) as exc:
        main(["gauss-check", "--disc", "229", "--p", "2011"])
    captured = capsys.readouterr()
    assert 2011 > GAUSS_PRIME_BUDGET
    assert exc.value.code == 3
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert summed == []  # refused before any Gauss sum


def test_coeffs_over_row_budget_exits_3(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(lseries.ClassCountTable, "__init__", lambda *a: built.append(a))
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--disc", "229", "--n-max", str(COEFFS_ROW_BUDGET + 1)])
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert built == []  # refused before any table row is built


def test_lvalue_over_row_budget_exits_3(capsys, monkeypatch):
    # the AFE of L(1) needs 265 rows at split point 2
    monkeypatch.setattr(lseries, "ROW_BUDGET", 200)
    with pytest.raises(SystemExit) as exc:
        main(["lvalue", "--disc", "229", "--index", "2"])
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "owner,name,argv",
    [
        (ThetaForm, "eval", ("theta-eval", "--disc", "229", "--index", "1", "--x", "0.2", "--y", "0.5")),
        (QuadField, "enumerate_ideals", ("ideals", "--disc", "229", "--max-norm", "20")),
    ],
    ids=["theta-eval", "ideals"],
)
def test_value_error_from_a_bug_keeps_its_traceback(capsys, monkeypatch, owner, name, argv):
    # only the refusal types map to exit codes; a plain ValueError is a bug
    def bug(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr(owner, name, bug)
    with pytest.raises(ValueError, match="a bug"):
        main(list(argv))
    assert capsys.readouterr() == ("", "")


def child_env(**env_set) -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    maassforge, without OPENBLAS_NUM_THREADS unless it is given."""
    src = str(Path(maassforge.__file__).parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_set, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return env


def run_child(code: str, **env_set) -> str:
    """stdout of a fresh interpreter running code, with OPENBLAS_NUM_THREADS
    removed from the environment unless it is given."""
    res = subprocess.run([sys.executable, "-c", code], env=child_env(**env_set), capture_output=True, text=True,
                         check=True)
    return res.stdout.strip()


def test_cli_import_loads_no_optional_package():
    code = (
        "import sys, maassforge.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('mpmath', 'scipy', 'sympy')))"
    )
    assert run_child(code) == "[]"


@pytest.mark.parametrize(
    "argv, code, loaded",
    [
        (None, None, ()),
        (["--help"], 0, ()),
        (["lvalue", "--disc", "229", "--s", "nan"], 2, ()),
        (["field", "--disc", "1000000009"], 3, ()),
        (["field", "--disc", "229"], 0, ("classforms", "quadfield")),
        (["ideals", "--disc", "229", "--max-norm", "50"], 0, ("quadfield",)),
        (["gauss-check", "--disc", "229", "--p", "13"], 0, ("classforms", "heckechar", "quadfield")),
    ],
    ids=["import", "--help", "lvalue --s nan", "field over budget", "field", "ideals", "gauss-check"],
)
def test_cli_loads_only_the_modules_a_command_runs(argv, code, loaded):
    # importing the CLI loads the package root and the standard library
    # alone, so --help, a refused argument and the --disc budget load no
    # numpy; a command loads the modules it runs, and numpy with the first
    child = (
        "import contextlib, io, json, sys\n"
        "from maassforge.cli import main\n"
        f"argv, code = {argv!r}, None\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "print(json.dumps([code, 'numpy' in sys.modules, sorted(m for m in sys.modules if m.startswith('maassforge.'))]))"
    )
    modules = sorted(f"maassforge.{m}" for m in ("cli", *loaded))
    assert json.loads(run_child(child)) == [code, bool(loaded), modules]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_cli_import_runs_one_blas_thread():
    # OpenBLAS would start one thread per CPU as numpy loads
    code = "import os, maassforge.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    assert run_child(code) == "1 1"


def test_users_openblas_threads_are_kept():
    code = "import os, maassforge.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_child(code, OPENBLAS_NUM_THREADS="2") == "2"


@pytest.mark.parametrize(
    "code, argv",
    [
        (0, ("field", "--disc", "229")),
        (1, ("check-automorphy", "--disc", "229", "--index", "1", "--samples", "1", "--tol", "1e-20")),
        (2, ("lvalue", "--disc", "229", "--index", "0")),
        (3, ("check-automorphy", "--disc", "229", "--index", "1", "--samples", "101")),
    ],
    ids=lambda x: f"exit {x}" if isinstance(x, int) else x[0],
)
def test_program_entry_matches_in_process_main(capfdbinary, code, argv):
    # the process and the call print the same bytes, and the call leaves the
    # collector unfrozen
    prog = subprocess.run([sys.executable, "-m", "maassforge.cli", *argv], env=child_env(), capture_output=True)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capfdbinary.readouterr()
    assert prog.returncode == code
    assert (captured.out, captured.err, exc.value.code) == (prog.stdout, prog.stderr, prog.returncode)
    assert gc.get_freeze_count() == 0


def test_console_script_entry_freezes_before_exit():
    # main() reads the process's own command line, as the maassforge script
    # calls it, and freezes the collector once the report is out
    code = (
        "import atexit, gc, sys\n"
        "from maassforge.cli import main\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), file=sys.stderr))\n"
        "sys.argv = ['maassforge', 'field', '--disc', '229']\n"
        "sys.exit(main())\n"
    )
    res = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True, text=True)
    assert res.returncode == 0 and json.loads(res.stdout)["D"] == 229
    word, count = res.stderr.split()
    assert word == "frozen" and int(count) > 0


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("target", ["/dev/full", "closed pipe"])
def test_unwritable_stdout_exits_2(target, unbuffered):
    # the print or the flush fails inside main: one error line and exit 2,
    # and the interpreter's own flush at exit finds nothing left to fail on
    if target == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "maassforge.cli", "field", "--disc", "229"]
    if target == "/dev/full":
        with open("/dev/full", "wb") as out:
            res = subprocess.run(argv, env=env, stdout=out, stderr=subprocess.PIPE, text=True)
        strerror = "No space left on device"
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run(argv, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        strerror = "Broken pipe"
    assert res.returncode == 2
    assert res.stderr == f"error: cannot write stdout: {strerror}\n"


@pytest.fixture
def int_str_limit_640():
    """Python's lowest limit on the digits of str(int), so that the unit of
    D = 351289, x of 653 digits, stands for units past the default 4300."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


def test_regulator_of_a_unit_too_long_to_print(capsys, int_str_limit_640):
    # the regulator read len(str(x)), so ClassGroup, and every command, failed
    cg = ClassGroup(QuadField(351289))
    u = cg.unit
    with mp.workdps(40):
        assert cg.regulator == float(mp.log((u.x + u.y * mp.sqrt(u.D)) / 2))
    code, out = run_cli(capsys, "ideals", "--disc", "351289", "--max-norm", "5")
    assert code == 0 and json.loads(out)["count"] == 10


def test_field_of_a_unit_too_long_to_print_exits_3(capsys, int_str_limit_640):
    with pytest.raises(SystemExit) as exc:
        main(["field", "--disc", "351289"])
    out, err = capsys.readouterr()
    assert exc.value.code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("field",),
        ("ideals", "--max-norm", "5"),
        ("coeffs",),
        ("theta-eval", "--x", "0", "--y", "1"),
        ("check-automorphy",),
        ("lvalue",),
        ("petersson",),
        ("gauss-check", "--p", "13"),
    ],
    ids=lambda argv: argv[0],
)
def test_disc_over_budget_exits_3(capsys, monkeypatch, argv):
    # D = 1000000009 is prime, 1 mod 4, and its class group search took 31 s
    built = []
    monkeypatch.setattr(classforms, "ClassGroup", lambda *a: built.append(a))
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--disc", "1000000009", *argv[1:]])
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert 1000000009 > DISC_BUDGET
    assert exc.value.code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert built == []  # refused before the class group search


@pytest.mark.parametrize(
    "argv, groups",
    [
        (("ideals", "--disc", "229", "--max-norm", "50"), 0),
        (("gauss-check", "--disc", "229", "--p", "13"), 0),
        (("field", "--disc", "229"), 1),
    ],
    ids=lambda x: x[0] if isinstance(x, tuple) else str(x),
)
def test_class_groups_built_per_command(capsys, monkeypatch, argv, groups):
    # ideals and gauss-check read the field alone, so they search for no
    # reduced forms
    built = []

    def counting(F):
        built.append(F.D)
        return ClassGroup(F)

    monkeypatch.setattr(classforms, "ClassGroup", counting)
    code, _ = run_cli(capsys, *argv)
    assert code == 0 and len(built) == groups


@pytest.mark.parametrize("disc,samples", [(136, "3"), (505, "1")])
def test_check_automorphy_odd_character(capsys, disc, samples):
    # N(unit) = +1 and psi((sqrt D)) = -1: the form is a sine series
    code, out = run_cli(
        capsys, "check-automorphy", "--disc", str(disc), "--index", "1", "--samples", samples
    )
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-8
    validate(out)


@pytest.mark.parametrize("disc", [229, 401, 445, 505, 136, 3305, 40009])
def test_check_automorphy_at_default_samples(capsys, disc):
    # the points lie on the isometric circles |cz + d| = 1 of matrices with
    # c <= 3D, where z and gamma z sit at the height sin(phi)/|c|, so the rows
    # are at most 45 (3D) / (2 pi sin 0.3) = 72.7 D: linear in D
    code, out = run_cli(capsys, "check-automorphy", "--disc", str(disc), "--index", "1")
    assert code == 0
    data = json.loads(out)
    assert data["max_residual"] <= 1e-11
    assert data["truncation"] <= 80 * disc
    validate(out)


@pytest.mark.parametrize("disc", [401, 445, 3305])
@pytest.mark.parametrize("entry", [1, 20])
def test_check_automorphy_fails_on_one_wrong_coefficient(capsys, monkeypatch, disc, entry):
    # Theta with one a'(n) of its support scaled by 1.001 is not automorphic:
    # the residual rises from 1e-13 or less to 1e-5 or more, far above --tol
    support = maassform.support

    def scaled(character, n_max):
        n, a = support(character, n_max)
        a = a.copy()
        a[entry] *= 1.001
        return n, a

    monkeypatch.setattr(maassform, "support", scaled)
    code, out = run_cli(capsys, "check-automorphy", "--disc", str(disc), "--index", "1")
    assert code == 1 and json.loads(out)["max_residual"] > 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        # 45 |c| / (2 pi sin 0.3) rows at the largest c of the matrices
        ("check-automorphy", "--disc", "68905"),  # c = 3D: 5.01e6 rows
        ("check-automorphy", "--disc", "3305", "--c", "661000", "--d", "1"),  # c = 200D: 1.60e7 rows
    ],
    ids=lambda argv: " ".join(argv[1:]),
)
def test_check_automorphy_over_row_budget_exits_3(capsys, monkeypatch, argv):
    built = []
    monkeypatch.setattr(lseries.np, "zeros", lambda *a, **k: built.append(a))
    monkeypatch.setattr(ClassGroup, "prime_classes", lambda *a: built.append(a))
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == "" and captured.err.startswith("error: a'(n) up to n = ")
    assert built == []  # refused before any table is allocated or a prime classified


@pytest.mark.parametrize("samples", [AUTOMORPHY_SAMPLE_BUDGET + 1, 10**9])
def test_check_automorphy_over_sample_budget_exits_3(capsys, monkeypatch, samples):
    assert AUTOMORPHY_SAMPLE_BUDGET >= 10

    def no_matrices(*args, **kwargs):
        raise AssertionError("sampled the matrices")

    monkeypatch.setattr(maassform, "gamma0_matrices", no_matrices)
    with pytest.raises(SystemExit) as exc:
        main(["check-automorphy", "--disc", "229", "--index", "1", "--samples", str(samples)])
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_theta_eval_command(capsys):
    code, out = run_cli(capsys, "theta-eval", "--disc", "229", "--index", "1", "--x", "0.2", "--y", "0.5")
    assert code == 0
    data = json.loads(out)
    assert abs(data["re"] - 0.00646672755076132) < 1e-12
    assert data["im"] == 0.0  # Theta is a real sum of real a'(n)
    validate(out)


@pytest.mark.parametrize("x", ["1e17", "1e12", "-3.0"])
def test_theta_eval_reduces_x_mod_1(capsys, x):
    # Theta has period 1 in x; every x here is an integer
    _, at_zero = run_cli(capsys, "theta-eval", "--disc", "229", "--index", "1", "--x", "0", "--y", "0.05")
    code, out = run_cli(capsys, "theta-eval", "--disc", "229", "--index", "1", "--x", x, "--y", "0.05")
    assert code == 0
    assert json.loads(out)["re"] == json.loads(at_zero)["re"] == 0.210563943139103


@pytest.mark.parametrize("x", [("--x", "-1e-5"), ("--x=-1e-5",)], ids=" ".join)
def test_theta_eval_takes_a_negative_x_in_exponent_form(capsys, x):
    # argparse alone reads -1e-5, unlike -0.5, as an option and leaves --x without its value
    code, out = run_cli(capsys, "theta-eval", "--disc", "229", "--index", "1", *x, "--y", "0.5")
    assert code == 0 and json.loads(out)["x"] == -1e-05
    assert json.loads(out)["re"] == 0.0208436166933524


def test_theta_eval_reports_truncation(capsys):
    code, out = run_cli(capsys, "theta-eval", "--disc", "229", "--index", "1", "--x", "0.2", "--y", "0.05")
    assert code == 0
    data = json.loads(out)
    # 45 / (2 pi 0.05) = 143.2; 41 of the a'(n), n <= 144, are nonzero
    assert (data["truncation"], data["terms"]) == (144, 41)
    assert 0 < data["tail_bound"] < 1e-17
    validate(out)


def test_check_automorphy_reports_worst_truncation(capsys):
    code, out = run_cli(capsys, "check-automorphy", "--disc", "229", "--index", "2", "--c", "229", "--d", "3")
    assert code == 0
    data = json.loads(out)
    # the points lie on the circle |229 z + 3| = 1, where Im(gamma z) = Im(z),
    # so the smallest height is sin(0.3)/229, on both sides
    y = math.sin(0.3) / 229
    assert data["truncation"] == int(45 / (2 * math.pi * y)) + 1 == 5550
    assert data["terms"] == 1224
    assert 0 < data["tail_bound"] < 1e-15
    validate(out)


def test_check_automorphy_far_from_the_origin_exits_0(capsys):
    # the points sit on the circle |cz + d| = 1 around x = -d/c = -4.4e6,
    # where (az + b)/(cz + d) cancels to about -1/c; gamma z = a/c - 1/(c (cz + d))
    # keeps every digit of Im(gamma z) = y/|cz + d|^2, so the heights are
    # those of d = 3
    code, out = run_cli(capsys, "check-automorphy", "--disc", "229", "--c", "229", "--d", "1000000001")
    assert code == 0
    data = json.loads(out)
    assert data["max_residual"] < 1e-12
    assert data["truncation"] == 5550 and data["terms"] == 1224
    validate(out)


def test_check_automorphy_past_float_resolution_exits_3(capsys):
    # near x = -d/c = -4.4e17 neighbouring floats are 64 apart, so a point
    # lands about 10^4 from -d/c and Im(gamma z) needs ~10^9 rows: refused,
    # where a cancelling Im(gamma z) <= 0 ended in a traceback
    with pytest.raises(SystemExit) as exc:
        main(["check-automorphy", "--disc", "229", "--c", "229", "--d", str(10**20 + 1)])
    captured = capsys.readouterr()
    assert exc.value.code == 3
    assert captured.out == "" and captured.err.startswith("error: a'(n) up to n = ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("c, d, code", [
    (229, 10**400 + 1, 2),        # -d/c is past the float64 range
    (229, 10**300 + 1, 3),        # Im(gamma z) underflows to 0.0
    (229 * 10**200, 1, 3),        # likewise, from c
    (229 * 10**400, 1, 3),        # c y overflows
])
def test_check_automorphy_past_float64_refuses_with_one_line(capsys, c, d, code):
    with pytest.raises(SystemExit) as exc:
        main(["check-automorphy", "--disc", "229", "--c", str(c), "--d", str(d)])
    captured = capsys.readouterr()
    assert exc.value.code == code
    assert captured.out == "" and captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def record_table_builds(monkeypatch):
    """Record the n_max of every ClassCountTable built, and for each
    ClassGroup.prime_classes call how many builds had started and whether
    it ran inside one."""
    builds, inside, classified = [], [], []
    init, prime_classes = lseries.ClassCountTable.__init__, ClassGroup.prime_classes

    def recording_init(self, classgroup, n_max):
        builds.append(n_max)
        inside.append(n_max)
        try:
            init(self, classgroup, n_max)
        finally:
            inside.pop()

    def counting_prime_classes(self, p):
        classified.append((len(builds), bool(inside)))
        return prime_classes(self, p)

    monkeypatch.setattr(lseries.ClassCountTable, "__init__", recording_init)
    monkeypatch.setattr(ClassGroup, "prime_classes", counting_prime_classes)
    return builds, classified


def test_check_automorphy_builds_its_table_in_one_extension(capsys, monkeypatch):
    builds, classified = record_table_builds(monkeypatch)
    code, out = run_cli(capsys, "check-automorphy", "--disc", "229", "--index", "1", "--samples", "2")
    assert code == 0 and json.loads(out)["truncation"] == 11100
    assert builds == [11100]
    # the primes of that table are classified together, inside its build
    assert classified == [(1, True)]


def test_table_builds_per_command(capsys, monkeypatch):
    # the traffic the table is designed for: the L(1) route asks for the
    # AFE's rows at split point 2 first, which covers split point 1's, so it
    # builds one table, and its second route, the reduced cycles, reads none;
    # reproduce 401's two characters share the table of their field;
    # check-automorphy evaluates its lowest height first, so its one table
    # has every row
    builds, _ = record_table_builds(monkeypatch)
    code, _ = run_cli(capsys, "lvalue", "--disc", "229", "--index", "2")
    assert code == 0 and builds == [265]
    builds.clear()
    code, _ = run_cli(capsys, "reproduce", "--example", "401")
    assert code == 0 and builds == [351]
    builds.clear()
    code, _ = run_cli(capsys, "check-automorphy", "--disc", "229", "--index", "1", "--samples", "2")
    assert code == 0 and builds == [11100]


def test_theta_eval_low_y_exits_0(capsys):
    # no height floor under the row budget: y = 0.01 sums 717 rows
    code, out = run_cli(capsys, "theta-eval", "--disc", "229", "--index", "1", "--x", "0", "--y", "0.01")
    assert code == 0
    data = json.loads(out)
    th = ThetaForm(heckechar.make_class_character(ClassGroup(QuadField(229)), 1))
    assert abs(data["re"] - dense_theta(th, 0.0, 0.01).real) <= data["tail_bound"] + 1e-15
    validate(out)


@pytest.mark.parametrize("y, code", [
    ("2e-6", 0),  # 45 / (2 pi y) = 3.58e6 rows, under lseries.ROW_BUDGET
    ("1.7e-6", 3),  # 4.21e6 rows
    ("5e-324", 3),  # a row count past float64
])
def test_theta_eval_heights_are_bounded_by_the_row_budget(capsys, monkeypatch, y, code):
    classified = []
    prime_classes = ClassGroup.prime_classes
    monkeypatch.setattr(ClassGroup, "prime_classes", lambda self, p: classified.append(p) or prime_classes(self, p))
    with pytest.raises(SystemExit) as exc:
        main(["theta-eval", "--disc", "229", "--index", "1", "--x", "0.2", "--y", y])
    assert exc.value.code == code
    if code:  # refused before a table is built; tests/golden/refusals.json holds its line
        assert classified == []
    else:
        assert json.loads(capsys.readouterr().out)["truncation"] == 3580987 and classified


@pytest.mark.parametrize("y", ["0", "-1"])
def test_theta_eval_nonpositive_y_exits_2(capsys, y):
    code, out = run_cli(capsys, "theta-eval", "--disc", "229", "--index", "1", "--x", "0.2", "--y", y)
    assert code == 2 and out == ""


REFUSALS = json.loads((Path(__file__).parent / "golden" / "refusals.json").read_text())


@pytest.mark.parametrize("refusal", REFUSALS, ids=lambda r: " ".join(r["argv"])[:80])
def test_refusals_are_pinned(capsys, monkeypatch, tmp_path, refusal):
    # the exit code and the stderr of each refusal are output, held to
    # their bytes as the reports are; nothing goes to stdout.  Run in
    # tmp_path, where --csv x --out x would write, and 80 columns wide, to
    # which argparse wraps the usage lines of the refusals it prints
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(refusal["argv"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (refusal["code"], "", refusal["stderr"])


def test_lvalue_command(capsys):
    code, out = run_cli(capsys, "lvalue", "--disc", "229", "--index", "1")
    assert code == 0
    data = json.loads(out)
    assert data["cutoff_agreement"] < 1e-9
    validate(out)


def test_lvalue_odd_character(capsys):
    code, out = run_cli(capsys, "lvalue", "--disc", "136", "--index", "1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - 1.6926231907031) < 1e-12
    assert data["oracle_agreement"] < 1e-9
    validate(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("field", "--disc", "229"),
        ("reproduce", "--example", "229"),
        ("reproduce", "--example", "401"),
        ("petersson", "--disc", "229", "--index", "1"),
        ("coeffs", "--disc", "229", "--n-max", "3"),
        ("theta-eval", "--disc", "229", "--x", "0.2", "--y", "0.5"),
        ("lvalue", "--disc", "229", "--index", "2"),
    ],
    ids=" ".join,
)
def test_schema_refuses_a_key_no_report_prints(capsys, argv):
    # each report's schema lists its keys: one more, at the top or in a
    # nested dict, or one misspelt, fails where it used to pass unseen
    code, out = run_cli(capsys, *argv)
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    bad = [{**report, "extra": 0.0}]
    if "tail_bound" in report:
        bad.append({("tail_bund" if k == "tail_bound" else k): v for k, v in report.items()})
    for key in ("factors", "coefficients"):
        if key in report:
            bad.append({**report, key: [{**report[key][0], "extra": 0.0}, *report[key][1:]]})
    if "unit" in report:
        bad.append({**report, "unit": {**report["unit"], "extra": 0}})
    for payload in bad:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, SCHEMA)


def test_lvalue_split_point_disagreement_exits_1(capsys, monkeypatch):
    afe, build, groups = lseries.l_value_at_1_afe, lseries.ClassCountTable.__init__, []

    def recording_build(table, classgroup, n_max):
        groups.append(classgroup)
        build(table, classgroup, n_max)

    # the real AFE, off by its split point
    monkeypatch.setattr(lseries, "l_value_at_1_afe", lambda psi, cutoff=1.0: afe(psi, cutoff) + cutoff)
    monkeypatch.setattr(lseries.ClassCountTable, "__init__", recording_build)
    with pytest.raises(SystemExit) as exc:
        main(["lvalue", "--disc", "229", "--index", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: split-point instability")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    # refused on the AFE's 265 rows, before the reduced cycles
    assert groups and groups[0].count_table.n_max == 265


def test_lvalue_disagreeing_routes_exit_1(capsys, monkeypatch):
    # the reduced cycles, off the AFE by more than ORACLE_TOL
    direct = lseries.l_value_at_1_direct
    monkeypatch.setattr(lseries, "l_value_at_1_direct", lambda psi: direct(psi) + 2 * lseries.ORACLE_TOL)
    with pytest.raises(SystemExit) as exc:
        main(["lvalue", "--disc", "229", "--index", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 1 and captured.out == ""
    assert captured.err.startswith("error: the AFE and the reduced cycles disagree on L(1)")
    assert captured.err.count("\n") == 1


def test_lvalue_of_a_large_field(capsys):
    # the Abel oracle this route replaced was off by 1.0e-3 here
    code, out = run_cli(capsys, "lvalue", "--disc", "40009", "--index", "2")
    data = json.loads(out)
    assert code == 0 and data["oracle_agreement"] <= 1e-12


def test_lvalue_of_a_field_near_the_disc_budget(capsys):
    # 225,748 reduced forms at 80 terms each; with a term count of
    # max(40, 40/x) per argument instead of F's reflection, the cycles took
    # 28.5 million terms here and were refused
    code, out = run_cli(capsys, "lvalue", "--disc", "94572769", "--index", "1")
    assert code == 0 and json.loads(out)["oracle_agreement"] <= 1e-12


def test_field_of_non_cyclic_group(capsys):
    # Q(sqrt 1105): three prime discriminant factors, so C+ has 2-rank 2
    code, out = run_cli(capsys, "field", "--disc", "1105")
    assert code == 0
    assert json.loads(out)["h_narrow"] % 4 == 0
    validate(out)


@pytest.mark.parametrize(
    "argv",
    [
        ("petersson", "--disc", "1105", "--index", "1"),
        ("lvalue", "--disc", "1105", "--index", "1"),
        ("coeffs", "--disc", "1105", "--index", "1"),
        ("theta-eval", "--disc", "1105", "--index", "1", "--x", "0.2", "--y", "0.5"),
        ("check-automorphy", "--disc", "1105", "--index", "1"),
        # out of range too: the group is refused before the index
        pytest.param(("petersson", "--disc", "777", "--index", "99"), id="petersson-777-index-99"),
    ],
    ids=lambda argv: argv[0],
)
def test_character_of_non_cyclic_group_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not cyclic" in captured.err
    assert captured.err.count("\n") == 1


def test_large_non_cyclic_group_is_refused_in_a_few_rows(capsys, monkeypatch):
    # h+ = 680: the generator search skips the classes earlier candidates
    # reached, so the refusal takes 10 rows of the group law, not 680
    rows = []
    classify = ClassGroup._ideal_classes
    monkeypatch.setattr(ClassGroup, "_ideal_classes",
                        lambda self, ideals: rows.append(len(ideals)) or classify(self, ideals))
    with pytest.raises(SystemExit) as exc:
        main(["petersson", "--disc", "95304805", "--index", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err == ("error: the narrow class group of D=95304805 is not cyclic; "
                            "class characters are indexed by a generator\n")
    assert 0 < rows.count(680) <= 16


def test_lvalue_trivial_invalid(capsys):
    code, _ = run_cli(capsys, "lvalue", "--disc", "229", "--index", "0")
    assert code == 2


def test_petersson_command(capsys):
    code, out = run_cli(capsys, "petersson", "--disc", "229", "--index", "1")
    assert code == 0
    validate(out)


def test_petersson_refuses_norm_induced(capsys):
    code, _ = run_cli(capsys, "petersson", "--disc", "40", "--index", "1")
    assert code == 2


def test_gauss_check_command(capsys):
    code, out = run_cli(capsys, "gauss-check", "--disc", "229", "--p", "13")
    assert code == 0
    assert json.loads(out)["max_residual"] < 1e-9
    validate(out)


def test_gauss_check_split_prime_invalid(capsys):
    code, _ = run_cli(capsys, "gauss-check", "--disc", "229", "--p", "3")
    assert code == 2


def test_reproduce_229(capsys):
    code, out = run_cli(capsys, "reproduce", "--example", "229")
    assert code == 0
    data = json.loads(out)
    assert data["rel_err"] < 1e-6
    validate(out)


def test_json_output_deterministic(capsys):
    _, out1 = run_cli(capsys, "field", "--disc", "229")
    _, out2 = run_cli(capsys, "field", "--disc", "229")
    assert out1 == out2
