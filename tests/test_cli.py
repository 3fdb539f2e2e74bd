"""Command-line interface: outputs, formats, exit codes."""

from fractions import Fraction

import pytest

from conftest import F_GAP, F_IDENTITY, F_PLATEAU
from subnormforge.cli import main

F = Fraction


@pytest.fixture
def fn_file(tmp_path):
    def write(text, name="fn.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_eval_exact(fn_file, capsys):
    rc = main(["eval", "--fn", fn_file(F_GAP), "--tnorm", "halfprod",
               "--x", "1/2", "--y", "1/2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "121/576" in out


def test_eval_requires_args(fn_file):
    with pytest.raises(SystemExit):
        main(["eval", "--fn", fn_file(F_GAP), "--tnorm", "product"])


def test_classify_exit_code_no(fn_file, capsys):
    rc = main(["classify", "--fn", fn_file(F_PLATEAU), "--tnorm", "product"])
    out = capsys.readouterr().out
    assert rc == 2  # cancellative is No (among others)
    assert "t_subnorm: Yes" in out
    assert "cancellative: No" in out


def test_classify_structured(fn_file, capsys):
    rc = main(["classify", "--fn", fn_file(F_PLATEAU), "--tnorm", "product",
               "--format", "structured"])
    out = capsys.readouterr().out
    assert rc == 2
    assert "t_subnorm.status=yes" in out


def test_classify_rejects_csv_format(fn_file, capsys):
    with pytest.raises(SystemExit) as e:
        main(["classify", "--fn", fn_file(F_PLATEAU), "--tnorm", "product",
              "--format", "csv"])
    assert e.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err


def test_decompose_output(fn_file, capsys):
    main(["decompose", "--fn", fn_file(F_GAP)])
    out = capsys.readouterr().out
    assert "M=[0,1/8)∪[3/16,1]" in out
    assert "C={3/16}" in out


def test_oracle_exit_zero_on_agreement(fn_file, capsys):
    rc = main(["oracle", "--fn", fn_file(F_PLATEAU), "--tnorm", "product",
               "--grid-n", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no classifier/oracle contradictions" in out


def test_grid_csv(fn_file, capsys):
    n = 4
    main(["grid", "--fn", fn_file(F_IDENTITY), "--tnorm", "product",
          "--grid-n", str(n)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,F,F_exact"
    assert len(lines) == 1 + (n + 1) ** 2
    # spot-check the (1/2, 1/2) row
    row = [l for l in lines[1:] if l.startswith("0.500000000000,0.500000000000")]
    assert row and row[0].endswith(",1/4")


def test_grid_csv_inexact_has_no_exact_column(fn_file, capsys):
    main(["grid", "--fn", fn_file(F_IDENTITY), "--tnorm", "gen:one-minus-log",
          "--grid-n", "2"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,y,F"


def test_grid_out_file(fn_file, tmp_path, capsys):
    dest = tmp_path / "grid.csv"
    main(["grid", "--fn", fn_file(F_IDENTITY), "--tnorm", "product",
          "--grid-n", "2", "--out", str(dest)])
    capsys.readouterr()
    assert dest.read_text().startswith("x,y,F,F_exact")


def test_construct_subnorm(capsys):
    rc = main(["construct-subnorm", "--gen", "one-minus-log", "--lam", "1/2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "tnorm=lambda:one-minus-log:1/2" in out
    assert "monotone: nondecreasing" in out
    dev = float([l for l in out.splitlines()
                 if l.startswith("max_roundtrip_deviation=")][0].split("=")[1])
    assert dev <= 1e-12
    assert "warning" not in out


def test_construct_subnorm_neutral_warning(capsys):
    main(["construct-subnorm", "--gen", "neglog", "--lam", "1/2"])
    out = capsys.readouterr().out
    assert "warning" in out and "neutral element 1" in out


F_SHORT = """\
monotone: nondecreasing
segment [0,1/2] linear 1 0
"""


@pytest.mark.parametrize("argv", [
    ["eval", "--fn", "{gap}", "--tnorm", "bogus", "--x", "1/2", "--y", "1/2"],
    ["eval", "--fn", "{gap}", "--tnorm", "product", "--x", "abc", "--y", "1/2"],
    ["eval", "--fn", "{gap}", "--tnorm", "product", "--x", "2", "--y", "1/2"],
    ["classify", "--fn", "{short}", "--tnorm", "product"],
    ["classify", "--fn", "{missing}", "--tnorm", "product"],
    ["oracle", "--fn", "{gap}", "--tnorm", "product", "--grid-n", "0"],
    ["grid", "--fn", "{gap}", "--tnorm", "product", "--grid-n", "0"],
    ["grid", "--fn", "{gap}", "--tnorm", "product", "--grid-n", "-1"],
    ["eval", "--fn", "{gap}", "--tnorm", "product", "--x", "1/0", "--y", "1/2"],
    ["construct-subnorm", "--gen", "neglog", "--lam", "1/0"],
    ["eval", "--fn", "{gap}", "--tnorm", "lambda:neglog:1/0", "--x", "1/2",
     "--y", "1/2"],
], ids=["unknown-tnorm", "bad-rational", "x-outside-unit", "domain-short",
        "missing-file", "grid-n-zero", "grid-grid-n-zero", "grid-grid-n-negative",
        "x-zero-denominator", "lam-zero-denominator", "lambda-zero-denominator"])
def test_bad_input_fails_cleanly(argv, fn_file, tmp_path, capsys):
    paths = {"gap": fn_file(F_GAP), "short": fn_file(F_SHORT, "short.txt"),
             "missing": str(tmp_path / "missing.txt")}
    rc = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if "--grid-n" in argv:  # oracle and grid name the option alike
        assert lines[0].startswith("error: --grid-n must be >= 1")
