import io
from contextlib import redirect_stdout

import pytest

from sumatoms import digraphs
from sumatoms.cli import main


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_group_cyclic():
    code, out = run_cli("group", "--cyclic", "6")
    assert code == 0
    assert "order 6" in out and "4" in out


def test_group_semidirect():
    code, out = run_cli("group", "--semidirect", "7", "3")
    assert code == 0
    assert "nonabelian" in out


def test_usage_errors_exit_as_input_errors():
    # argparse would exit 2, the code documented for an oracle mismatch.
    code, _ = run_cli("classify", "--cyclic", "6", "--set", "0 2 3", "--k", "2")
    assert code == 1
    assert run_cli("bogus")[0] == 1
    assert run_cli("atoms", "--cyclic", "7")[0] == 1  # --set is required
    with pytest.raises(SystemExit) as exc:
        run_cli("classify", "--help")
    assert exc.value.code == 0


def test_group_bad_file(tmp_path):
    path = tmp_path / "bad.gtf"
    path.write_text("3\n0 1 2\n1 1 1\n2 0 1\n")
    code, _ = run_cli("group", "--file", str(path))
    assert code == 1


def test_group_roundtrip_via_file(tmp_path):
    _, dump = run_cli("example", "7", "3", "--dump-gtf")
    gtf = dump[dump.index("21\n") :]
    path = tmp_path / "sd73.gtf"
    path.write_text(gtf)
    code, out = run_cli("group", "--file", str(path))
    assert code == 0 and "order 21" in out


def test_atoms_examples():
    code, out = run_cli("atoms", "--cyclic", "7", "--set", "0 1 2", "--k", "2", "--oracle")
    assert code == 0
    assert "kappa=2" in out and "{0 1}" in out and "match" in out
    code2, out2 = run_cli("atoms", "--cyclic", "6", "--set", "0 2 3", "--k", "2")
    assert code2 == 0 and "{0 3}" in out2


def test_atoms_not_separable_exit_code():
    code, _ = run_cli("atoms", "--cyclic", "5", "--set", "0 1 2 3 4", "--k", "1")
    assert code == 3


def test_classify_cases():
    code, out = run_cli("classify", "--cyclic", "7", "--set", "0 1 2")
    assert code == 0 and "CASE_I" in out
    code2, out2 = run_cli("classify", "--cyclic", "6", "--set", "0 2 3")
    assert code2 == 0 and "CASE_II" in out2
    code3, out3 = run_cli("classify", "--semidirect", "7", "3", "--example")
    assert code3 == 0 and "CASE_III" in out3


def test_example_command():
    code, out = run_cli("example", "7", "3")
    assert code == 0
    assert "15/15" in out and "CASE_III" in out
    code2, _ = run_cli("example", "5", "3")
    assert code2 == 1


def test_verify_two_coset():
    code, out = run_cli("verify", "two-coset", "--family", "sophie-germain", "--limit", "25")
    assert code == 0 and "PASS" in out


def test_verify_mann_small():
    code, out = run_cli("verify", "mann", "--max-order", "8")
    assert code == 0 and "PASS" in out


def test_verify_main_theorem_small():
    code, out = run_cli("verify", "main-theorem", "--max-order", "8")
    assert code == 0 and "PASS" in out


def test_scan():
    code, out = run_cli("scan", "--limit", "25")
    assert code == 0
    assert "23 11 253 210" in out


def test_quotient_command():
    code, out = run_cli(
        "quotient", "--semidirect", "7", "3", "--subgroup", "0 1 2", "--element", "3", "--k", "3"
    )
    assert code == 0
    assert "degree 3" in out and "certified" in out
    assert "lambda_3 = 6" in out
    assert "7 21" in out  # the dump header
    code2, _ = run_cli(
        "quotient", "--cyclic", "6", "--subgroup", "0 3", "--element", "3"
    )
    assert code2 == 3  # element inside the subgroup: precondition


def test_quotient_engine_mismatch_exit_code(monkeypatch):
    real = digraphs._flow_lambda1

    def off_by_one(graph):
        lam, sides = real(graph)
        return lam + 1, sides

    monkeypatch.setattr(digraphs, "_flow_lambda1", off_by_one)
    code, _ = run_cli(
        "quotient", "--semidirect", "7", "3", "--subgroup", "0 1 2", "--element", "3", "--k", "1"
    )
    assert code == 2


def test_machine_format_deterministic():
    _, a = run_cli("classify", "--semidirect", "7", "3", "--example", "--format", "machine")
    _, b = run_cli("classify", "--semidirect", "7", "3", "--example", "--format", "machine")
    assert a == b
    assert a.startswith("config.command classify\n")
    assert "case CASE_III" in a
    # worker count never appears in machine output
    assert "workers" not in a


def test_machine_format_worker_independent():
    _, a = run_cli("verify", "mann", "--max-order", "6", "--format", "machine", "--workers", "1")
    _, b = run_cli("verify", "mann", "--max-order", "6", "--format", "machine", "--workers", "2")
    assert a == b
