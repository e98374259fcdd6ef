import argparse
import io
import shlex
from contextlib import redirect_stdout

import pytest

from sumatoms import cli, digraphs, errors
from sumatoms.cli import build_parser, main


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
    code, out = run_cli("verify", "two-coset", "--limit", "25")
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


# What each command and each verify suite reads; a parser accepts exactly these.
GROUP_SOURCE = {"--cyclic", "--dihedral", "--semidirect", "--file"}
COMMAND_OPTIONS = {
    "group": GROUP_SOURCE | {"--format", "--order-cap"},
    "atoms": GROUP_SOURCE
    | {"--set", "--k", "--oracle", "--format", "--order-cap", "--oracle-cap", "--atom-cap"},
    "classify": GROUP_SOURCE | {"--set", "--example", "--format", "--order-cap"},
    "verify": set(),
    "example": {"--dump-gtf", "--format", "--order-cap"},
    "quotient": GROUP_SOURCE | {"--subgroup", "--element", "--k", "--format", "--order-cap"},
    "scan": {"--limit", "--format", "--order-cap"},
}
SUITE_OPTIONS = {
    "main-theorem": {"--max-order", "--workers", "--format"},
    "intersection": {"--max-order", "--workers", "--format"},
    "mann": {"--max-order", "--workers", "--format"},
    "oracle": {"--max-order", "--samples", "--seed", "--workers", "--format"},
    "graph-lemmas": {"--max-order", "--format"},
    "two-coset": {"--limit", "--format"},
}


def _subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _options(parser):
    return {
        flag for a in parser._actions for flag in a.option_strings if flag not in ("-h", "--help")
    }


def test_each_parser_accepts_exactly_what_it_reads():
    commands = _subparsers(build_parser())
    assert {name: _options(p) for name, p in commands.items()} == COMMAND_OPTIONS
    suites = _subparsers(commands["verify"])
    assert {name: _options(p) for name, p in suites.items()} == SUITE_OPTIONS


@pytest.mark.parametrize(
    "argv",
    [
        "group --cyclic 6 --workers 8",
        "group --cyclic 6 --atom-cap 3",
        "group --cyclic 6 --seed 3",
        'atoms --cyclic 7 --set "0 1 2" --workers 2',
        'classify --cyclic 7 --set "0 1 2" --seed 3',
        'classify --cyclic 7 --set "0 1 2" --oracle-cap 5',
        "example 7 3 --workers 2",
        'quotient --cyclic 6 --subgroup "0 3" --element 1 --seed 1',
        "scan --limit 25 --atom-cap 3",
        "verify --max-order 6 mann",
        "verify mann --max-order 6 --order-cap 100",
        "verify graph-lemmas --workers 2",
        "verify two-coset --family sophie-germain",
        "verify two-coset --limit 12 --max-order 99 --samples 7 --workers 3",
        "verify main-theorem --seed 1",
        "verify oracle --limit 12",
    ],
)
def test_flags_a_command_does_not_read_are_usage_errors(argv):
    code, out = run_cli(*shlex.split(argv))
    assert code == 1 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        "group --cyclic 6 --order-cap 0",
        "scan --limit 25 --order-cap 0",
        'atoms --cyclic 7 --set "0 1 2" --oracle-cap 0',
        'atoms --cyclic 7 --set "0 1 2" --atom-cap 0',
        "verify mann --max-order 6 --workers 0",
        "verify oracle --max-order 6 --workers 0",
    ],
)
def test_nonpositive_workers_and_caps_are_unmet_preconditions(argv):
    code, out = run_cli(*shlex.split(argv))
    assert code == 3 and out == ""


@pytest.mark.parametrize("suite", sorted(SUITE_OPTIONS))
def test_suite_help_exits_0(suite):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", suite, "--help")
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv", ["verify mann --max-order 4 --seed 1", 'classify --cyclic 7 --set "0 1 2" --k 2']
)
def test_unrecognized_arguments_show_the_command_usage(argv, capsys):
    code, out = run_cli(*shlex.split(argv))
    err = capsys.readouterr().err
    assert code == 1 and out == ""
    command = argv.split(" --")[0]
    assert err.startswith(f"usage: sumatoms {command} [-h]")
    assert "error: unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [
        "classify --cyclic 6",
        "classify --cyclic 6 --example",
        'classify --semidirect 7 3 --example --set "0 1"',
    ],
)
def test_classify_without_exactly_one_set_source_is_a_usage_error(argv, capsys):
    code, out = run_cli(*shlex.split(argv))
    assert code == 1 and out == ""
    assert capsys.readouterr().err.startswith("usage: sumatoms classify [-h]")


@pytest.mark.parametrize(
    "argv",
    [
        'atoms --cyclic 7 --set "0 1 2" --k 0',
        'quotient --semidirect 7 3 --subgroup "0 1 2" --element 3 --k 0',
        'quotient --semidirect 7 3 --subgroup "0 1 2" --element 3 --k -2',
    ],
)
def test_nonpositive_k_is_an_unmet_precondition(argv, capsys):
    code, out = run_cli(*shlex.split(argv))
    assert code == 3 and out == ""
    assert "error: k must be positive" in capsys.readouterr().err


def test_oracle_suite_below_order_4_is_an_unmet_precondition(capsys):
    # The sampled half draws from groups of order at least 4.
    code, out = run_cli("verify", "oracle", "--max-order", "3")
    assert code == 3 and out == ""
    assert "max order 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("verify main-theorem --max-order 0", "max order 0"),
        ("verify intersection --max-order 1", "max order 1"),
        ("verify mann --max-order -5", "max order -5"),
        ("verify two-coset --limit 0", "p at most 0"),
        ("verify oracle --max-order 6 --samples -1", "samples must be positive"),
    ],
)
def test_sweep_with_nothing_to_check_is_an_unmet_precondition(argv, message, capsys):
    code, out = run_cli(*shlex.split(argv))
    assert code == 3 and out == ""
    assert message in capsys.readouterr().err


def test_oracle_refuses_groups_above_64_elements(capsys):
    # The oracle's masks are 64-bit; at order 65 it would walk 2^64 subsets.
    argv = 'atoms --cyclic 65 --set "0 1" --k 1 --oracle --oracle-cap 100'
    code, out = run_cli(*shlex.split(argv))
    assert code == 1 and out == ""
    assert "limit of 64 elements" in capsys.readouterr().err


_EXIT_CODES = {
    errors.EngineMismatchError: 2,
    errors.PreconditionError: 3,
    errors.NotSeparableError: 3,
    errors.NotGeneratingError: 3,
    errors.SumatomsError: 1,
    errors.ParseError: 1,
    errors.ValidationError: 1,
    errors.SizeCapError: 1,
    errors.OracleCapError: 1,
    errors.GroupMismatchError: 1,
    errors.GraphError: 1,
    errors.DisconnectedGraphError: 1,
    errors.GraphTooLargeError: 1,
    OSError: 1,
    FileNotFoundError: 1,
}


def test_exit_code_table_covers_every_error_class():
    declared = {
        obj
        for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.SumatomsError)
    }
    assert declared <= set(_EXIT_CODES)


@pytest.mark.parametrize(
    "exc, code", list(_EXIT_CODES.items()), ids=lambda v: getattr(v, "__name__", str(v))
)
def test_each_error_class_maps_to_its_exit_code(exc, code, monkeypatch, capsys):
    def raising(args):
        raise exc("boom")

    monkeypatch.setattr(cli, "cmd_group", raising)
    assert run_cli("group", "--cyclic", "3") == (code, "")
    assert capsys.readouterr().err == "error: boom\n"
