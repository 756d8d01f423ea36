import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import superbott
from superbott import cli, cohomology
from superbott.cli import build_parser, run
from superbott.partitions import Partition


def capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cohom_verify_table(capsys):
    code, out, err = capture(
        capsys,
        ["cohom", "--grass", "1,1", "--dim", "3,2", "--alpha", "[2]", "--beta", "[]", "--verify"],
    )
    assert code == 0
    assert "verified" in out
    assert "degree 0:" in out and "degree 2:" in out
    # dim Sym^2(C^{3|2}) = 13 in each of degrees 0 and 2
    assert "total dim 26" in out


def test_cohom_hypothesis_failure_exit_2(capsys):
    code, out, err = capture(
        capsys, ["cohom", "--grass", "1,1", "--dim", "2,2", "--alpha", "[2]"]
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "main theorem hypothesis not satisfied"


def test_lr_command(capsys):
    code, out, _ = capture(capsys, ["lr", "[1]", "[1]", "[2]"])
    assert code == 0
    assert out.strip() == "1"


def test_malformed_partition_exit_1(capsys):
    code, _, err = capture(capsys, ["lr", "[1", "[1]", "[2]"])
    assert code == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("[2,-1]", "parts must be nonnegative: (2, -1)"),
        ("[1,2]", "parts must be weakly decreasing: (1, 2)"),
        ("[1,x]", "not a bracketed partition: '[1,x]'"),
    ],
)
def test_partition_argument_error_names_the_fault(capsys, text, message):
    # a list of integers that is no partition says why; other text is a syntax error
    with pytest.raises(ValueError) as info:
        Partition.parse(text)
    assert str(info.value) == message
    code, _, err = capture(capsys, ["lr", "[1]", "[1]", text])
    assert code == 1
    assert f"argument nu: {message}" in err


def test_unknown_command_exit_1(capsys):
    code, _, _ = capture(capsys, ["frobnicate"])
    assert code == 1


def test_missing_required_arg_exit_1(capsys):
    code, _, _ = capture(capsys, ["cohom", "--grass", "1,1"])
    assert code == 1


def test_bad_int_pair_exit_1(capsys):
    code, _, _ = capture(capsys, ["cohom", "--grass", "1", "--dim", "3,2"])
    assert code == 1
    code, _, err = capture(capsys, ["cohom", "--grass", "1,x", "--dim", "3,2"])
    assert code == 1
    assert "expected integers" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--output", "json", "char-rational", "--alpha", "[1]", "--beta", "[1]", "--dim", "4,2"],
        ["--output", "json", "char-super", "--shape", "[2,1]", "--dim", "2,2"],
        ["--output", "json", "cohom", "--grass", "1,1", "--dim", "3,2", "--alpha", "[2]"],
        ["--output", "json", "verify", "--grass", "1,1", "--dim", "3,2", "--alpha", "[2]"],
        ["--output", "json", "e1", "--grass", "1,1", "--dim", "3,2", "--alpha", "[2]"],
        ["--output", "json", "hilbert-grass", "1", "3"],
        ["--output", "json", "hilbert-flag", "--steps", "2,1", "4,2", "--dim", "6,3"],
        ["--output", "json", "lr", "[2,1]", "[2,1]", "[3,2,1]"],
        ["--output", "json", "codim", "1", "1", "4", "1", "1"],
    ],
)
def test_json_output_round_trips(capsys, argv):
    code, out, _ = capture(capsys, argv)
    assert code == 0
    line = out.strip()
    parsed = json.loads(line)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) == line


def test_verify_exit_matches_diff_emptiness(capsys):
    # a boundary-tight bundle where the first page carries extra exact terms
    code, out, _ = capture(
        capsys,
        ["--output", "json", "verify", "--grass", "1,1", "--dim", "4,2", "--alpha", "[1,1]"],
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["matches"] is False
    assert payload["diffs"]


def test_e1_reports_nondegeneracy_flag(capsys):
    code, out, _ = capture(
        capsys,
        ["--output", "json", "e1", "--grass", "1,1", "--dim", "2,2", "--alpha", "[2]"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "none"
    assert payload["possibly_nondegenerate"] is True
    # alpha too long for the quotient: the table says the page is zero
    code, out, _ = capture(capsys, ["e1", "--grass", "1,0", "--dim", "1,0", "--alpha", "[1,1]"])
    assert code == 0
    assert out.strip() == "zero"


def test_hilbert_grass_table(capsys):
    code, out, _ = capture(capsys, ["hilbert-grass", "1", "3"])
    assert code == 0
    assert out.strip() == "1 + t^2 + t^4"


def test_hilbert_grass_large_rank(capsys):
    code, out, _ = capture(capsys, ["hilbert-grass", "1", "200"])
    assert code == 0
    assert out.strip() == " + ".join(["1"] + [f"t^{2 * k}" for k in range(1, 200)])


def test_hilbert_grass_bad_range_exit_1(capsys):
    code, _, err = capture(capsys, ["hilbert-grass", "3", "2"])
    assert code == 1


def test_hilbert_flag_chain_failure_exit_2(capsys):
    code, _, err = capture(
        capsys, ["hilbert-flag", "--steps", "1,1", "2,3", "--dim", "3,3"]
    )
    assert code == 2
    payload = json.loads(err)
    assert "chain condition" in payload["error"]


def test_codim_precondition_exit_2(capsys):
    code, _, err = capture(capsys, ["codim", "2", "2", "3", "0", "0"])
    assert code == 2
    assert "complete intersection" in json.loads(err)["error"]


def test_char_rational_precondition_exit_2(capsys):
    code, _, err = capture(
        capsys, ["char-rational", "--alpha", "[2,1]", "--beta", "[1,1]", "--dim", "2,1"]
    )
    assert code == 2


@pytest.mark.parametrize("dim,alpha,code", [("3,2", "[2]", 0), ("4,2", "[1,1]", 2)])
def test_cohom_verify_json_is_one_object(capsys, dim, alpha, code):
    bundle = ["--grass", "1,1", "--dim", dim, "--alpha", alpha]
    got, out, _ = capture(capsys, ["--output", "json", "cohom", *bundle, "--verify"])
    assert got == code
    payload = json.loads(out)
    assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == out
    report = json.loads(capture(capsys, ["--output", "json", "verify", *bundle])[1])
    assert {key: payload.pop(key) for key in ("matches", "diffs")} == report
    if code == 0:
        assert payload == json.loads(capture(capsys, ["--output", "json", "cohom", *bundle])[1])
    else:
        assert payload == {}


@pytest.mark.parametrize("dim,alpha,code", [("3,2", "[2]", 0), ("4,2", "[1,1]", 2)])
def test_cohom_verify_computes_the_closed_form_once(capsys, monkeypatch, dim, alpha, code):
    # one closed form serves both the cross-check and the printed result;
    # `verify` alone computes it once too
    calls = []
    closed_form = cohomology.main_theorem_char

    def counted(spec):
        calls.append(spec)
        return closed_form(spec)

    monkeypatch.setattr(cli, "main_theorem_char", counted)
    monkeypatch.setattr(cohomology, "main_theorem_char", counted)
    bundle = ["--grass", "1,1", "--dim", dim, "--alpha", alpha]
    runs = [(["cohom", *bundle, "--verify"], code), (["verify", *bundle], code), (["cohom", *bundle], 0)]
    for argv, expected in runs:
        calls.clear()
        assert capture(capsys, argv)[0] == expected
        assert len(calls) == 1, argv


def child_env():
    # the child finds the package where this process imported it from
    src = str(Path(superbott.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    return subprocess.run(
        [sys.executable, "-m", *argv], capture_output=True, text=True, env=child_env()
    )


def test_console_script_entry_point():
    proc = run_module("superbott.cli", "lr", "[1]", "[1]", "[1,1]")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_package_runs_as_module():
    proc = run_module("superbott", "--output", "json", "lr", "[2,1]", "[2,1]", "[3,2,1]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '{"value":2}'


def test_long_shapes_and_large_ranks_exit_0():
    # the skew LR search walks its cells in a loop, so 1000 cells are fine
    proc = run_module("superbott", "lr", "[]", "[1000]", "[1000]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"
    # the strip search of LR products is a loop too: the odd side multiplies
    # a 999-row column on GL(1000); the traceless part of C^(1|1000) x its
    # dual has total dim 1001^2 - 1.  Weyl dimensions go by runs of equal
    # entries, so rank 1000 on either side is quick.
    for dim, total in (("1,1000", "1002000"), ("1000,0", "999999")):
        argv = ["--output", "json", "char-rational", "--alpha", "[1]", "--beta", "[1]"]
        proc = run_module("superbott", *argv, "--dim", dim)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["total_dim"] == total


def test_char_rational_at_odd_rank_10000(capsys):
    # the GL(10000) weights of the odd side end in 9,999 zeros, which the
    # partition constructor strips in one slice; the traceless
    # part of C^(1|10000) x its dual has total dim 10001^2 - 1
    argv = ["--output", "json", "char-rational", "--alpha", "[1]", "--beta", "[1]", "--dim", "1,10000"]
    code, out, _ = capture(capsys, argv)
    assert code == 0
    assert json.loads(out)["total_dim"] == "100020000"


def test_closed_stdout_ends_without_traceback():
    # as in `superbott ... | head -c 100`, but with the reader gone before
    # the first write, so the pipe breaks on every run
    argv = ["--output", "json", "char-rational", "--alpha", "[1]", "--beta", "[1]"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "superbott", *argv, "--dim", "300,0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; before = set(sys.modules); import superbott.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_char_super_on_a_1000_row_column():
    # the partition enumerations are loops, so a shape of 1000 rows is fine:
    # Lambda^1000 C^(1|1) is S^1000 of the odd line plus the even line times
    # S^999 of the odd line
    column = "[" + ",".join(["1"] * 1000) + "]"
    proc = run_module(
        "superbott", "--output", "json", "char-super", "--shape", column, "--dim", "1,1"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "m": 1,
        "n": 1,
        "terms": [
            {"mult": 1, "w0": [0], "w1": [1000]},
            {"mult": 1, "w0": [1], "w1": [999]},
        ],
        "total_dim": "2",
    }


def readme_cli_examples():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("superbott ")]


def test_readme_examples_run(capsys):
    examples = readme_cli_examples()
    assert len(examples) >= 5
    for argv in examples:
        code, _, err = capture(capsys, argv)
        assert code == 0, (argv, err)


def test_readme_examples_cover_every_subcommand():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    shown = {parser.parse_args(argv).command for argv in readme_cli_examples()}
    assert shown == set(subparsers.choices)


# sha256 of the stdout of `superbott --output json e1` on the four rungs of
# the benchmark ladder, the first two taken before the first page's Bott
# loop was reordered: the page's JSON must stay byte-identical.
E1_LADDER_PINS = [
    (
        ["--grass", "2,1", "--dim", "9,4", "--alpha", "[2,1]", "--beta", "[1]"],
        "1d6594a60bc274011e4db50b991875598dfd00f942d28d71ad9da02ec6efa7d9",
    ),
    (
        ["--grass", "3,2", "--dim", "12,6", "--alpha", "[2,1]", "--beta", "[1]"],
        "c29ee97dd8ac013b48244e1ea01d8cfbd4dd74f18e10a14a86378fcd32f07567",
    ),
    (
        ["--grass", "2,4", "--dim", "6,14", "--alpha", "[2,1]", "--beta", "[1]"],
        "fd26226d0017056fdd87cf9b5b1aacb9cadb4bcdc855b489b3e74de404de264f",
    ),
    (
        ["--grass", "4,2", "--dim", "14,6", "--alpha", "[2,2]", "--beta", "[1,1]"],
        "3eb7bbc916a45fc9aee8a613b90e782ab38337bb672f0fc82428c1a0439e41d5",
    ),
]


@pytest.mark.parametrize("args,digest", E1_LADDER_PINS)
def test_e1_json_bytes_pinned(capsys, args, digest):
    code, out, _ = capture(capsys, ["--output", "json", "e1"] + args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Every subcommand in both output modes, bundles in CASE1, CASE2 and neither,
# a `verify` mismatch and every exit-2 precondition.  Exit code, stdout and
# stderr of each invocation go into one sha256.
_BATTERY_COMMANDS = [
    ["char-rational", "--alpha", "[1]", "--beta", "[1]", "--dim", "4,2"],
    ["char-rational", "--alpha", "[2,1]", "--beta", "[1,1]", "--dim", "2,1"],
    ["char-super", "--shape", "[2,1]", "--dim", "2,2"],
    ["char-super", "--shape", "[]", "--dim", "0,0"],
    ["cohom", "--grass", "1,1", "--dim", "3,2", "--alpha", "[2]"],
    ["cohom", "--grass", "1,1", "--dim", "2,3", "--alpha", "[1,1]"],
    ["cohom", "--grass", "1,1", "--dim", "2,2", "--alpha", "[2]"],
    ["verify", "--grass", "1,1", "--dim", "3,2", "--alpha", "[2]"],
    ["verify", "--grass", "1,1", "--dim", "2,3", "--alpha", "[1,1]"],
    ["verify", "--grass", "1,1", "--dim", "4,2", "--alpha", "[1,1]"],
    ["verify", "--grass", "1,1", "--dim", "2,2", "--alpha", "[2]"],
    ["e1", "--grass", "1,1", "--dim", "3,2", "--alpha", "[2]"],
    ["e1", "--grass", "1,1", "--dim", "2,3", "--alpha", "[1,1]"],
    ["e1", "--grass", "1,1", "--dim", "2,2", "--alpha", "[2]"],
    ["hilbert-grass", "1", "3"],
    ["hilbert-grass", "3", "2"],
    ["hilbert-flag", "--steps", "2,1", "4,2", "--dim", "6,3"],
    ["hilbert-flag", "--steps", "1,1", "2,3", "--dim", "3,3"],
    ["lr", "[2,1]", "[2,1]", "[3,2,1]"],
    ["lr", "[1]", "[1]", "[3]"],
    ["codim", "1", "1", "4", "1", "1"],
    ["codim", "2", "2", "3", "0", "0"],
]
CLI_BATTERY = [
    ["--output", output, *argv] for argv in _BATTERY_COMMANDS for output in ("table", "json")
] + [
    ["cohom", "--grass", "1,1", "--dim", "3,2", "--alpha", "[2]", "--verify"],
    ["cohom", "--grass", "1,1", "--dim", "4,2", "--alpha", "[1,1]", "--verify"],
    ["cohom", "--grass", "1,1", "--dim", "2,2", "--alpha", "[2]", "--verify"],
]
# Argparse words and wraps its own messages by Python version and COLUMNS,
# so these invocations add only their exit code.
CLI_BATTERY_EXIT_ONLY = [
    [],
    ["--help"],
    ["e1", "--help"],
    ["frobnicate"],
    ["--output", "xml", "lr", "[1]", "[1]", "[2]"],
    ["lr", "[1", "[1]", "[2]"],
    ["cohom", "--grass", "1,1"],
    ["cohom", "--grass", "1", "--dim", "3,2"],
    ["codim", "1", "1", "x", "1", "1"],
]
CLI_BATTERY_DIGEST = "a73242c03cb175b04acb599743e9e5c6c279182892c13c9214a7193280ea3ffd"


def test_cli_battery_digest(capsys):
    digest = hashlib.sha256()
    for argv in CLI_BATTERY:
        digest.update(json.dumps([argv, *capture(capsys, argv)]).encode())
    for argv in CLI_BATTERY_EXIT_ONLY:
        digest.update(json.dumps([argv, capture(capsys, argv)[0]]).encode())
    assert digest.hexdigest() == CLI_BATTERY_DIGEST
