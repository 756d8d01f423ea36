import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import superbott
from superbott.cli import run


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


def test_unknown_command_exit_1(capsys):
    code, _, _ = capture(capsys, ["frobnicate"])
    assert code == 1


def test_missing_required_arg_exit_1(capsys):
    code, _, _ = capture(capsys, ["cohom", "--grass", "1,1"])
    assert code == 1


def test_bad_int_pair_exit_1(capsys):
    code, _, _ = capture(capsys, ["cohom", "--grass", "1", "--dim", "3,2"])
    assert code == 1


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


def test_hilbert_grass_table(capsys):
    code, out, _ = capture(capsys, ["hilbert-grass", "1", "3"])
    assert code == 0
    assert out.strip() == "1 + t^2 + t^4"


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


def run_module(*argv):
    # the child finds the package where this process imported it from
    src = str(Path(superbott.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_script_entry_point():
    proc = run_module("superbott.cli", "lr", "[1]", "[1]", "[1,1]")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


def test_package_runs_as_module():
    proc = run_module("superbott", "--output", "json", "lr", "[2,1]", "[2,1]", "[3,2,1]")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '{"value":2}'


def test_readme_examples_run(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line) for line in block.splitlines() if line.startswith("superbott ")]
    assert len(examples) >= 5
    for argv in examples:
        code, _, err = capture(capsys, argv[1:])
        assert code == 0, (argv, err)


# sha256 of the stdout of `superbott --output json e1` on two rungs of the
# benchmark ladder, taken before the first page's Bott loop was reordered:
# the page's JSON must stay byte-identical.
E1_LADDER_PINS = [
    (
        ["--grass", "2,1", "--dim", "9,4", "--alpha", "[2,1]", "--beta", "[1]"],
        "1d6594a60bc274011e4db50b991875598dfd00f942d28d71ad9da02ec6efa7d9",
    ),
    (
        ["--grass", "3,2", "--dim", "12,6", "--alpha", "[2,1]", "--beta", "[1]"],
        "c29ee97dd8ac013b48244e1ea01d8cfbd4dd74f18e10a14a86378fcd32f07567",
    ),
]


@pytest.mark.parametrize("args,digest", E1_LADDER_PINS)
def test_e1_json_bytes_pinned(capsys, args, digest):
    code, out, _ = capture(capsys, ["--output", "json", "e1"] + args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
