"""Command-line behavior: exit codes, output shapes, reproducibility."""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import circunits
from circunits import cli
from circunits.cli import main
from circunits.errors import NotIntegral


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------- #
# verify


def test_verify_single_level(capsys):
    code, out, err = run(capsys, "verify", "--n", "4")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["verdict"] == "trivial_only"
    assert data["elapsed_ms"] == 0
    assert "n=4" in err


def test_verify_default_walk(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    data = json.loads(out)
    assert [cert["n"] for cert in data] == [4, 5, 6, 7]
    assert all(cert["verdict"] == "trivial_only" for cert in data)


def test_verify_rejects_small_level(capsys):
    code, _, err = run(capsys, "verify", "--n", "3")
    assert code == 1
    assert "usage error" in err


def test_verify_large_level(capsys):
    code, out, err = run(capsys, "verify", "--n", "8")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "square-zero+linearized"
    assert data["verdict"] == "trivial_only"
    assert "exploratory" not in data and "spot_checks" not in data
    assert "method=square-zero+linearized" in err


def test_verify_explore(capsys):
    # the spot-check mode and its options are gone
    for extra in (["--explore"], ["--seed", "1"]):
        code, out, err = run(capsys, "verify", "--n", "8", *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: unrecognized arguments")


def test_verify_top_level(capsys):
    code, out, _ = run(capsys, "verify", "--n", "12")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "trivial_only"
    assert data["method"] == "square-zero+linearized"
    assert data["rank"] == 512 and data["nullity"] == 0
    assert data["exhaustive_assignments"] == 1 << 16
    assert data["exhaustive_kernel_size"] == 1


def test_verify_out_of_range_level(capsys):
    code, _, err = run(capsys, "verify", "--n", "13")
    assert code == 1
    assert "usage error" in err


def test_verify_json_file_reproducible(tmp_path, capsys):
    target = tmp_path / "cert.json"
    assert main(["verify", "--n", "5", "--json", str(target)]) == 0
    first = target.read_bytes()
    assert main(["verify", "--n", "5", "--json", str(target)]) == 0
    assert target.read_bytes() == first
    capsys.readouterr()
    data = json.loads(first)
    assert data["rank"] == 4
    assert data["odd_r_subsystem"]["full_rank"] is True


def check_json_unwritable(capsys, tmp_path, command):
    # the target is opened before the work, so nothing is computed or printed
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, command, "--n", "5", "--json", str(target))
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        f"usage error: cannot write {target}: No such file or directory"
    ]


def test_verify_json_unwritable(tmp_path, capsys):
    check_json_unwritable(capsys, tmp_path, "verify")


def test_verify_timing_flag(capsys):
    code, out, _ = run(capsys, "verify", "--n", "4", "--timing")
    assert code == 0
    assert json.loads(out)["elapsed_ms"] > 0


# ---------------------------------------------------------------------- #
# tables


def test_tables_32_golden_row(capsys):
    code, out, _ = run(capsys, "tables", "--n", "5")
    assert code == 0
    assert "0 r_1 r_2 r_3 0 r_3 r_2 r_1" in out
    assert "0 s_1 s_2 s_3 s_4 s_5 s_6 s_7 0 s_7 s_6 s_5 s_4 s_3 s_2 s_1" in out


def test_tables_json(tmp_path, capsys):
    target = tmp_path / "tables.json"
    code, out, _ = run(capsys, "tables", "--n", "4", "--json", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["r_table"] == ["0", "r_1", "0", "r_1"]
    assert len(data["s_table"]) == 8


def test_tables_json_unwritable(tmp_path, capsys):
    code, _, err = run(capsys, "tables", "--n", "4", "--json", str(tmp_path))
    assert code == 1
    assert err.splitlines() == [f"usage error: cannot write {tmp_path}: Is a directory"]


# ---------------------------------------------------------------------- #
# funnel


def test_funnel_output(capsys):
    code, out, _ = run(capsys, "funnel", "--n", "5")
    assert code == 0
    data = json.loads(out)
    assert data["partition"]["A"] == [[1, 3, 5, 7], [1, 3], [1]]
    assert data["partition"]["B"] == [[9, 11, 13], [5, 7], [3]]
    labels = [g["label"] for g in data["f_generators"]]
    assert labels[0] == "d_1^8"
    assert len(data["sqrt_over_f_generators"]) == 4
    assert data["sqrt_over_f_generators"][0]["word_text"] == "d1^4"


def test_funnel_small_level(capsys):
    code, _, err = run(capsys, "funnel", "--n", "3")
    assert code == 1
    assert "usage error" in err


def test_identities_small_level_is_one_usage_error(capsys):
    # the level gate is the library's LevelTooSmall, reported once
    code, out, err = run(capsys, "identities", "--n", "3")
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["usage error: identities need n >= 4, got 3"]


# ---------------------------------------------------------------------- #
# unit


def test_unit_gamma_vector(capsys):
    code, out, _ = run(capsys, "unit", "--n", "4", "--word", "d1^4")
    assert code == 0
    data = json.loads(out)
    assert data["word"] == "d1^4"
    assert data["gammas"][0] == "10"
    assert len(data["gammas"]) == 16


def test_unit_non_integral(capsys):
    code, out, _ = run(capsys, "unit", "--n", "4", "--word", "d1")
    assert code == 2
    data = json.loads(out)
    assert data["integral"] is False
    assert data["error"] == "NotIntegral"


def test_unit_bad_word(capsys):
    code, _, err = run(capsys, "unit", "--n", "4", "--word", "zebra")
    assert code == 1
    assert "usage error" in err


def test_unit_out_of_set_index(capsys):
    code, _, err = run(capsys, "unit", "--n", "4", "--word", "d7")
    assert code == 1


def _refusal(n, word, j):
    document = {
        "n": n,
        "word": word,
        "integral": False,
        "error": "NotIntegral",
        "detail": f"trace coefficient at x^{j} is odd; beta is not 1 mod 2",
    }
    return json.dumps(document, indent=2) + "\n"


def _no_exact_arithmetic(monkeypatch):
    def boom(word):
        raise AssertionError(f"eval_word called on {word.render()}")

    monkeypatch.setattr(cli, "eval_word", boom)


def test_unit_refuses_in_the_parity_ring(monkeypatch, capsys):
    # exact evaluation of this word took 13-16 s before its refusal
    _no_exact_arithmetic(monkeypatch)
    code, out, err = run(capsys, "unit", "--n", "11", "--word", "d1^-256 * d3^64")
    assert (code, err) == (2, "")
    assert out == _refusal(11, "d1^-256 * d3^64", 64)


def test_unit_refuses_alpha_words_in_the_parity_ring(monkeypatch, capsys):
    _no_exact_arithmetic(monkeypatch)
    code, out, _ = run(capsys, "unit", "--n", "5", "--word", "a^3 * d3^2")
    assert code == 2
    assert out == _refusal(5, "a^3 * d3^2", 0)


def test_unit_admits_minus_one_times_a_word(capsys):
    # alpha^16 = -1 at n = 5, which is 1 mod 2
    code, out, _ = run(capsys, "unit", "--n", "5", "--word", "a^16 * d1^8")
    assert code == 0
    gammas = [-553, -508, -392, -252, -133, -56, -18, -4, 0, 4, 18, 56, 133, 252, 392, 508]
    gammas += [554, 508, 392, 252, 133, 56, 18, 4, 0, -4, -18, -56, -133, -252, -392, -508]
    expected = {"n": 5, "word": "a^16 * d1^8", "gammas": [str(g) for g in gammas]}
    assert out == json.dumps(expected, indent=2) + "\n"


def test_unit_refuses_words_over_the_work_budget(monkeypatch, capsys):
    # d1^100000000000 is 1 mod 2 at n = 4 (the exponent is 0 mod 4)
    _no_exact_arithmetic(monkeypatch)
    start = time.monotonic()
    code, out, err = run(capsys, "unit", "--n", "4", "--word", "d1^100000000000")
    assert time.monotonic() - start < 1.0
    assert (code, out) == (1, "")
    assert err.startswith("usage error: word 'd1^100000000000' is too large")
    assert f"budget of {cli.MAX_WORD_BITS}" in err
    # 4 * 2052 = 8208 bits is just over the budget of 8192
    code, out, err = run(capsys, "unit", "--n", "4", "--word", "d1^2052")
    assert (code, out) == (1, "")
    assert "may need 8208 bits, over the budget of 8192" in err


# 4300 digits is the longest exponent int() parses by default; a word that
# multiplies two of them has an exponent of 4301 digits
EIGHTS, NINES = "8" * 4300, "9" * 4300


@pytest.mark.parametrize(
    "word",
    [f"d1^{EIGHTS}", f"d1^{NINES} * d1^{NINES}", f"d1^{EIGHTS} * d1^{EIGHTS}"],
    ids=["admitted", "product-refused-mod-2", "product-admitted"],
)
def test_unit_refuses_exponents_too_long_to_print(monkeypatch, capsys, word):
    _no_exact_arithmetic(monkeypatch)
    code, out, err = run(capsys, "unit", "--n", "4", "--word", word)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"usage error: bad word {word!r}: its exponents are too large"]


def test_unit_prints_exponents_up_to_the_bit_budget(monkeypatch, capsys):
    # d1^e with e odd is refused mod 2 at n = 4; 4 * e fits MAX_WORD_BITS bits
    # for e = 2^(MAX_WORD_BITS - 3) + 1 and does not for twice that
    _no_exact_arithmetic(monkeypatch)
    e = (1 << (cli.MAX_WORD_BITS - 3)) + 1
    code, out, err = run(capsys, "unit", "--n", "4", "--word", f"d1^{e}")
    assert (code, err) == (2, "")
    assert json.loads(out)["word"] == f"d1^{e}"
    code, out, err = run(capsys, "unit", "--n", "4", "--word", f"d1^{2 * e - 1}")
    assert (code, out) == (1, "")
    assert err.endswith(": its exponents are too large\n")


def test_unit_parity_and_exact_disagreement_exits_3(monkeypatch, capsys):
    def refuse(beta):
        raise NotIntegral("trace coefficient at x^1 is odd; beta is not 1 mod 2")

    monkeypatch.setattr(cli, "u_chi1", refuse)
    code, out, err = run(capsys, "unit", "--n", "4", "--word", "d1^4")
    assert (code, out) == (3, "")
    assert err.startswith("internal disagreement: u_chi1 refuses a word 1 mod 2")


# ---------------------------------------------------------------------- #
# identities


def test_identities_single_level(capsys):
    code, out, _ = run(capsys, "identities", "--n", "5")
    assert code == 0
    assert "PASS head_inverse_power" in out
    assert "PASS transport q(1,3)" in out
    assert "FAIL" not in out


def test_identities_level_four_skips_transport(capsys):
    code, out, _ = run(capsys, "identities", "--n", "4")
    assert code == 0
    assert "transport" not in out


def test_identities_json(tmp_path, capsys):
    target = tmp_path / "ident.json"
    code, _, _ = run(capsys, "identities", "--n", "5", "--json", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert data["q_power"]["all_passed"] is True
    assert data["transport"]["all_passed"] is True


def test_identities_json_unwritable(tmp_path, capsys):
    check_json_unwritable(capsys, tmp_path, "identities")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["verify", "tables"])
def test_json_write_failure_is_a_usage_error(capsys, command):
    # /dev/full opens, but writing to it fails with ENOSPC
    code, _, err = run(capsys, command, "--n", "4", "--json", "/dev/full")
    assert code == 1
    assert err.count("usage error") == 1
    assert err.splitlines()[-1] == (
        "usage error: cannot write /dev/full: No space left on device"
    )


class _BrokenStdout:
    """A stdout whose every write fails, like a closed pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


STDOUT_COMMANDS = [
    ["verify", "--n", "4"],
    ["tables", "--n", "5"],
    ["tables", "--n", "5", "--json", "{json}"],
    ["funnel", "--n", "5"],
    ["unit", "--n", "4", "--word", "d1^4"],
    ["unit", "--n", "4", "--word", "d1"],
    ["identities", "--n", "5"],
    ["identities", "--n", "5", "--json", "{json}"],
]


@pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=" ".join)
def test_stdout_write_failure_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # with --json the target opens and stays empty; the failure is stdout's
    target = tmp_path / "out.json"
    argv = [arg.format(json=target) for arg in argv]
    monkeypatch.setattr(sys, "stdout", _BrokenStdout())
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("usage error") == 1
    assert err.splitlines()[-1] == "usage error: cannot write stdout: Broken pipe"
    if "--json" in argv:
        assert target.read_text() == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_stdout_to_dev_full_exits_1_with_one_line():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "circunits", "tables", "--n", "5"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    assert result.returncode == 1
    assert result.stderr == (
        "usage error: cannot write stdout: No space left on device\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [["--help"], ["--version"], ["verify", "--help"], ["tables", "--n", "5"]],
    ids=" ".join,
)
def test_help_and_version_to_dev_full_exit_1_with_one_line(argv, buffered):
    # argparse drops a failed write of its help and version text; a
    # buffered stdout fails a second time at exit unless it is discarded
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED="" if buffered else "1")
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "circunits", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=120,
        )
    assert result.returncode == 1
    assert result.stderr == (
        "usage error: cannot write stdout: No space left on device\n"
    )


# ---------------------------------------------------------------------- #
# plumbing


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "usage error" in err


def test_versions_agree(capsys):
    """--version, __version__, a certificate's tool_version and the
    distribution's version in pyproject.toml are one string."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    with pytest.raises(SystemExit) as exited:
        main(["--version"])
    assert exited.value.code == 0
    assert capsys.readouterr().out == f"circunits {declared}\n"
    assert circunits.__version__ == declared
    code, out, _ = run(capsys, "verify", "--n", "4")
    assert code == 0 and json.loads(out)["tool_version"] == declared


def test_console_script_installed():
    """python -m circunits always, and the console script where it is on
    PATH."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    commands = [[sys.executable, "-m", "circunits"]]
    exe = shutil.which("circunits")
    if exe is not None:
        commands.append([exe])
    for command in commands:
        result = subprocess.run(
            [*command, "tables", "--n", "5"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, (command, result.stderr)
        assert "0 r_1 r_2 r_3 0 r_3 r_2 r_1" in result.stdout


_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None
from circunits.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv",
    [["verify", "--n", "5"], ["unit", "--n", "5", "--word", "d3^-2 * d5^2"]],
)
def test_runs_without_mpmath(argv):
    """The package has no runtime dependency; mpmath serves only the tests."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
