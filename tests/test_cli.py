"""Command-line interface tests.

Exit codes are part of the contract, as are the exact text, CSV, and
JSON renderings; golden values here were produced by the library and
cross-checked against the module-level tests.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from iadof.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA,
    main,
)

SWEEP_HEADER = (
    "K,achievable_total,upper_total,upper_per_user,gj_ach,gj_upper,regime,"
    "achievable_total_dec,upper_total_dec,upper_per_user_dec,gj_ach_dec,"
    "gj_upper_dec"
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- bounds


def test_bounds_text_golden(capsys):
    code, out, err = run(["bounds", "-M", "5", "-N", "2", "-K", "4"], capsys)
    assert code == EXIT_OK
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "M=5 N=2 K=4"
    assert lines[1] == "regime: open_gap"
    assert "achievable total: 40/7 (5.71428571429)" in lines
    assert "upper total: 6 (6)" in lines
    assert "per-user upper: 3/2 (1.5)" in lines
    assert "witness: sign=minus mu=1 l_min=1 l_max=3 (l1=1, l2=3)" in lines
    assert "reference achievable: 16/3 (5.33333333333)" in lines
    assert "reference upper: 20/3 (6.66666666667)" in lines


def test_bounds_json(capsys):
    code, out, err = run(
        ["bounds", "-M", "5", "-N", "2", "-K", "4", "--json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    assert payload["command"] == "bounds"
    assert payload["upper_per_user"] == {"num": 3, "den": 2, "decimal": "1.5"}
    assert payload["witness"]["mu"] == 1


def test_bounds_deterministic(capsys):
    a = run(["bounds", "-M", "3", "-N", "2", "-K", "5"], capsys)
    b = run(["bounds", "-M", "3", "-N", "2", "-K", "5"], capsys)
    assert a == b


def test_bounds_usage_error(capsys):
    code, out, err = run(["bounds", "-M", "0", "-N", "1", "-K", "2"], capsys)
    assert code == EXIT_USAGE
    assert "error:" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()


# -------------------------------------------------------------------- sweep


def test_sweep_csv_golden(capsys):
    code, out, err = run(
        ["sweep", "-M", "5", "-N", "2", "--k-min", "2", "--k-max", "8"], capsys
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 8
    k4 = lines[3]
    assert k4 == (
        "4,40/7,6,3/2,16/3,20/3,open_gap,"
        "5.71428571429,6,1.5,5.33333333333,6.66666666667"
    )
    # from the balanced-partition threshold on, both totals agree
    for line in lines[6:]:
        cells = line.split(",")
        assert cells[6] == "exact_large_K"
        assert cells[1] == cells[2]


def test_sweep_json(capsys):
    code, out, err = run(
        ["sweep", "-M", "2", "-N", "1", "--k-min", "1", "--k-max", "3", "--json"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "sweep"
    assert [row["K"] for row in payload["rows"]] == [1, 2, 3]


def test_sweep_bad_range(capsys):
    code, out, err = run(
        ["sweep", "-M", "2", "-N", "1", "--k-min", "3", "--k-max", "2"], capsys
    )
    assert code == EXIT_USAGE
    assert "k-min" in err


# --------------------------------------------------------------- directions


def test_directions_pass(capsys):
    code, out, err = run(
        ["directions", "-K", "3", "-M", "1", "-N", "1"], capsys
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "K=3 M=1 N=1 gamma=1"
    assert lines[1] == "closed form: L=16 L'=28"
    assert "antenna (1,1): L_observed=16 L'_observed=28" in lines
    assert lines[-1] == "result: PASS"
    assert out.count("FAIL") == 0


def test_directions_json(capsys):
    code, out, err = run(
        ["directions", "-K", "2", "-M", "1", "-N", "1", "--json"], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    assert payload["pass"] is True
    assert len(payload["per_antenna"]) == 2


def test_verify_alias_matches_directions(capsys):
    a = run(["directions", "-K", "2", "-M", "2", "-N", "1"], capsys)
    b = run(["verify", "-K", "2", "-M", "2", "-N", "1"], capsys)
    assert a == b
    assert a[0] == EXIT_OK


def test_directions_check_failure_exit(capsys, monkeypatch, overcounted_plan):
    # every real config passes, so feed the command a plan with one
    # direction too many; it must report the excess and exit nonzero
    monkeypatch.setattr(
        "iadof.cli.build_transmit_directions", lambda config, budget: overcounted_plan
    )
    code, out, err = run(["verify", "-K", "3", "-M", "1", "-N", "1"], capsys)
    assert code == EXIT_CHECK_FAILED
    assert "l_prime_within_bound: FAIL" in out
    assert out.rstrip().endswith("result: FAIL")


def test_directions_budget_exit(capsys):
    code, out, err = run(
        ["directions", "-K", "3", "-M", "1", "-N", "2", "--gamma", "3"], capsys
    )
    assert code == EXIT_BUDGET
    assert out == ""
    assert (
        "enumeration budget exceeded: 254803968 directions per stream"
        " against budget 1000000" in err
    )
    assert "closed form: L=254803968" in err


def test_directions_budget_override(capsys):
    code, out, err = run(
        ["directions", "-K", "3", "-M", "1", "-N", "1", "--budget", "4"], capsys
    )
    assert code == EXIT_BUDGET
    assert "budget 4" in err


# ----------------------------------------------------------------- simulate


def test_simulate_csv_golden(capsys):
    code, out, err = run(["simulate", "-K", "3", "-M", "1", "-N", "1"], capsys)
    assert code == EXIT_OK
    assert out == (
        "rho,ser,trials\n"
        "100,0.372666666667,1000\n"
        "10000,0.026,1000\n"
        "1000000,0.0176666666667,1000\n"
    )


def test_simulate_json(capsys):
    code, out, err = run(
        ["simulate", "-K", "3", "-M", "1", "-N", "1", "--json", "--snr", "1e2,1e6"],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["command"] == "simulate"
    assert payload["config"]["K"] == 3
    assert payload["cap"] == 1
    assert [p["rho"] for p in payload["ser"]] == [100.0, 1000000.0]
    assert payload["d_min"] == pytest.approx(0.005845734442915394, rel=1e-12)


def test_simulate_noiseless_ok(capsys):
    code, out, err = run(
        ["simulate", "-K", "2", "-M", "1", "-N", "1", "--noiseless", "--snr", "1e2"],
        capsys,
    )
    assert code == EXIT_OK
    assert out == "rho,ser,trials\n100,0,1000\n"


def test_simulate_bad_snr(capsys):
    code, out, err = run(
        ["simulate", "-K", "2", "-M", "1", "-N", "1", "--snr", "abc"], capsys
    )
    assert code == EXIT_USAGE
    assert "--snr" in err


@pytest.mark.parametrize(
    "snr", ["nan", "inf", "1e400", "1e2,1e2", "1e2,100"]
)
def test_simulate_rejects_bad_snr_values(snr, capsys):
    # a NaN used to crash the decoder, an infinity printed Infinity (not
    # JSON) and a repeated point was decoded twice but printed once
    code, out, err = run(
        ["simulate", "-K", "1", "-M", "1", "-N", "1", "--snr", snr], capsys
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert "snr points must be" in err


# stdout sha256 of `simulate <config> --json --trials 200 --snr 1e2,1e6`,
# recorded before the forward model was rebuilt on one coordinate matrix
MULTI_ANTENNA_SIMULATE = {
    "-K 2 -M 2 -N 2 --cap 1":
        "7581ec4f621c4f3cd175f5975f1e9e1aa7dbb8efbc42d194323ddd3f50ba5dcc",
    "-K 2 -M 1 -N 2 --gamma 2 --cap 2":
        "684d2af8064e1ff462cacbb2d6c1b26ed3c0ed33ab8f570e2bb885ebbbaa7fe0",
    "-K 3 -M 2 -N 1 --cap 1":
        "2a5a167b4b8a6ba7a377ca6ab3caf4620657a2b0a70f9f1ab72fe5b7084ed35b",
    "-K 2 -M 2 -N 1 --gamma 2 --cap 2 --q 3":
        "f4012bbd26115cbb47fb82ea534da874f1add1f4f1f061c89721b7522da7ee79",
}


@pytest.mark.parametrize("config", sorted(MULTI_ANTENNA_SIMULATE))
def test_simulate_multi_antenna_frozen(config, capsys):
    argv = ["simulate", *config.split(), "--json", "--trials", "200", "--snr", "1e2,1e6"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MULTI_ANTENNA_SIMULATE[config]


def test_simulate_budget_exit(capsys):
    code, out, err = run(
        ["simulate", "-K", "3", "-M", "1", "-N", "1", "--cap", "16"], capsys
    )
    assert code == EXIT_BUDGET
    assert "error:" in err


# ----------------------------------------------------------- output routing


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, err = run(
        ["bounds", "-M", "5", "-N", "2", "-K", "4", "--json"], capsys
    )
    code2, out2, err2 = run(
        [
            "bounds", "-M", "5", "-N", "2", "-K", "4", "--json",
            "--out", str(target),
        ],
        capsys,
    )
    assert code == code2 == EXIT_OK
    assert out2 == ""
    assert target.read_text() == out


def test_out_unwritable_path(capsys):
    code, out, err = run(
        [
            "bounds", "-M", "2", "-N", "1", "-K", "2",
            "--out", "/no_such_dir_iadof/x.json",
        ],
        capsys,
    )
    assert code == EXIT_IO
    assert "error:" in err


# ------------------------------------------------------------- module entry


def test_module_invocation_matches_in_process(capsys):
    code, out, err = run(["bounds", "-M", "5", "-N", "2", "-K", "4"], capsys)
    res = subprocess.run(
        [sys.executable, "-m", "iadof", "bounds", "-M", "5", "-N", "2", "-K", "4"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == code == EXIT_OK
    assert res.stdout == out


def test_cached_parser_matches_fresh_parser(capsys):
    # main() builds its parser once per process; a usage error and three
    # different commands through that one parser must each print and exit
    # as they do through a parser built for them alone
    from iadof.cli import _parser

    sequence = [
        ["bounds", "-M", "5"],
        ["directions", "-K", "2", "-M", "2", "-N", "1", "--json"],
        ["simulate", "-K", "2", "-M", "1", "-N", "1", "--trials", "50", "--snr", "1e2"],
        ["bounds", "-M", "5", "-N", "2", "-K", "4"],
    ]
    fresh = []
    for argv in sequence:
        _parser.cache_clear()
        fresh.append(run(argv, capsys)[:2])
    parser = _parser()
    shared = [run(argv, capsys)[:2] for argv in sequence]
    assert _parser() is parser
    assert shared == fresh
    assert [code for code, _ in shared] == [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK]


def test_entry_raises_system_exit(capsys):
    from iadof.cli import entry

    with pytest.raises(SystemExit) as exc:
        entry()
    # bare invocation inherits sys.argv from pytest; usage error either way
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
