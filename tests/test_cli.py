"""Command-line interface tests.

Exit codes are part of the contract, as are the exact text, CSV, and
JSON renderings; golden values here were produced by the library and
cross-checked against the module-level tests.
"""

import argparse
import hashlib
import itertools
import json
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import iadof.alignment
from iadof.alignment import count_text
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


# stdout sha256 of the commands that print a witness, recorded before the
# balance solver was folded into dof_upper_bound; the benchmark's sweeps
# write CSV, which has no witness column
WITNESS_OUTPUTS = {
    "sweep -M 13 -N 14 --k-min 1 --k-max 28 --json":
        "0fcccae8119ceede951eaa869429e2f08e7c096f3f240417b8acb1edbfc96768",
    "sweep -M 5 -N 2 --k-min 1 --k-max 8 --json":
        "8643e216b005af992ceeac83b32e355c0c63ac4118d9b40daf979c80201d009e",
    "bounds -M 5 -N 2 -K 4 --json":
        "61bc5d1984d55aa1aa4b889dcf33333eeef6e6e3d02da2fcc6608e8e2869d58c",
}


@pytest.mark.parametrize("command", sorted(WITNESS_OUTPUTS))
def test_witness_outputs_frozen(command, capsys):
    code, out, err = run(command.split(), capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == WITNESS_OUTPUTS[command]


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


def test_verify_is_not_a_command(capsys):
    code, out, err = run(["verify", "-K", "2", "-M", "2", "-N", "1"], capsys)
    assert code == EXIT_USAGE
    assert out == ""


def test_directions_check_failure_exit(capsys, monkeypatch):
    # every real config passes, so let own-antenna families run to gamma:
    # each stream grows from 16 to 64 directions, the arrivals' last step
    # leaves the reference family, and the union passes the exact count
    cap = iadof.alignment.stream_family_cap

    def own_to_gamma(stream, fam, gamma):
        return gamma if fam[:2] == stream[:2] else cap(stream, fam, gamma)

    monkeypatch.setattr(iadof.alignment, "stream_family_cap", own_to_gamma)
    code, out, err = run(["directions", "-K", "3", "-M", "1", "-N", "1"], capsys)
    assert code == EXIT_CHECK_FAILED
    lines = out.splitlines()
    assert lines[2] == "antenna (1,1): L_observed=64 L'_observed=112"
    assert lines[3:8] == [
        "  desired_pairwise_disjoint: pass",
        "  desired_disjoint_from_interference: pass",
        "  interference_within_reference: FAIL",
        "  l_prime_within_bound: FAIL",
        "  stream_counts_match: FAIL",
    ]
    assert out.rstrip().endswith("result: FAIL")


def test_directions_budget_exit(capsys):
    # directions is held to simulate's stack count at one row per stream,
    # not to L.  (3,1,2,3): L = 254,803,968, refused on L before, and 648
    # entries now, so it verifies
    code, out, err = run(
        ["directions", "-K", "3", "-M", "1", "-N", "2", "--gamma", "3"], capsys
    )
    assert code == EXIT_OK
    assert err == ""
    assert "closed form: L=254803968 L'=1046504043" in out
    assert out.count("L_observed=254803968 L'_observed=1046504043") == 6
    assert out.endswith("result: PASS\n")
    # (1,2,63): L = 1, verified before; 63 antennas stack 126 rows of 126
    # exponents, 1,000,188 entries
    code, out, err = run(["directions", "-K", "1", "-M", "2", "-N", "63"], capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        "error: antenna stacks would hold 1000188 exponent entries, budget is 1000000\n"
        "closed form: L=1 L'=124\n"
    )


def test_directions_past_enumeration(capsys):
    # (3,2,2,1): L = 1,048,576 directions per stream, refused on L before;
    # it is decided on boxes, not rows
    argv = ["directions", "-K", "3", "-M", "2", "-N", "2", "--json"]
    t0 = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["per_antenna"]) == 6
    for row in payload["per_antenna"]:
        assert row["L_observed"] == 2 * 1048576
        assert row["L_prime_observed"] == 10469384
        assert all(row["checks"].values())


def test_simulate_takes_no_budget(capsys):
    # the decode budget is a constant: --budget is an unknown option, as
    # it is for directions
    argv = "simulate -K 3 -M 1 -N 1 --seed 1 --snr 1e2 --budget 5000".split()
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.endswith("unrecognized arguments: --budget 5000\n")


def test_simulate_negative_seed_is_usage_error(capsys):
    # numpy's own refusal named no flag
    code, out, err = run(
        ["simulate", "-K", "2", "-M", "1", "-N", "1", "--seed", "-1"], capsys
    )
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: seed must be >= 0, got -1\n"


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


def test_simulate_json_reports_directions_kept(capsys):
    # at K = 2 every stream holds L = 2 directions, so a larger cap keeps
    # those two and prints what --cap 2 prints
    argv = ["simulate", "-K", "2", "-M", "1", "-N", "1", "--trials", "2", "--json"]
    code, out, err = run([*argv, "--cap", "100000000"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["cap"] == 2
    assert run([*argv, "--cap", "2"], capsys) == (code, out, err)


def test_simulate_noiseless_ok(capsys):
    code, out, err = run(
        ["simulate", "-K", "2", "-M", "1", "-N", "1", "--noiseless", "--snr", "1e2"],
        capsys,
    )
    assert code == EXIT_OK
    assert out == "rho,ser,trials\n100,0,1000\n"


def test_simulate_bad_snr(capsys):
    # an empty field is refused like any other, not skipped
    for snr in ["abc", "1e2,", "1e2,,1e4"]:
        code, out, err = run(
            ["simulate", "-K", "2", "-M", "1", "-N", "1", "--snr", snr], capsys
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: cannot parse --snr {snr!r}\n"


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


def test_simulate_decodes_past_ten_million_candidates(capsys):
    # antenna (1,1) of K=3, Q=4, cap=3 has 343 desired sums and 31,213
    # interference sums, 10,706,059 candidates; antennas (2,1) and (3,1)
    # have 343 and 117,649.  No candidate list is built, so every block
    # fits the 10^7 budget; d_min and the slope stay null, their difference
    # boxes over it.
    argv = "simulate -K 3 -M 1 -N 1 --q 4 --cap 3 --seed 1 --json".split()
    code, out, err = run(argv, capsys)
    assert code == EXIT_OK
    assert err == ""
    doc = json.loads(out)
    assert doc["d_min"] is None and doc["separation_slope"] is None
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "35e00b99f07713ac8a6e2c314b2bd9cac8f0120c644da0027d4e531ecc83dffc"
    )


def test_simulate_stack_count_admits_cap_1_refuses_cap_2000(capsys):
    # L = 254,803,968 at (3,1,2,3), which the whole-box build refused (exit
    # 4).  Only the kept rows are built: each of 6 antennas stacks the kept
    # rows of 6 streams, 18 exponents a row, 648 entries a unit of cap, so
    # cap 1 runs and cap 2,000 (1,296,000 entries) is refused before any
    # row is built
    argv = ["simulate", "-K", "3", "-M", "1", "-N", "2", "--gamma", "3"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_OK
    assert out == (
        "rho,ser,trials\n"
        "100,0.594333333333,1000\n"
        "10000,0.515833333333,1000\n"
        "1000000,0.163833333333,1000\n"
    )
    code, out, err = run(argv + ["--cap", "2000"], capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        "error: antenna stacks would hold 1296000 exponent entries, budget is 1000000\n"
    )


def test_simulate_refuses_before_any_row_is_built(monkeypatch, capsys):
    # (10,10,10,10) at cap 1: 100 antennas stack 1,000 rows of 10,000
    # exponents each, 10^9 entries, refused from the count alone
    def walked(*args):
        raise AssertionError("a row was built past the budget")

    monkeypatch.setattr(iadof.alignment, "_stream_rows", walked)
    argv = ["simulate", "-K", "10", "-M", "10", "-N", "10", "--gamma", "10"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        "error: antenna stacks would hold 1000000000 exponent entries, budget is 1000000\n"
    )


def test_simulate_past_the_old_stream_budget_keeps_memory_small(capsys):
    # (3,2,2,1): L = 1,048,576, so one whole stream set would be an int64
    # matrix of 288 MiB.  Its cap-1 rows decode in about 8 MiB (tracemalloc
    # peak, warm imports); the whole-box build refused it with exit 4
    import iadof.simulate  # noqa: F401  (warm: imports are not measured)

    argv = "simulate -K 3 -M 2 -N 2 --cap 1 --trials 100 --noiseless --snr 1e2".split()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert capsys.readouterr().out == "rho,ser,trials\n100,0,100\n"
    assert peak < 32 * 2**20


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit on int to decimal conversion, 4300
    digits, whatever the environment set."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_count_text_past_decimal_limit(default_digit_limit):
    assert count_text(10**4299) == "1" + "0" * 4299
    assert count_text(1 << 20000) == "2^20000"
    assert count_text((1 << 20000) + 1) == "more than 2^20000"


@pytest.mark.parametrize("command", ["directions", "simulate"])
def test_refusal_past_decimal_limit_exits_budget(command, default_digit_limit, capsys):
    # L at (10,10,10,10) has over 9,000 decimal digits: the refusal used to
    # fail formatting it and exit 2.  Both commands count the kept rows'
    # exponent entries, 10^9 at one row per stream, and directions adds the
    # closed-form counts
    argv = [command, "-K", "10", "-M", "10", "-N", "10", "--gamma", "10"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    refusal = "error: antenna stacks would hold 1000000000 exponent entries, budget is 1000000\n"
    if command == "directions":
        assert err == refusal + "closed form: L=more than 2^31152 L'=more than 2^31162\n"
    else:
        assert err == refusal


def test_directions_json_past_decimal_limit_is_usage_error(default_digit_limit, tmp_path, capsys):
    # at gamma = 10^3000 the counts pass the decimal limit: the text report
    # prints them as "more than 2^B", which the JSON schema has no form for
    argv = ["directions", "-K", "2", "-M", "1", "-N", "1", "--gamma", "1" + "0" * 3000]
    out_file = tmp_path / "report.json"
    for extra in (["--json"], ["--json", "--out", str(out_file)]):
        code, out, err = run(argv + extra, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "error: --json cannot carry a count of more than 2^19931, past the limit"
            " on int to decimal conversion; the text report prints it\n"
        )
    assert not out_file.exists()
    code, out, err = run(argv, capsys)
    assert code == EXIT_OK
    assert "L'_observed=more than 2^19931" in out


def test_directions_refuses_before_any_box_is_formed(monkeypatch, default_digit_limit, capsys):
    # the same count as simulate's, from the config alone
    def formed(*args):
        raise AssertionError("a box was formed past the budget")

    for name in ["_Source", "_reach", "_union_size", "_meets", "stream_family_cap"]:
        monkeypatch.setattr(iadof.alignment, name, formed)
    argv = ["directions", "-K", "10", "-M", "10", "-N", "10", "--gamma", "10"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.splitlines()[1] == "closed form: L=more than 2^31152 L'=more than 2^31162"


def test_simulate_past_the_old_degree_limit_runs(capsys):
    # the stream box corner has total degree 2 * 599,999, which the
    # whole-box build refused as a usage error (exit 2); the kept row at cap
    # 1 is the unit, so the command runs.  A kept row's degree grows with
    # the cap, not with gamma; the limit itself is tested on the stacks
    # (test_plan_degree_limit_matches_stack_check)
    argv = ["simulate", "-K", "1", "-M", "1", "-N", "2", "--gamma", "600000"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_OK
    assert err == ""
    assert out == "rho,ser,trials\n100,0.088,1000\n10000,0,1000\n1000000,0,1000\n"


def test_simulate_huge_q_refused_before_stream_powers(capsys):
    # Q = 10^160: the decode budget refuses it before the stream powers
    # are computed, whose symbol variance would pass the float range
    q = str(10**160)
    argv = ["simulate", "-K", "3", "-M", "1", "-N", "1", "--q", q]
    code, out, err = run(argv, capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: interference block needs 3999")
    assert err.endswith(", budget is 10000000\n")


def test_decode_budget_bounds_q(capsys):
    # a desired axis carries 2Q - 1 sums, so even one query at K = 1 is
    # refused past Q = 5 * 10^6, where the symbol variance is below 10^13
    argv = "simulate -K 1 -M 1 -N 1 --q 5000001 --trials 1 --snr 1e2".split()
    code, out, err = run(argv, capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == "error: desired sums times queries needs 10000001, budget is 10000000\n"


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


REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def test_direct_parse_matches_top_level_parser():
    # _parse hands a command straight to its subcommand's parser; on every
    # benchmark command that gives the top-level parser's Namespace, less
    # the subcommand name it records
    from iadof.cli import _parse, _parser

    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    assert sorted(table) == ["align_lattice", "bounds_sweep", "sim_curve", "sim_sweep"]
    commands = [c.split(" ") for rows in table.values() for c in rows]
    for argv in commands:
        assert argv[0] in _parser().commands
        want = vars(_parser().parse_args(argv))
        assert want.pop("command") == argv[0]
        assert vars(_parse(argv)) == want, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["directions", "-K", "2", "-M", "1", "-N", "1", "--bogus"],
        ["sweep", "-M", "1", "-N", "1", "--k-min", "1", "--k-max", "2", "extra"],
        ["simulate", "-K", "3", "-M", "1", "-N", "1", "--q", "x"],
        ["bogus"],
        [],
        ["--json", "bounds", "-M", "1", "-N", "1", "-K", "1"],
        ["simulate", "-h"],
    ],
)
def test_usage_errors_match_top_level_parser(argv, capsys):
    # main()'s exit code, stdout and stderr on a line that stops at parsing
    # are the top-level parser's, byte for byte
    from iadof.cli import _parser

    with pytest.raises(SystemExit) as exc:
        _parser().parse_args(argv)
    want = (exc.value.code, *capsys.readouterr())
    assert run(argv, capsys) == want
    assert want[0] == (EXIT_OK if "-h" in argv else EXIT_USAGE)


def test_main_parses_a_command_once(monkeypatch, capsys):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    code, out, _ = run(["directions", "-K", "2", "-M", "1", "-N", "1", "--json"], capsys)
    assert code == EXIT_OK and json.loads(out)["pass"]
    assert calls == ["iadof directions"]


def test_json_nan_is_null_at_the_source():
    # SimResult writes a NaN d_min or slope as None, and _json_text refuses
    # any non-finite float left rather than print Infinity or NaN
    from iadof.cli import _json_text
    from iadof.simulate import SimResult

    nan = float("nan")
    result = SimResult(
        q=2, cap=1, trials=10, d_min=nan, ser={1e2: 0.5},
        separation_slope=nan, separation_floor=-1.5, decoded_rate=0.0,
        amplitudes={1e2: 3.0},
    )
    payload = result.to_json_dict()
    assert payload["d_min"] is None and payload["separation_slope"] is None
    text = _json_text(payload)
    assert '"d_min": null' in text and '"separation_slope": null' in text
    for bad in (float("inf"), -float("inf"), nan):
        with pytest.raises(ValueError):
            _json_text({"x": bad})
        with pytest.raises(ValueError):
            _json_text({"rows": [{"x": bad}]})


def test_entry_raises_system_exit(capsys):
    from iadof.cli import entry

    with pytest.raises(SystemExit) as exc:
        entry()
    # bare invocation inherits sys.argv from pytest; usage error either way
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


# ---------------------------------------------------------------- package


def test_public_names_resolve():
    # a name dropped from the package cannot linger in its export list
    import iadof

    assert [name for name in iadof.__all__ if not hasattr(iadof, name)] == []
    assert iadof.__all__ == sorted(set(iadof.__all__))


def test_exports_are_their_defining_objects():
    # every public name loads through the package's one table
    import importlib

    import iadof

    assert iadof.__all__ == sorted(iadof._LAZY)
    assert len(iadof.__all__) == 23
    for name in iadof.__all__:
        home = importlib.import_module(f"iadof.{iadof._LAZY[name]}")
        assert getattr(iadof, name) is getattr(home, name), name


def test_unknown_export_raises_attribute_error():
    import iadof

    with pytest.raises(AttributeError, match="no_such_name"):
        iadof.no_such_name


def test_readme_cites_only_names_that_exist():
    # every `name(` the README cites, dotted or not, and every code span that
    # is a constant (`SLOPE_Q`), a private name (`_kept_draw`) or a class
    # attribute (`DecodeTable.label`) is an attribute of some iadof
    # module, so the docs cannot keep naming a deleted one.  A dataclass
    # field counts, though a field without a default is no class attribute.
    # A lower-case dotted span (`plan.streams`, `np.lexsort`) is resolved
    # from its first name: `np`, `iadof`, or a name the README's `## Library`
    # block binds.  File names (`directions.py`, `BENCH_31.json`) are not names.
    import dataclasses
    import importlib
    import pkgutil

    import numpy as np

    import iadof

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cited = set(re.findall(r"`([A-Za-z_][\w.]*)\(", readme)) - {"sorted", "searchsorted"}
    files = r".*\.(py|toml|md|json)"
    spans = {s for s in re.findall(r"`([A-Za-z_][\w.]*)`", readme) if not re.fullmatch(files, s)}
    named = {s for s in spans if re.fullmatch(r"[A-Z][A-Z0-9_]+|_\w+|[A-Z]\w*\.\w+", s)}
    dotted = {s for s in spans if re.fullmatch(r"[a-z]\w*(\.\w+)+", s)}
    modules = [iadof] + [
        importlib.import_module(f"iadof.{m.name}") for m in pkgutil.iter_modules(iadof.__path__)
    ]
    roots = {"np": np, "iadof": iadof, **readme_library_namespace()}

    def lookup(obj, name):
        for part in name.split("."):
            fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
            obj = next((f for f in fields if f.name == part), None) or getattr(obj, part, None)
        return obj

    def resolves(name):
        return any(lookup(module, name) is not None for module in modules)

    def resolves_from_root(name):
        root, rest = name.split(".", 1)
        return root in roots and lookup(roots[root], rest) is not None

    assert cited
    assert {"SLOPE_Q", "_kept_draw", "DecodeTable.label"} <= named
    assert {"plan.streams", "np.lexsort", "iadof.run_link_sim"} <= dotted
    assert not {"directions.py", "pyproject.toml", "BENCH_31.json"} & (named | dotted)
    assert sorted(name for name in cited | named if not resolves(name)) == []
    assert sorted(name for name in dotted if not resolves_from_root(name)) == []


def test_readme_cli_transcripts(capsys):
    # every ```text block of the README that opens with `$ iadof ...` runs
    # as written: its other lines are the leading lines of the command's
    # stdout, up to a line that is just "..."
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [
        b.splitlines()
        for b in re.findall(r"```text\n(.*?)```", readme, re.S)
        if b.startswith("$ iadof ")
    ]
    assert len(blocks) == 4
    for command, *lines in blocks:
        main(shlex.split(command[len("$ iadof ") :]))
        shown = list(itertools.takewhile(lambda line: line.strip() != "...", lines))
        out = capsys.readouterr().out.splitlines()
        assert out[: len(shown)] == shown, command


def readme_library_namespace():
    """The names the README's `## Library` block binds, run as written."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    return namespace


def test_readme_library_example():
    # the README's `## Library` block runs as written, asserts included
    namespace = readme_library_namespace()
    assert len(namespace["plan"].streams[(1, 1, 1)]) == 2
    assert set(namespace["result"].ser) == {1e2, 1e6}


# The numpy-backed modules: none may load with the package, the CLI or the
# bound commands.
HEAVY_MODULES = (
    "numpy",
    "iadof._kernels",
    "iadof.alignment",
    "iadof.channel",
    "iadof.directions",
    "iadof.simulate",
)


def _modules_after(code):
    """Names in sys.modules once a fresh interpreter has run `code`."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    res = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return set(json.loads(res.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "code",
    [
        "import iadof",
        "import iadof; assert set(iadof.__all__) <= set(dir(iadof))",
        "import iadof.cli",
        "from iadof.cli import main; assert main('bounds -M 5 -N 2 -K 4'.split()) == 0",
        "from iadof.cli import main; assert main('sweep -M 3 -N 2 --k-min 1 --k-max 6'.split()) == 0",
    ],
)
def test_numpy_layers_not_loaded(code):
    assert _modules_after(code).isdisjoint(HEAVY_MODULES)


def test_cli_loads_no_layer():
    # the bound commands import the bounds layer, with fractions and
    # decimal, when they run, not with the CLI
    loaded = _modules_after("import iadof.cli")
    assert loaded.isdisjoint({"iadof.bounds", "fractions", "decimal"})


def test_directions_loads_no_simulator():
    loaded = _modules_after(
        "from iadof.cli import main\n"
        "assert main('directions -K 3 -M 1 -N 1 --json'.split()) == 0"
    )
    assert "iadof.alignment" in loaded
    assert loaded.isdisjoint({"iadof.simulate", "iadof._kernels"})


@pytest.mark.parametrize(
    "argv",
    [
        "directions -K 3 -M 1 -N 1 --json",
        "simulate -K 3 -M 1 -N 1 --trials 50 --snr 1e2,1e6 --json",
    ],
)
def test_numpy_commands_load_no_fractions(argv):
    # only the bound layer and the finite-gamma DoF, which no such command
    # prints, use Fraction
    loaded = _modules_after(f"from iadof.cli import main\nassert main({argv.split()!r}) == 0")
    assert {"iadof.alignment", "numpy"} <= loaded
    assert loaded.isdisjoint({"fractions", "decimal"})
