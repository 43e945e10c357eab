"""Command-line interface tests.

Exit codes are part of the contract, as are the exact text, CSV, and
JSON renderings; golden values here were produced by the library and
cross-checked against the module-level tests.
"""

import hashlib
import json
import subprocess
import sys
import time

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


def test_directions_check_failure_exit(capsys, monkeypatch):
    # every real config passes, so let own-antenna families run to gamma:
    # each stream grows from 16 to 64 directions, the arrivals' last step
    # leaves the reference family, and the union passes the exact count
    cap = iadof.alignment.stream_family_cap

    def own_to_gamma(stream, fam, gamma):
        return gamma if fam[:2] == stream[:2] else cap(stream, fam, gamma)

    monkeypatch.setattr(iadof.alignment, "stream_family_cap", own_to_gamma)
    code, out, err = run(["verify", "-K", "3", "-M", "1", "-N", "1"], capsys)
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


def test_directions_past_enumeration(capsys):
    # (3,2,2,1): L = 1,048,576 directions per stream, over the default
    # budget; with the budget raised it is decided on boxes, not rows
    argv = ["directions", "-K", "3", "-M", "2", "-N", "2"]
    t0 = time.perf_counter()
    code, out, err = run(argv + ["--budget", "2000000", "--json"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["per_antenna"]) == 6
    for row in payload["per_antenna"]:
        assert row["L_observed"] == 2 * 1048576
        assert row["L_prime_observed"] == 10469384
        assert all(row["checks"].values())
    code, out, err = run(argv, capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        "enumeration budget exceeded: 1048576 directions per stream against budget 1000000\n"
        "closed form: L=1048576 L'=10469384\n"
    )


def test_directions_budget_override(capsys):
    code, out, err = run(
        ["directions", "-K", "3", "-M", "1", "-N", "1", "--budget", "4"], capsys
    )
    assert code == EXIT_BUDGET
    assert "budget 4" in err


@pytest.mark.parametrize("command", ["directions", "simulate"])
def test_negative_budget_is_usage_error(command, capsys):
    # -5 used to be refused as an exceeded budget (exit 4); 0 still is,
    # which is how directions prints only the closed-form counts
    argv = [command, "-K", "2", "-M", "1", "-N", "1", "--budget"]
    code, out, err = run(argv + ["-5"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: budget must be >= 0, got -5\n"
    code, out, err = run(argv + ["0"], capsys)
    assert code == EXIT_BUDGET
    assert out == ""


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


def test_simulate_enumeration_budget_exit(capsys):
    # the direction build refuses before the decoder is reached
    code, out, err = run(
        ["simulate", "-K", "3", "-M", "1", "-N", "2", "--gamma", "3"], capsys
    )
    assert code == EXIT_BUDGET
    assert out == ""
    assert err == (
        "error: per-stream enumeration would produce 254803968 directions,"
        " budget is 1000000\n"
    )


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
    # fail formatting it and exit 2
    argv = [command, "-K", "10", "-M", "10", "-N", "10", "--gamma", "10"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    if command == "directions":
        assert err == (
            "enumeration budget exceeded: more than 2^31152 directions per stream"
            " against budget 1000000\n"
            "closed form: L=more than 2^31152 L'=more than 2^31162\n"
        )
    else:
        assert err == (
            "error: per-stream enumeration would produce more than 2^31152"
            " directions, budget is 1000000\n"
        )


def test_simulate_degree_limit_is_usage_error(capsys):
    # the stream box corner has total degree 2 * 599,999; this used to
    # raise out of main and exit 1
    argv = ["simulate", "-K", "1", "-M", "1", "-N", "2", "--gamma", "600000"]
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: total degree 1199998 exceeds 1000000\n"


def test_simulate_huge_q_refused_before_stream_powers(capsys):
    # Q = 10^160: the decode budget refuses it before the stream powers
    # are computed, whose symbol variance passes the float range; with the
    # budget raised past the decoder's count, that variance is refused
    q = str(10**160)
    argv = ["simulate", "-K", "3", "-M", "1", "-N", "1", "--q", q]
    code, out, err = run(argv, capsys)
    assert code == EXIT_BUDGET
    assert out == ""
    assert err.startswith("error: interference block needs 3999")
    assert err.endswith(", budget is 10000000\n")
    code, out, err = run(argv + ["--budget", str(10**1000)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"error: symbol variance at Q={q} exceeds the float range\n"


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


# ---------------------------------------------------------------- package


def test_public_names_resolve():
    # a name dropped from the package cannot linger in its export list
    import iadof

    assert [name for name in iadof.__all__ if not hasattr(iadof, name)] == []
    assert iadof.__all__ == sorted(set(iadof.__all__))


def test_exports_are_their_defining_objects():
    # bounds names load with the package, the rest through its table
    import importlib

    import iadof

    assert set(iadof._LAZY) <= set(iadof.__all__)
    for name in iadof.__all__:
        home = importlib.import_module(f"iadof.{iadof._LAZY.get(name, 'bounds')}")
        assert getattr(iadof, name) is getattr(home, name), name


def test_unknown_export_raises_attribute_error():
    import iadof

    with pytest.raises(AttributeError, match="no_such_name"):
        iadof.no_such_name


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
