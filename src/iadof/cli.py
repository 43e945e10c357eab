"""Command-line front end: bound tables, sweeps, direction verification,
and link simulations, with deterministic CSV/JSON output.

Exit codes are contractual: 0 success, 1 verification failure, 2 usage,
3 I/O failure, 4 enumeration budget exceeded.  An input past one of the
program's fixed limits (a direction's total degree, the float range) is a
usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

# No layer loads with the CLI: `bounds` and `sweep` import the bounds layer
# (never numpy) when they run, and `directions` and `simulate` their own.
if TYPE_CHECKING:
    from .bounds import DofReport

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4

SCHEMA = "ia-dof/1"

# json.dumps builds an encoder on every call that passes an option; one kept
# encoder writes the same text.
_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)

SWEEP_COLUMNS = (
    "K",
    "achievable_total",
    "upper_total",
    "upper_per_user",
    "gj_ach",
    "gj_upper",
    "regime",
)


def _json_text(payload: dict) -> str:
    """payload as one line of JSON with sorted keys, in one pass.

    Only simulate's d_min and slope can be NaN, and SimResult.to_json_dict
    writes those as None; any non-finite float left raises ValueError, a
    usage error, rather than print a token JSON does not have.
    """
    return _JSON.encode(payload) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _render_bounds(r: DofReport) -> str:
    from .bounds import fraction_dec, fraction_str

    w = r.witness
    lines = [
        f"M={r.M} N={r.N} K={r.K}",
        f"regime: {r.regime}",
        f"achievable total: {fraction_str(r.achievable_total)}"
        f" ({fraction_dec(r.achievable_total)})",
        f"upper total: {fraction_str(r.upper_total)}"
        f" ({fraction_dec(r.upper_total)})",
        f"per-user upper: {fraction_str(r.upper_per_user)}"
        f" ({fraction_dec(r.upper_per_user)})",
        f"witness: sign={w.sign} mu={w.mu} l_min={w.l_min} l_max={w.l_max}"
        f" (l1={w.l1}, l2={w.l2})",
        f"reference achievable: {fraction_str(r.gj_achievable)}"
        f" ({fraction_dec(r.gj_achievable)})",
        f"reference upper: {fraction_str(r.gj_upper)}"
        f" ({fraction_dec(r.gj_upper)})",
    ]
    return "\n".join(lines) + "\n"


def _sweep_csv(reports: list[DofReport]) -> str:
    from .bounds import fraction_dec, fraction_str

    frac_cols = [c for c in SWEEP_COLUMNS if c not in ("K", "regime")]
    header = ",".join(SWEEP_COLUMNS) + "," + ",".join(c + "_dec" for c in frac_cols)
    lines = [header]
    for r in reports:
        vals = {
            "achievable_total": r.achievable_total,
            "upper_total": r.upper_total,
            "upper_per_user": r.upper_per_user,
            "gj_ach": r.gj_achievable,
            "gj_upper": r.gj_upper,
        }
        row = [str(r.K)] + [fraction_str(vals[c]) for c in frac_cols] + [r.regime]
        row += [fraction_dec(vals[c]) for c in frac_cols]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def cmd_bounds(args: argparse.Namespace) -> int:
    from .bounds import dof_report

    report = dof_report(args.M, args.N, args.K)
    if args.json:
        text = _json_text(
            {"schema": SCHEMA, "command": "bounds", **report.to_json_dict()}
        )
    else:
        text = _render_bounds(report)
    _emit(text, args.out)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from .bounds import dof_report

    if args.k_min < 1 or args.k_max < args.k_min:
        raise ValueError(
            f"need 1 <= k-min <= k-max, got [{args.k_min}, {args.k_max}]"
        )
    reports = [dof_report(args.M, args.N, K) for K in range(args.k_min, args.k_max + 1)]
    if args.json:
        text = _json_text(
            {
                "schema": SCHEMA,
                "command": "sweep",
                "M": args.M,
                "N": args.N,
                "rows": [r.to_json_dict() for r in reports],
            }
        )
    else:
        text = _sweep_csv(reports)
    _emit(text, args.out)
    return EXIT_OK


def _render_alignment(report, L: int, l_prime: int) -> str:
    from .alignment import count_text

    c = report.config
    lines = [
        f"K={c.K} M={c.M} N={c.N} gamma={c.gamma}",
        f"closed form: L={count_text(L)} L'={count_text(l_prime)}",
    ]
    for a in report.antennas:
        lines.append(
            f"antenna ({a.k},{a.n}): L_observed={count_text(a.l_observed)}"
            f" L'_observed={count_text(a.l_prime_observed)}"
        )
        for name, ok in a.checks.items():
            lines.append(f"  {name}: {'pass' if ok else 'FAIL'}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def cmd_directions(args: argparse.Namespace) -> int:
    from .alignment import EnumerationBudgetError, closed_form_counts, count_text, verify_alignment
    from .channel import SystemConfig

    config = SystemConfig(K=args.K, M=args.M, N=args.N, gamma=args.gamma)
    L, l_prime = closed_form_counts(config)
    try:
        report = verify_alignment(config)
    except EnumerationBudgetError as e:
        sys.stderr.write(
            f"error: {e}\nclosed form: L={count_text(L)} L'={count_text(l_prime)}\n"
        )
        return EXIT_BUDGET
    if args.json:
        try:
            text = _json_text(
                {"schema": SCHEMA, "command": "directions", **report.to_json_dict()}
            )
        except ValueError:  # json writes an int in decimal or not at all
            wide = max(max(a.l_observed, a.l_prime_observed) for a in report.antennas)
            raise ValueError(
                f"--json cannot carry a count of {count_text(wide)}, past the limit on"
                " int to decimal conversion; the text report prints it"
            ) from None
    else:
        text = _render_alignment(report, L, l_prime)
    _emit(text, args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_simulate(args: argparse.Namespace) -> int:
    from .alignment import EnumerationBudgetError
    from .channel import SystemConfig
    from .simulate import DecodeBudgetError, SimConfig, run_link_sim

    config = SystemConfig(
        K=args.K, M=args.M, N=args.N, gamma=args.gamma, Q=args.q, seed=args.seed
    )
    try:
        snr_points = tuple(float(s) for s in args.snr.split(","))
    except ValueError:
        raise ValueError(f"cannot parse --snr {args.snr!r}") from None
    sim_config = SimConfig(
        snr_points=snr_points, trials=args.trials, noiseless=args.noiseless
    )
    try:
        result = run_link_sim(config, sim_config, args.cap)
    except (EnumerationBudgetError, DecodeBudgetError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_BUDGET
    if args.json:
        text = _json_text(
            {
                "schema": SCHEMA,
                "command": "simulate",
                "config": {
                    "K": config.K,
                    "M": config.M,
                    "N": config.N,
                    "gamma": config.gamma,
                    "seed": config.seed,
                },
                **result.to_json_dict(),
            }
        )
    else:
        text = result.to_csv()
    _emit(text, args.out)
    if args.noiseless and any(s != 0.0 for s in result.ser.values()):
        sys.stderr.write("noiseless decode produced symbol errors\n")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("-K", type=int, required=True, help="number of users")
    p.add_argument("-M", type=int, required=True, help="transmit antennas per user")
    p.add_argument("-N", type=int, required=True, help="receive antennas per user")
    p.add_argument("--gamma", type=int, default=1, help="direction depth (default 1)")


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first command of the process, not at import.

    Its `commands` maps each subcommand's name to that subcommand's parser,
    the same objects the top-level parser dispatches to, so _parse can hand
    a command's arguments straight to its own parser.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON instead of text/CSV")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")

    parser = argparse.ArgumentParser(
        prog="iadof",
        description="DoF bounds, alignment direction sets, and link simulation "
        "for the K-user MxN constant interference channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", parents=[common], help="DoF bound report for one (M, N, K)")
    p.add_argument("-M", type=int, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("-K", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep", parents=[common], help="bound table over a K range (CSV)")
    p.add_argument("-M", type=int, required=True)
    p.add_argument("-N", type=int, required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "directions",
        parents=[common],
        help="count the direction sets and run alignment checks",
    )
    _add_config_flags(p)
    p.set_defaults(func=cmd_directions)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo link simulation")
    _add_config_flags(p)
    p.add_argument("--seed", type=int, default=0, help="base RNG seed (default 0)")
    p.add_argument("--q", type=int, default=2, help="symbol alphabet half-width (default 2)")
    p.add_argument("--cap", type=int, default=1, help="directions kept per stream (default 1)")
    p.add_argument("--trials", type=int, default=1000, help="Monte Carlo trials (default 1000)")
    p.add_argument(
        "--snr",
        default="1e2,1e4,1e6",
        help="comma-separated rho values (default 1e2,1e4,1e6)",
    )
    p.add_argument("--noiseless", action="store_true", help="zero noise; assert SER = 0")
    p.set_defaults(func=cmd_simulate)

    parser.commands = sub.choices
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv's Namespace, as the top-level parser gives it but for `command`.

    A line that starts with a subcommand's name is parsed once, by that
    subcommand's parser; leftover tokens are reported by the top-level
    parser, in the words and with the usage line argparse prints for them.
    Any other line (none, -h, an unknown name, an option before the
    command) goes through the top-level parser.
    """
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line (default sys.argv[1:]) and return its exit
    code; each command is parsed once (_parse)."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OverflowError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_IO


def entry() -> None:
    raise SystemExit(main())
