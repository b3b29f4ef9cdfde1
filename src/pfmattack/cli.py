"""Command-line front end.

Subcommands:
  eval          figures of merit for one (epsilon, delta) point
  sweep         CSV over an (epsilon, delta) grid, optionally with oracle columns
  verify        Monte Carlo oracle vs closed form, PASS/FAIL at 3 sigma
  compensation  round-trip compensation residual for ideal and imperfect mirrors

Angles: epsilon is given in finite degrees (--epsilon-deg), delta and channel
angles accept 'pi' or 'pi/N', each with an optional sign, or a finite radian value.
Grids are comma lists or 'start:stop:count' (inclusive linspace; degrees for
epsilon, angle tokens for delta).

Every subcommand accepts '--config PATH' pointing at a key=value file whose
keys mirror the long flag names; explicit flags take precedence.

Exit codes: 0 success, 1 verification failure or a sweep with rejected points,
2 usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .attack import AttackReport, build_suboptimal_povm, evaluate
from .errors import PfmAttackError
from .mcoracle import OracleEstimate, check_run, run_oracle
from .optics import BirefringentChannel, FaradayMirror, verify_compensation
from .statespace import bb84_ensemble, build_ensemble

_PI_FRACTION = re.compile(r"^([+-]?)pi(?:/(\d+(?:\.\d+)?))?$")

BASE_COLUMNS = ("epsilon_deg", "delta_rad", "e_B", "p_succ", "lambda_0", "lambda_3", "x", "max_fiber_km")
ORACLE_COLUMNS = ("oracle_e_B", "oracle_p")


def _finite(value: float, token: str) -> float:
    """The value parsed from token; a non-finite one is a usage error."""
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{token!r} is not a finite number")
    return value


def parse_angle(token: str) -> float:
    """Parse 'pi' or 'pi/N', each with an optional sign, or a plain radian float; refuse a non-finite value."""
    text = token.strip().lower().replace(" ", "")
    m = _PI_FRACTION.match(text)
    try:
        if m:
            value = np.pi / float(m.group(2)) if m.group(2) else np.pi
            value = -value if m.group(1) == "-" else value
        else:
            value = float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse angle {token!r} (use radians or pi/N)") from None
    return _finite(value, token)


def parse_degrees(token: str) -> float:
    """Parse a plain float of degrees; refuse a non-finite value."""
    try:
        return _finite(float(token), token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse degrees {token!r}") from None


def _parse_grid(token: str, parse_value) -> list[float]:
    """Comma list of values, or 'start:stop:count' for an inclusive linspace.

    parse_value reads one value: parse_degrees or parse_angle.
    """
    text = token.strip()
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise argparse.ArgumentTypeError(f"range grid must be start:stop:count, got {token!r}")
            start, stop, count = parse_value(parts[0]), parse_value(parts[1]), int(parts[2])
            if count < 1:
                raise argparse.ArgumentTypeError("grid count must be >= 1")
            _finite(stop - start, token)  # a width that overflows would fill the grid with inf and nan
            return list(np.linspace(start, stop, count))
        return [parse_value(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse grid {token!r}") from None


def parse_angle_grid(token: str) -> list[float]:
    """Comma list of angle tokens, or 'start:stop:count' with angle-token endpoints."""
    return _parse_grid(token, parse_angle)


def parse_degree_grid(token: str) -> list[float]:
    """Comma list of degrees, or 'start:stop:count' for an inclusive linspace."""
    return _parse_grid(token, parse_degrees)


def _point_report(attack_kind: str, epsilon_deg: float, delta: float):
    """Closed-form report plus the (ensemble, strategy) pair behind it."""
    ens = bb84_ensemble(delta) if attack_kind == "remap" else build_ensemble(np.deg2rad(epsilon_deg), delta)
    strat = build_suboptimal_povm(ens)
    return evaluate(ens, strat), ens, strat


def _csv_num(value: float) -> str:
    """Deterministic cell format: scientific below 1e-3, 9 significant digits."""
    if value == 0:
        return "0"
    if abs(value) < 1e-3:
        return f"{value:.9e}"
    return f"{value:.9g}"


def _report_values(epsilon_deg: float, report: AttackReport) -> list[float]:
    """The values of BASE_COLUMNS, in order."""
    return [
        epsilon_deg, report.delta, report.qber, report.p_succ,
        report.lambda_0, report.lambda_3, report.x, report.max_fiber_km,
    ]


def _report_row(epsilon_deg: float, report: AttackReport, oracle: OracleEstimate | None = None) -> list[str]:
    values = _report_values(epsilon_deg, report)
    if not all(np.isfinite(v) for v in values):
        raise PfmAttackError(f"non-finite value in row for epsilon_deg={epsilon_deg}, delta={report.delta}")
    cells = [_csv_num(v) for v in values]
    if oracle is not None:
        # oracle cells may be nan when too few rounds were sifted
        cells += [_csv_num(oracle.qber_hat), _csv_num(oracle.p_succ_hat)]
    return cells


def _write_csv(path: str, lines: list[str]) -> None:
    """Write all lines at once; drop the partial file if the write fails."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        if os.path.exists(path):
            os.unlink(path)
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_rows(path: str) -> tuple[list[str], list[list[str]]]:
    """Read an emitted CSV back, skipping '#' comment lines. Returns (header, rows)."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        table = [row for row in reader if row]
    return table[0], table[1:]


def run_sweep(args: argparse.Namespace) -> list[str]:
    """Compute all sweep lines of the parsed `sweep` arguments in deterministic order.

    A refused point becomes a '# rejected' comment. The remap attack ignores
    epsilon, so it writes one row per delta, labelled epsilon_deg 0. With
    oracle columns, the trial count and the seed are checked before any point.
    """
    lines = [f"# pfmattack {__version__}", f"# attack={args.attack}"]
    if args.trials is not None:
        check_run(args.trials, args.seed)
        lines.append(f"# oracle trials={args.trials} seed={args.seed} (row seeds: seed+index)")
    if not args.reproducible:
        lines.append(f"# generated={datetime.now(timezone.utc).isoformat(timespec='seconds')}")
    columns = BASE_COLUMNS + (ORACLE_COLUMNS if args.trials is not None else ())
    lines.append(",".join(columns))
    row_index = 0
    for epsilon_deg in args.epsilon_deg if args.attack == "pfm" else [0.0]:
        for delta in args.delta:
            try:
                report, ens, strat = _point_report(args.attack, epsilon_deg, delta)
            except PfmAttackError as exc:
                lines.append(f"# rejected epsilon_deg={_csv_num(epsilon_deg)} delta_rad={_csv_num(delta)}: {exc}")
                continue
            oracle = None
            if args.trials is not None:
                oracle = run_oracle(ens, strat, args.trials, args.seed + row_index)
            lines.append(",".join(_report_row(epsilon_deg, report, oracle)))
            row_index += 1
    return lines


def cmd_eval(args) -> int:
    report, _, _ = _point_report(args.attack, args.epsilon_deg, args.delta)
    epsilon_deg = args.epsilon_deg if args.attack == "pfm" else 0.0
    for key, value in zip(BASE_COLUMNS, _report_values(epsilon_deg, report)):
        print(f"{key:<13} {value:.6g}")
    if args.out:
        _write_csv(args.out, [",".join(BASE_COLUMNS), ",".join(_report_row(epsilon_deg, report))])
    return 0


def cmd_sweep(args) -> int:
    if not args.epsilon_deg or not args.delta:
        raise PfmAttackError("epsilon and delta grids must be non-empty")
    lines = run_sweep(args)
    _write_csv(args.out, lines)
    return 1 if any(line.startswith("# rejected") for line in lines) else 0


def cmd_verify(args) -> int:
    report, ens, strat = _point_report(args.attack, args.epsilon_deg, args.delta)
    estimate = run_oracle(ens, strat, args.trials, args.seed)
    print(f"closed form   e_B={report.qber:.6g}  p_succ={report.p_succ:.6g}")
    print(
        f"oracle        e_B={estimate.qber_hat:.6g} (stderr {estimate.stderr_qber:.3g}, "
        f"n_sifted={estimate.n_sifted})  p_succ={estimate.p_succ_hat:.6g} "
        f"(stderr {estimate.stderr_p_succ:.3g})  seed={estimate.rng_seed}"
    )
    # the stderr comes from the closed-form value under test, so a count of 0 where it predicts ~0 is no failure
    all_pass = True
    for name, closed, hat, n in (
        ("e_B", report.qber, estimate.qber_hat, estimate.n_sifted),
        ("p_succ", report.p_succ, estimate.p_succ_hat, estimate.n_trials),
    ):
        if n == 0:
            print(f"{name} unresolved (0 sifted rounds)")
            continue
        dev = abs(hat - closed)
        stderr = np.sqrt(closed * (1 - closed) / n)
        ok = bool(dev <= 3 * stderr)
        all_pass &= ok
        print(f"{name:<7} |deviation| = {dev / stderr:.2f} sigma  {'PASS' if ok else 'FAIL'}")
    print(f"overall {'PASS' if all_pass else 'FAIL'}")
    return 0 if all_pass else 1


def cmd_compensation(args) -> int:
    channel = BirefringentChannel(theta_prime=args.theta_prime, phi_o=args.phi_o, phi_e=args.phi_e)
    ideal = verify_compensation(channel, FaradayMirror(0.0))
    actual = verify_compensation(channel, FaradayMirror(np.deg2rad(args.epsilon_deg)))
    print(f"residual_ideal_fm     {ideal:.6g}")
    print(f"residual_epsilon_fm   {actual:.6g}  (epsilon_deg={args.epsilon_deg:.6g})")
    return 0


def _expand_config(argv: list[str]) -> list[str]:
    """Replace '--config PATH' with the flags read from the file (key=value lines).

    Expanded flags are inserted right after the subcommand so explicit
    command-line flags, which come later, win.
    """
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise PfmAttackError("--config requires a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2 :]
    if not rest:
        raise PfmAttackError("--config requires a subcommand")
    flags: list[str] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise PfmAttackError(f"{path}: expected key=value, got {line!r}")
                key, value = key.strip(), value.strip()
                if key == "reproducible":
                    if value.lower() in ("1", "true", "yes", "on"):
                        flags.append("--reproducible")
                    continue
                flags.extend([f"--{key}", value])
    except OSError as exc:
        raise PfmAttackError(f"cannot read config {path}: {exc}") from exc
    return [rest[0], *flags, *rest[1:]]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfmattack",
        description="Imperfect-Faraday-mirror attack simulator for two-way plug-and-play QKD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one (epsilon, delta) point")
    p_eval.add_argument("--epsilon-deg", type=parse_degrees, default=0.0, help="mirror deviation in degrees")
    p_eval.add_argument("--delta", type=parse_angle, required=True, help="phase step (pi/N or radians)")
    p_eval.add_argument("--attack", choices=("pfm", "remap"), default="pfm")
    p_eval.add_argument("--out", default=None, help="optional single-row CSV output path")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="grid sweep emitted as CSV")
    p_sweep.add_argument(
        "--epsilon-deg", type=parse_degree_grid, default=[0.0],
        help="epsilon grid in degrees: comma list or start:stop:count; a grid that starts with '-' takes '=', "
        "as in --epsilon-deg=-1:1:5",
    )
    p_sweep.add_argument(
        "--delta", type=parse_angle_grid, required=True,
        help="delta grid: comma list of pi/N or radians, or start:stop:count",
    )
    p_sweep.add_argument("--attack", choices=("pfm", "remap"), default="pfm")
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--trials", type=int, default=None, help="add oracle columns with this many trials per row")
    p_sweep.add_argument("--seed", type=int, default=0, help="master seed for oracle columns")
    p_sweep.add_argument("--reproducible", action="store_true", help="suppress the timestamp comment")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="Monte Carlo oracle vs closed form")
    p_verify.add_argument("--epsilon-deg", type=parse_degrees, default=0.0)
    p_verify.add_argument("--delta", type=parse_angle, required=True)
    p_verify.add_argument("--attack", choices=("pfm", "remap"), default="pfm")
    p_verify.add_argument("--trials", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=12345)
    p_verify.set_defaults(func=cmd_verify)

    p_comp = sub.add_parser("compensation", help="round-trip compensation residual")
    for flag, what in (("theta-prime", "eigenmode rotation"), ("phi-o", "o-mode phase"), ("phi-e", "e-mode phase")):
        help_text = f"{what}: radians or pi/N; a negative pi/N takes '=', as in --{flag}=-pi/4"
        p_comp.add_argument(f"--{flag}", type=parse_angle, default=0.0, help=help_text)
    p_comp.add_argument("--epsilon-deg", type=parse_degrees, default=0.0)
    p_comp.set_defaults(func=cmd_compensation)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config(argv)
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (PfmAttackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
