import argparse

import numpy as np
import pytest

from mp_reference import pfm_reference
from pfmattack import cli
from pfmattack.mcoracle import OracleEstimate


def run_cli(*argv):
    return cli.main(list(argv))


def parse_kv_output(text):
    out = {}
    for line in text.strip().splitlines():
        key, value = line.split(None, 1)
        out[key] = value.strip()
    return out


def test_parse_angle():
    assert cli.parse_angle("pi") == np.pi
    assert cli.parse_angle("pi/2") == np.pi / 2
    assert cli.parse_angle("Pi/8") == np.pi / 8
    assert cli.parse_angle("0.75") == 0.75
    assert cli.parse_angle("-pi/4") == -np.pi / 4
    assert cli.parse_angle("+pi/4") == np.pi / 4
    assert cli.parse_angle("-pi") == -np.pi
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_angle("two*pi")
    for bad in ("--pi/4", "-+pi", "pi/-4"):
        with pytest.raises(argparse.ArgumentTypeError, match="cannot parse angle"):
            cli.parse_angle(bad)


def test_parse_angle_refuses_non_finite_values(capsys):
    """A non-finite angle is a usage error, not a nan residual printed with exit 0."""
    for bad in ("nan", "-nan", "inf", "-inf", "1e400", "pi/0." + "0" * 320 + "1"):
        with pytest.raises(argparse.ArgumentTypeError, match="is not a finite number"):
            cli.parse_angle(bad)
    for argv in (("compensation", "--phi-o", "nan"), ("compensation", "--theta-prime", "1e400"),
                 ("eval", "--delta", "inf")):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "is not a finite number" in capsys.readouterr().err


def test_signed_pi_fraction_is_a_channel_angle(capsys):
    """--theta-prime=-pi/4 reads as the radian value -pi/4."""
    outputs = []
    for theta in ("-pi/4", repr(-np.pi / 4)):
        assert run_cli("compensation", f"--theta-prime={theta}", "--phi-o", "1.1", "--epsilon-deg", "1") == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert float(parse_kv_output(outputs[0])["residual_epsilon_fm"].split()[0]) > 1e-3


def test_channel_angle_help_shows_the_equals_form(monkeypatch, capsys):
    """argparse reads '--phi-o -pi/4' as two options, so each channel flag's help shows the '=' form."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        run_cli("compensation", "--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in ("theta-prime", "phi-o", "phi-e"):
        assert f"a negative pi/N takes '=', as in --{flag}=-pi/4" in out


def test_epsilon_grid_help_shows_the_equals_form(monkeypatch, capsys):
    """argparse reads '--epsilon-deg -1:1:5' as two options, so the sweep's epsilon help shows the '=' form."""
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--help")
    assert exc.value.code == 0
    assert "a grid that starts with '-' takes '=', as in --epsilon-deg=-1:1:5" in capsys.readouterr().out


def test_non_finite_degrees_are_a_usage_error(tmp_path, capsys):
    """nan or inf degrees, or a range whose width overflows, exit 2 before any point is computed."""
    for bad in ("nan", "-inf", "1e400"):
        with pytest.raises(argparse.ArgumentTypeError, match="is not a finite number"):
            cli.parse_degrees(bad)
    out = tmp_path / "sweep.csv"
    for argv in (
        ("sweep", "--epsilon-deg", "nan,1", "--delta", "pi/2", "--out", str(out)),
        ("sweep", "--epsilon-deg", "1:inf:3", "--delta", "pi/2", "--out", str(out)),
        ("sweep", "--epsilon-deg=-1e308:1e308:3", "--delta", "pi/2", "--out", str(out)),
        ("sweep", "--epsilon-deg", "1", "--delta=-1e308:1e308:3", "--out", str(out)),
        ("eval", "--epsilon-deg", "nan", "--delta", "pi/2"),
        ("verify", "--epsilon-deg", "inf", "--delta", "pi/2"),
        ("compensation", "--epsilon-deg=-inf"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "is not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_unallocatable_grid_is_a_usage_error(tmp_path, capsys):
    """numpy refuses a 10**12-point grid before allocating it; that refusal is a usage error naming the grid."""
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--epsilon-deg", "1", "--delta", f"0.1:1:{10**12}", "--out", str(out))
    assert exc.value.code == 2
    assert f"grid '0.1:1:{10**12}' has too many points to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_parse_degree_grid():
    assert cli.parse_degree_grid("0.5,1") == [0.5, 1.0]
    grid = cli.parse_degree_grid("0.1:1:10")
    assert len(grid) == 10 and grid[0] == 0.1 and grid[-1] == 1.0
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_degree_grid("1:2")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_degree_grid("a,b")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_degree_grid("0.1:1:0")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_degree_grid("0.1:1:2.5")


def test_parse_angle_grid():
    assert cli.parse_angle_grid("pi/8,pi/2") == [np.pi / 8, np.pi / 2]
    grid = cli.parse_angle_grid("0.1:pi/2:24")
    assert len(grid) == 24 and grid[0] == 0.1 and grid[-1] == np.pi / 2
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_angle_grid("0.1:pi/2")
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_angle_grid("0.1:pi/2:x")


def test_parse_angle_grid_ranges_and_lists():
    grid = cli.parse_angle_grid("0.1:pi/2:3")
    assert len(grid) == 3 and grid[0] == 0.1 and grid[-1] == np.pi / 2
    assert abs(grid[1] - (0.1 + np.pi / 2) / 2) <= 1e-15
    assert cli.parse_angle_grid("0.25, pi/8 ,pi") == [0.25, np.pi / 8, np.pi]
    for bad in ("0.1:pi/2:0", "0.1:pi/2:-2", "0.1:pi/2:1.5", "pi/8:x:3"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_angle_grid(bad)


def test_eval_anchor(capsys):
    assert run_cli("eval", "--epsilon-deg", "1", "--delta", "pi/2") == 0
    values = parse_kv_output(capsys.readouterr().out)
    assert abs(float(values["e_B"]) - 0.146447) <= 1e-5
    assert abs(float(values["p_succ"]) - 2.43298e-3) <= 1e-7
    assert abs(float(values["max_fiber_km"]) - 124.47) <= 0.01


def test_eval_small_epsilon(capsys):
    """Far below the old rank cut the figures stay exact: e_B flat, p_succ ~ 8 epsilon^2."""
    assert run_cli("eval", "--epsilon-deg", "0.0001", "--delta", "pi/2") == 0
    values = parse_kv_output(capsys.readouterr().out)
    assert values["e_B"] == "0.146447"
    assert values["p_succ"] == "2.43694e-11"


def test_eval_tiny_delta(capsys):
    """delta = 1e-4 is answered, with the 50-digit reference's e_B."""
    assert run_cli("eval", "--epsilon-deg", "1", "--delta", "0.0001") == 0
    values = parse_kv_output(capsys.readouterr().out)
    assert values["e_B"] == f"{pfm_reference(1.0, 1e-4)['qber']:.6g}"


def test_eval_065_anchor(capsys):
    assert run_cli("eval", "--epsilon-deg", "0.65", "--delta", "pi/2") == 0
    values = parse_kv_output(capsys.readouterr().out)
    assert abs(float(values["p_succ"]) - 1.029e-3) / 1.029e-3 <= 0.05


def test_eval_singular_point_exits_2(capsys):
    assert run_cli("eval", "--epsilon-deg", "0", "--delta", "pi/2") == 2
    assert "singular point" in capsys.readouterr().err


def test_eval_remap(capsys):
    assert run_cli("eval", "--attack", "remap", "--delta", "pi/4") == 0
    values = parse_kv_output(capsys.readouterr().out)
    assert abs(float(values["e_B"]) - 0.177016) <= 1e-5


def test_eval_single_row_csv(tmp_path, capsys):
    out = tmp_path / "point.csv"
    assert run_cli("eval", "--epsilon-deg", "1", "--delta", "pi/2", "--out", str(out)) == 0
    header, rows = cli.read_rows(str(out))
    assert header == list(cli.BASE_COLUMNS)
    assert len(rows) == 1
    assert abs(float(rows[0][2]) - 0.146446609) <= 1e-9


def test_sweep_degenerate_grid_single_row(tmp_path):
    out = tmp_path / "one.csv"
    assert run_cli("sweep", "--epsilon-deg", "1", "--delta", "pi/2", "--out", str(out)) == 0
    header, rows = cli.read_rows(str(out))
    assert header == list(cli.BASE_COLUMNS)
    assert len(rows) == 1


def test_sweep_rejects_zero_epsilon(tmp_path):
    out = tmp_path / "reject.csv"
    assert run_cli(
        "sweep", "--epsilon-deg", "0,1", "--delta", "pi/2", "--out", str(out), "--reproducible"
    ) == 1
    text = out.read_text()
    assert "# rejected epsilon_deg=0 delta_rad=1.57079633: epsilon = 0 is a singular point" in text
    _, rows = cli.read_rows(str(out))
    assert len(rows) == 1  # only the epsilon = 1 row survives


def test_sweep_on_default_epsilon_grid_is_not_an_empty_success(tmp_path):
    """The default epsilon grid is [0]: a pfm sweep on it refuses every point and says so."""
    out = tmp_path / "empty.csv"
    assert run_cli("sweep", "--delta", "pi/2", "--out", str(out), "--reproducible") == 1
    assert "# rejected epsilon_deg=0" in out.read_text()
    _, rows = cli.read_rows(str(out))
    assert rows == []


def test_sweep_row_ordering_is_epsilon_major(tmp_path):
    out = tmp_path / "order.csv"
    assert run_cli(
        "sweep", "--epsilon-deg", "0.5,1", "--delta", "pi/8,pi/2", "--out", str(out)
    ) == 0
    _, rows = cli.read_rows(str(out))
    eps = [float(r[0]) for r in rows]
    deltas = [float(r[1]) for r in rows]
    assert eps == [0.5, 0.5, 1.0, 1.0]
    assert deltas[0] < deltas[1] and deltas[2] < deltas[3]


def test_sweep_reproducible_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("--epsilon-deg", "0.2,0.7", "--delta", "pi/4,pi/2", "--reproducible")
    assert run_cli("sweep", *args, "--out", str(a)) == 0
    assert run_cli("sweep", *args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_round_trip(tmp_path):
    """Reparsing and reformatting every cell reproduces the file content."""
    out = tmp_path / "rt.csv"
    assert run_cli(
        "sweep", "--epsilon-deg", "0.1,0.65,1", "--delta", "pi/8,pi/3,pi/2", "--out", str(out)
    ) == 0
    _, rows = cli.read_rows(str(out))
    assert len(rows) == 9
    for row in rows:
        for cell in row:
            assert cli._csv_num(float(cell)) == cell


def test_sweep_oracle_columns(tmp_path):
    out = tmp_path / "oracle.csv"
    assert run_cli(
        "sweep", "--epsilon-deg", "1", "--delta", "pi/2", "--out", str(out),
        "--trials", "50000", "--seed", "7", "--reproducible",
    ) == 0
    header, rows = cli.read_rows(str(out))
    assert header == list(cli.BASE_COLUMNS + cli.ORACLE_COLUMNS)
    oracle_p = float(rows[0][9])
    assert abs(oracle_p - 2.43e-3) <= 1.5e-3


#: The file `sweep --epsilon-deg 0.1,1 --delta pi/2,pi/8 --trials 100000 --seed 57 --reproducible` writes.
PINNED_ORACLE_SWEEP = """\
# pfmattack 0.1.0
# attack=pfm
# oracle trials=100000 seed=57 (row seeds: seed+index)
epsilon_deg,delta_rad,e_B,p_succ,lambda_0,lambda_3,x,max_fiber_km,oracle_e_B,oracle_p
0.1,1.57079633,0.146446609,2.436899767e-05,0.146446609,0.146446609,4.873799534e-05,219.674397,0,3.000000000e-05
0.1,0.392699082,0.0356771322,5.845814454e-07,0.0356771322,0.0356771322,1.169162891e-06,296.816903,nan,0
1,1.57079633,0.146446609,0.0024329792,0.146446609,0.146446609,0.00486595839,124.4696,0.116071429,0.00223
1,0.392699082,0.0356771322,5.813466957e-05,0.0356771322,0.0356771322,1.162693391e-04,201.693562,0,3.000000000e-05
"""


def test_seeded_oracle_sweep_is_pinned(tmp_path):
    """Byte for byte: a changed closed-form cell, row seed or oracle draw shows here, which a tolerance would pass."""
    out = tmp_path / "pinned.csv"
    assert run_cli(
        "sweep", "--epsilon-deg", "0.1,1", "--delta", "pi/2,pi/8", "--out", str(out),
        "--trials", "100000", "--seed", "57", "--reproducible",
    ) == 0
    assert out.read_bytes() == PINNED_ORACLE_SWEEP.encode()


def test_sweep_remap_kind(tmp_path):
    out = tmp_path / "remap.csv"
    assert run_cli(
        "sweep", "--attack", "remap", "--delta", "pi/8,pi/4,pi/2", "--out", str(out)
    ) == 0
    _, rows = cli.read_rows(str(out))
    assert len(rows) == 3
    qbers = [float(r[2]) for r in rows]
    assert abs(qbers[1] - 0.177016) <= 1e-5
    assert abs(qbers[2] - 0.25) <= 1e-9


def test_sweep_remap_writes_one_row_per_delta(tmp_path):
    """The remap attack ignores epsilon: an epsilon grid gives the same file as none, rows labelled 0."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("sweep", "--attack", "remap", "--delta", "pi/4", "--reproducible", "--out")
    assert run_cli(*args, str(a), "--epsilon-deg", "0.5,1") == 0
    assert run_cli(*args, str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    _, rows = cli.read_rows(str(a))
    assert [r[0] for r in rows] == ["0"]


def test_sweep_rejected_point_does_not_abort(tmp_path):
    """A refused point becomes a '# rejected' line with its reason; the sweep writes the rest and exits 1."""
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--epsilon-deg", "1", "--delta", "0,0.1", "--out", str(out)) == 1
    rejected = [line for line in out.read_text().splitlines() if line.startswith("# rejected")]
    assert len(rejected) == 1
    assert rejected[0].startswith("# rejected epsilon_deg=1 delta_rad=0: ")
    assert "coincide" in rejected[0]
    _, rows = cli.read_rows(str(out))
    assert [float(r[1]) for r in rows] == [0.1]


def test_sweep_row_seeds_count_emitted_rows(tmp_path):
    """Oracle row seeds skip rejected points, so the emitted rows match a sweep without them."""
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("--epsilon-deg", "1", "--trials", "20000", "--seed", "3", "--reproducible")
    assert run_cli("sweep", *args, "--delta", "0,0.5,pi/2", "--out", str(a)) == 1
    assert run_cli("sweep", *args, "--delta", "0.5,pi/2", "--out", str(b)) == 0
    assert cli.read_rows(str(a)) == cli.read_rows(str(b))


def test_sweep_empty_grid_rejected(tmp_path):
    assert run_cli("sweep", "--epsilon-deg", " ", "--delta", "pi/2", "--out", str(tmp_path / "x.csv")) == 2


def test_sweep_write_failure_cleans_up(tmp_path, capsys):
    target = tmp_path / "no_such_dir" / "out.csv"
    assert run_cli("sweep", "--epsilon-deg", "1", "--delta", "pi/2", "--out", str(target)) == 2
    assert not target.exists()
    assert "out.csv" in capsys.readouterr().err


def test_verify_passes_at_anchor(capsys):
    code = run_cli(
        "verify", "--epsilon-deg", "1", "--delta", "pi/2", "--trials", "200000", "--seed", "2024"
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "overall PASS" in out


def test_verify_below_minimum_trials(capsys):
    assert run_cli("verify", "--epsilon-deg", "1", "--delta", "pi/2", "--trials", "1000") == 2
    assert "below minimum trial count" in capsys.readouterr().err


def test_verify_trial_count_beyond_int64_is_a_domain_error(capsys):
    """More than 2**63 - 1 trials, which the oracle's binomial draw cannot take, exits 2 with a message."""
    assert run_cli("verify", "--epsilon-deg", "1", "--delta", "pi/2", "--trials", str(10**20)) == 2
    assert f"error: trial count {10**20} exceeds 2**63 - 1" in capsys.readouterr().err


def test_verify_negative_seed_is_a_domain_error(capsys):
    assert run_cli("verify", "--epsilon-deg", "1", "--delta", "pi/2", "--trials", "10000", "--seed", "-1") == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (("--trials", "5"), "below minimum trial count: 5 < 10000"),
    (("--trials", "10000", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("--trials", str(10**20)), f"trial count {10**20} exceeds 2**63 - 1"),
])
def test_sweep_checks_oracle_flags_before_any_point(tmp_path, monkeypatch, capsys, flags, message):
    """A bad --trials or --seed is a usage error, reported before the first point is built."""

    def no_point(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(cli, "_point_report", no_point)
    out = tmp_path / "x.csv"
    assert run_cli("sweep", "--delta", "pi/2", *flags, "--out", str(out)) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_verify_fail_exit_code(monkeypatch, capsys):
    skewed = OracleEstimate(
        n_trials=10**6, qber_hat=0.9, p_succ_hat=0.9, stderr_qber=1e-4, stderr_p_succ=1e-4,
        rng_seed=1, n_conclusive=10, n_sifted=10, n_errors=9,
        trials_by_state=(250_000,) * 4, conclusive_by_state=(3, 3, 2, 2),
        sifted_by_state=(3, 3, 2, 2), errors_by_state=(3, 2, 2, 2),
    )
    monkeypatch.setattr(cli, "run_oracle", lambda *args, **kwargs: skewed)
    code = run_cli("verify", "--epsilon-deg", "1", "--delta", "pi/2", "--trials", "100000")
    assert code == 1
    assert "overall FAIL" in capsys.readouterr().out


def test_verify_unresolved_point_passes(capsys):
    """At p_succ 2.4e-9 no round of 1e5 is conclusive: e_B is unresolved, p_succ = 0 agrees with the closed form."""
    code = run_cli("verify", "--epsilon-deg", "0.001", "--delta", "pi/2", "--trials", "100000")
    out = capsys.readouterr().out
    assert code == 0
    assert "e_B unresolved (0 sifted rounds)" in out
    assert "p_succ  |deviation| = 0.02 sigma  PASS" in out
    assert "overall PASS" in out


def test_compensation_output(capsys):
    assert run_cli(
        "compensation", "--theta-prime", "0.7", "--phi-o", "1.1", "--phi-e", "2.3",
        "--epsilon-deg", "1",
    ) == 0
    values = parse_kv_output(capsys.readouterr().out)
    assert float(values["residual_ideal_fm"]) <= 1e-10
    assert float(values["residual_epsilon_fm"].split()[0]) > 1e-3


def test_compensation_trivial(capsys):
    assert run_cli("compensation") == 0
    values = parse_kv_output(capsys.readouterr().out)
    assert float(values["residual_ideal_fm"]) == 0.0


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# point under test\nepsilon-deg=1\ndelta=pi/2\n")
    assert run_cli("eval", "--config", str(cfg)) == 0
    values = parse_kv_output(capsys.readouterr().out)
    assert abs(float(values["e_B"]) - 0.146447) <= 1e-5


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon-deg=1\ndelta=pi/2\n")
    assert run_cli("eval", "--config", str(cfg), "--delta", "pi/4") == 0
    values = parse_kv_output(capsys.readouterr().out)
    assert abs(float(values["e_B"]) - 0.0471772) <= 1e-5


def test_config_reproducible_flag(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("epsilon-deg=0.5\ndelta=pi/2\nreproducible=true\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(a)) == 0
    assert run_cli("sweep", "--config", str(cfg), "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_missing_file(capsys):
    assert run_cli("eval", "--config", "/nonexistent/path.cfg") == 2
    assert "cannot read config" in capsys.readouterr().err


def test_config_flag_without_a_path(capsys):
    assert run_cli("eval", "--config") == 2
    assert "--config requires a file path" in capsys.readouterr().err


def test_config_flag_without_a_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=pi/2\n")
    assert run_cli("--config", str(cfg)) == 2
    assert "--config requires a subcommand" in capsys.readouterr().err


def test_config_line_without_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=pi/2\nepsilon-deg 1\n")
    assert run_cli("eval", "--config", str(cfg)) == 2
    assert f"{cfg}: expected key=value, got 'epsilon-deg 1'" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli("eval", "--delta", "not-an-angle", "--epsilon-deg", "1")
    assert exc.value.code == 2


def test_pi_over_zero_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(argparse.ArgumentTypeError, match="cannot parse angle 'pi/0'"):
        cli.parse_angle("pi/0")
    out = str(tmp_path / "x.csv")
    for argv in (("eval", "--delta", "pi/0"), ("sweep", "--epsilon-deg", "1", "--delta", "pi/0,pi/4", "--out", out)):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "cannot parse angle 'pi/0'" in capsys.readouterr().err
