import argparse
import errno
import re
import warnings

import mpmath
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


def test_point_flags_have_one_help_in_eval_and_verify(monkeypatch, capsys):
    """eval and verify take the same --epsilon-deg, --delta and --attack, help text included."""
    monkeypatch.setenv("COLUMNS", "200")
    helps = []
    for command in ("eval", "verify"):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--help")
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    for out in helps:
        assert re.search(r"--epsilon-deg EPSILON_DEG\s+mirror deviation in degrees", out)
        assert re.search(r"--delta DELTA\s+phase step \(pi/N or radians\)", out)
        assert "--attack {pfm,remap}" in out


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


def test_sweep_blocks_do_not_change_a_byte(tmp_path, monkeypatch):
    """A grid of several blocks, with refused cells at and across block edges, writes the same file at any block
    size: each cell's row or '# rejected' line, and each row's oracle seed, do not depend on where a block ends."""
    argv = ["sweep", "--epsilon-deg=-6,0,1e-310,0.5,1", "--delta", "0,1e-200,0.3,pi/2,2", "--trials", "10000",
            "--seed", "5", "--reproducible"]
    files = []
    for block in (cli.SWEEP_BLOCK, 1, 7):
        monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
        out = tmp_path / f"block{block}.csv"
        assert run_cli(*argv, "--out", str(out)) == 1
        files.append(out.read_bytes())
    assert files[1] == files[0] and files[2] == files[0]
    lines = files[0].decode().splitlines()
    assert sum(line.startswith("# rejected") for line in lines) == 21
    assert len(lines) == 4 + 25


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


def test_refused_overwrite_keeps_the_existing_file(tmp_path, monkeypatch, capsys):
    """A file that cannot be opened for writing, such as a read-only one, is left as it was, not deleted."""
    target = tmp_path / "keep.csv"
    target.write_text("user data\n")

    def refuse(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", path)

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    assert run_cli("eval", "--epsilon-deg", "1", "--delta", "pi/2", "--out", str(target)) == 2
    assert target.read_text() == "user data\n"
    assert f"error: cannot write {target}: " in capsys.readouterr().err


def test_directory_as_out_is_reported_and_kept(tmp_path, capsys):
    target = tmp_path / "results"
    target.mkdir()
    assert run_cli("sweep", "--epsilon-deg", "1", "--delta", "pi/2", "--out", str(target)) == 2
    assert target.is_dir()
    assert f"error: cannot write {target}: " in capsys.readouterr().err


def test_failed_write_drops_the_partial_file(tmp_path, monkeypatch, capsys):
    """A file this call opened holds a partial CSV when the write fails, so it is removed."""
    target = tmp_path / "out.csv"
    real_open = open

    class FullDisk:
        def __init__(self, path, *args, **kwargs):
            self.fh = real_open(path, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[:10])
            self.fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", FullDisk, raising=False)
    assert run_cli("sweep", "--epsilon-deg", "1", "--delta", "pi/2", "--out", str(target)) == 2
    assert not target.exists()
    assert f"error: cannot write {target}: " in capsys.readouterr().err


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

    monkeypatch.setattr(cli, "build_suboptimal_povm", no_point)
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


#: 0.011 expected conclusive rounds: p_succ 1.13e-6 at 1e4 trials
TINY_COUNT_ARGV = ("verify", "--epsilon-deg", "1.2918182178246316", "--delta", "pi/25", "--trials", "10000")


def test_verify_judges_a_tiny_expected_count_exactly(capsys):
    """One conclusive round where 0.011 are expected has P(K >= 1) = 1.1%: no failure at the 3-sigma level."""
    assert run_cli(*TINY_COUNT_ARGV, "--seed", "5") == 0
    out = capsys.readouterr().out
    assert "p_succ  |deviation| = 9.28 sigma  PASS  (count 1 of 10000, exact two-sided binomial tail 0.0226)" in out
    assert "overall PASS" in out


def test_verify_fails_a_count_far_in_the_exact_tail(monkeypatch, capsys):
    """Five conclusive rounds where 0.011 are expected have P(K >= 5) ~ 1e-12: a FAIL."""
    estimate = OracleEstimate(
        n_trials=10_000, qber_hat=0.0, p_succ_hat=5e-4, stderr_qber=0.0, stderr_p_succ=2.2e-4,
        rng_seed=5, n_conclusive=5, n_sifted=3, n_errors=0,
        trials_by_state=(2500,) * 4, conclusive_by_state=(2, 1, 1, 1),
        sifted_by_state=(1, 1, 1, 0), errors_by_state=(0,) * 4,
    )
    monkeypatch.setattr(cli, "run_oracle", lambda *args, **kwargs: estimate)
    assert run_cli(*TINY_COUNT_ARGV) == 1
    out = capsys.readouterr().out
    assert "e_B     |deviation| = 0.32 sigma  PASS  (count 0 of 3, exact two-sided binomial tail 1)" in out
    assert "p_succ  |deviation| = 46.85 sigma  FAIL  (count 5 of 10000, exact two-sided binomial tail 3.09e-12)" in out
    assert "overall FAIL" in out


def test_binomial_tails_stop_early_at_a_huge_count():
    """A count of 10**18 where 2 are expected costs a few dozen terms, not 10**18."""
    assert cli._binomial_tails(10**18, 2**63 - 1, 2.0**-62) == (1.0, 0.0)


def test_verify_fails_a_correct_oracle_at_most_at_its_level(capsys):
    """Over 2000 seeds at a tiny expected count, FAIL comes at most at alpha = 0.0027 plus 3 sigma of noise.

    The normal bound failed every seed with a conclusive round, ~1.1% of them.
    """
    args = cli.build_parser().parse_args(TINY_COUNT_ARGV)
    fails = 0
    for seed in range(2000):
        args.seed = seed
        fails += cli.cmd_verify(args) == 1
    capsys.readouterr()
    assert fails <= 0.0027 * 2000 + 3 * np.sqrt(0.0027 * 2000)


@pytest.mark.parametrize("k, n, p", [
    (0, 10_000, 1.13e-6), (1, 10_000, 1.13e-6), (5, 10_000, 1.13e-6), (9, 10, 0.146), (40, 100, 0.3),
    (95, 100, 0.99), (0, 100, 0.99), (3, 2**63 - 1, 2.0**-62), (0, 7, 0.0), (2, 7, 0.0), (7, 7, 1.0),
])
def test_binomial_tails_match_exact_sums(k, n, p):
    """Both tails within 1e-14 of 60-digit sums."""
    with mpmath.workdps(60):
        q = 1 - mpmath.mpf(p)
        pmf = [mpmath.binomial(n, j) * mpmath.mpf(p) ** j * q ** (n - j) for j in range(min(n, 200) + 1)]
        lower = mpmath.fsum(pmf[: k + 1])
        upper = 1 - lower + pmf[k] if n > 200 else mpmath.fsum(pmf[k:])
    got = cli._binomial_tails(k, n, p)
    assert abs(got[0] - float(lower)) <= 1e-14 and abs(got[1] - float(upper)) <= 1e-14


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


@pytest.mark.parametrize("phi_o, phi_e", [("1e17", "1"), ("1e308", "1e308")])
def test_compensation_at_huge_phases(phi_o, phi_e, capsys):
    """A phase sum rounded before the exponential printed 1.35602 at 1e17, and nan with a RuntimeWarning at 1e308."""
    assert run_cli("compensation", "--phi-o", phi_o, "--phi-e", phi_e, "--epsilon-deg", "1") == 0
    assert parse_kv_output(capsys.readouterr().out)["residual_ideal_fm"] == "0"


def config_spellings(path):
    """The two spellings of the config flag: '--config PATH' and '--config=PATH'."""
    return ["--config", str(path)], [f"--config={path}"]


def test_config_file_supplies_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# point under test\nepsilon-deg=1\ndelta=pi/2\n")
    for config in config_spellings(cfg):
        assert run_cli("eval", *config) == 0, config
        values = parse_kv_output(capsys.readouterr().out)
        assert abs(float(values["e_B"]) - 0.146447) <= 1e-5


def test_cli_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon-deg=1\ndelta=pi/2\n")
    for config in config_spellings(cfg):
        assert run_cli("eval", *config, "--delta", "pi/4") == 0, config
        values = parse_kv_output(capsys.readouterr().out)
        assert abs(float(values["e_B"]) - 0.0471772) <= 1e-5


def test_config_reproducible_flag(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("epsilon-deg=0.5\ndelta=pi/2\nreproducible=true\n")
    spaced, joined = config_spellings(cfg)
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run_cli("sweep", *spaced, "--out", str(a)) == 0
    assert run_cli("sweep", *spaced, "--out", str(b)) == 0
    assert run_cli("sweep", *joined, "--out", str(c)) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_config_missing_file(capsys):
    for config in config_spellings("/nonexistent/path.cfg"):
        assert run_cli("eval", *config) == 2, config
        assert "cannot read config /nonexistent/path.cfg" in capsys.readouterr().err


def test_config_flag_without_a_path(capsys):
    for config in (["--config"], ["--config="], ["--config", ""]):
        assert run_cli("eval", *config) == 2, config
        assert "--config requires a file path" in capsys.readouterr().err


def test_config_flag_without_a_subcommand(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=pi/2\n")
    for config in config_spellings(cfg):
        assert run_cli(*config) == 2, config
        assert "--config requires a subcommand" in capsys.readouterr().err


def test_config_line_without_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta=pi/2\nepsilon-deg 1\n")
    assert run_cli("eval", "--config", str(cfg)) == 2
    assert f"{cfg}: expected key=value, got 'epsilon-deg 1'" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, flags", [
    ("eval", "epsilon-deg=-1e-3\ndelta=pi/2\n", ["--epsilon-deg=-1e-3", "--delta=pi/2"]),
    ("sweep", "epsilon-deg=-1:1:4\ndelta=pi/2\nreproducible=true\n",
     ["--epsilon-deg=-1:1:4", "--delta=pi/2", "--reproducible"]),
    ("verify", "epsilon-deg=-1e0\ndelta=pi/2\ntrials=100000\n", ["--epsilon-deg=-1e0", "--delta=pi/2", "--trials=100000"]),
    ("compensation", "theta-prime=-pi/4\nphi-o=1.1\n", ["--theta-prime=-pi/4", "--phi-o=1.1"]),
], ids=["eval", "sweep", "verify", "compensation"])
def test_config_file_gives_negative_values(tmp_path, capsys, command, config, flags):
    """A config value that starts with '-' (a range, a signed pi/N, scientific notation) is read as a value.

    It prints and writes what the same flags in the '=' form print and write.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    outputs = []
    for name, argv in (("config", ["--config", str(cfg)]), ("flags", flags)):
        out = tmp_path / f"{name}.csv"
        assert run_cli(command, *argv, *(["--out", str(out)] if command == "sweep" else [])) == 0, name
        outputs.append((capsys.readouterr().out, out.read_bytes() if command == "sweep" else None))
    assert outputs[0] == outputs[1]


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


def _fuzz_token(rng, kind, grid=False):
    """One seeded value of kind 'angle' (signed pi/N or radians) or 'degrees', a grid of them, or junk."""
    pick = rng.integers(10)
    if pick == 0:
        return str(rng.choice(["", " ", "abc", "nan", "-inf", "1e400", "pi/", "pi/0", "pi/-2", "--1", "0x10",
                               "1:2", "1:2:0", "1:2:-1", "1:2:x", "1::3", ",", "1,,2", "pi/2:pi:1.5", "e", "1e"]))
    if grid:
        if pick <= 3:
            return f"{_fuzz_token(rng, kind)}:{_fuzz_token(rng, kind)}:{rng.integers(1, 4)}"
        return ",".join(_fuzz_token(rng, kind) for _ in range(rng.integers(1, 4)))
    sign = str(rng.choice(["", "+", "-"]))
    if kind == "angle" and pick <= 3:
        return f"{sign}pi" + (f"/{rng.integers(1, 1000)}" if pick > 1 else "")
    if pick == 4:
        return f"{sign}{rng.choice(['0', '0.0', '1', '5', '90', '1.5707963267948966'])}"
    # log-uniform magnitudes over all of 1e-320..1e308, over the accepted domain's scale (delta <= pi/2,
    # |epsilon| <= 5 deg), or over the part of that scale where no figure of merit underflows
    high = 1e308 if pick >= 8 else 1.5 if kind == "angle" else 5.0
    low = 1e-320 if pick >= 7 else 1e-3
    return f"{sign}{float(np.exp(rng.uniform(np.log(low), np.log(high)))):.17g}"


def _fuzz_argv(rng, out):
    """One seeded argv of eval, sweep, verify or compensation; options mostly in the '=' form."""
    command = str(rng.choice(["eval", "sweep", "verify", "compensation"]))
    if command == "compensation":
        flags = {f: _fuzz_token(rng, "angle") for f in ("--theta-prime", "--phi-o", "--phi-e")}
        flags["--epsilon-deg"] = _fuzz_token(rng, "degrees")
    elif command == "sweep":
        flags = {
            "--epsilon-deg": _fuzz_token(rng, "degrees", grid=True), "--delta": _fuzz_token(rng, "angle", grid=True),
            "--out": out,
        }
        if rng.random() < 0.3:
            flags.update({"--trials": "10000", "--seed": str(rng.integers(-2, 100))})
    else:
        flags = {"--epsilon-deg": _fuzz_token(rng, "degrees"), "--delta": _fuzz_token(rng, "angle")}
        if command == "verify":
            trials = str(rng.choice(["10000"] * 3 + ["100", "1e4"]))
            flags.update({"--trials": trials, "--seed": str(rng.integers(-2, 100))})
        elif rng.random() < 0.2:
            flags["--out"] = out
    if command != "compensation" and rng.random() < 0.2:
        flags["--attack"] = "remap"
    argv, names = [command], list(flags)
    for i in rng.permutation(len(names)):
        flag = names[i]
        argv += [f"{flag}={flags[flag]}"] if rng.random() < 0.8 else [flag, flags[flag]]
    return argv


def test_seeded_cli_fuzz_exits_cleanly(tmp_path, capsys):
    """Every argv exits 0, 1 or 2 with no traceback and no warning, and the ideal mirror's residual prints 0."""
    rng = np.random.default_rng(2024)
    out = str(tmp_path / "fuzz.csv")
    for _ in range(400):
        argv = _fuzz_argv(rng, out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # any other escape fails the case, named by its argv
                pytest.fail(f"{argv} raised {exc!r}")
        captured = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in captured.err, argv
        for line in captured.out.splitlines():
            if line.startswith("residual_ideal_fm"):
                assert line.split()[1] == "0", argv
