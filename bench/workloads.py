"""The benchmark's three workloads and their output gates.

A workload runs one pass of a fixed unit of work per `run_pass` call, through
pfmattack's public functions only, and `check` counts the operations of a pass
whose outputs miss. All names are looked up on the package at call time so that
the tracer's rebinding takes effect.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

import pfmattack
from pfmattack import cli

# README anchors, to the precision the README prints them.
E_B_HALF_PI, E_B_TOL = 0.146447, 5e-7
P_SUCC_1DEG, P_SUCC_TOL = 2.43298e-3, 5e-9
KM_1DEG, KM_TOL = 124.47, 5e-3
#: e_B is exactly epsilon-independent; reformulations agree to ~1e-12, CSV cells carry 9 digits.
FLAT_TOL = 1e-8
#: Per-check false-alarm probability of the oracle gate (Bernstein bound, ~6.5 sigma at large counts).
ORACLE_ALPHA = 1e-9
#: Pass i of benchmark seed s draws its oracle seeds from block s * SEED_STRIDE + i, so blocks of
#: different benchmark seeds never meet (a run makes far fewer than SEED_STRIDE passes).
SEED_STRIDE = 1_000_000


def closed_form_bad(eps_deg, delta, qber, p_succ, km) -> np.ndarray:
    """Per point: True where an output is non-finite, misses a README anchor, or e_B varies with epsilon."""
    eps_deg, delta, qber, p_succ, km = (np.asarray(a, dtype=float) for a in (eps_deg, delta, qber, p_succ, km))
    bad = ~(np.isfinite(qber) & np.isfinite(p_succ) & np.isfinite(km))
    half_pi = np.abs(delta - np.pi / 2) < 1e-8
    bad |= half_pi & (np.abs(qber - E_B_HALF_PI) > E_B_TOL)
    at_1deg = half_pi & (np.abs(eps_deg - 1.0) < 1e-9)
    bad |= at_1deg & ((np.abs(p_succ - P_SUCC_1DEG) > P_SUCC_TOL) | (np.abs(km - KM_1DEG) > KM_TOL))
    for d in np.unique(delta):
        column = (delta == d) & np.isfinite(qber)
        if column.any():
            bad |= column & (np.abs(qber - np.median(qber[column])) > FLAT_TOL)
    return bad


def count_tolerance(variance: float) -> float:
    """Deviation of a sum of independent 0/1 counts with this variance from its mean that is exceeded
    with probability <= ORACLE_ALPHA (Bernstein's inequality)."""
    c = math.log(2 / ORACLE_ALPHA)
    return c / 3 + math.sqrt(c * c / 9 + 2 * c * variance)


class OracleGate:
    """Checks oracle counts against the closed form: each estimate alone, and pooled over a run.

    A 1e5-trial row alone only catches biases of tens of percent; the counts
    pooled over a run are far more sensitive (a 3% bias in the conclusive
    rate fails an oracle_bulk run at ~15 sigma). Pooling adds the variances,
    so every estimate of a run must come from its own oracle seed.
    """

    def __init__(self):
        self.max_sigma = 0.0
        self._pooled = [0.0, 0.0, 0.0, 0.0]  # conclusive (deviation, variance), errors (deviation, variance)

    def _within(self, dev: float, var: float, pool: int | None) -> bool:
        if pool is not None:
            self._pooled[pool] += dev
            self._pooled[pool + 1] += var
        self.max_sigma = max(self.max_sigma, abs(dev) / math.sqrt(var) if var > 0 else (math.inf if dev else 0.0))
        return abs(dev) <= count_tolerance(var)

    def check_counts(self, p_succ, qber, n_trials, n_conclusive, n_sifted, n_errors) -> bool:
        """One estimate with its exact counts (OracleEstimate)."""
        ok = self._within(n_conclusive - n_trials * p_succ, n_trials * p_succ * (1 - p_succ), 0)
        return self._within(n_errors - n_sifted * qber, n_sifted * qber * (1 - qber), 2) and ok

    def check_ratios(self, p_succ, qber, n_trials, p_hat, qber_hat) -> bool:
        """One estimate known only by its ratios (CSV oracle columns).

        The conclusive count is exact (round(p_hat * n_trials)). n_sifted is
        not, so the QBER test uses a lower bound on it (each conclusive round
        is sifted with probability 1/2), which only widens the tolerance, and
        it is not pooled.
        """
        n_conclusive = round(p_hat * n_trials)
        ok = self._within(n_conclusive - n_trials * p_succ, n_trials * p_succ * (1 - p_succ), 0)
        n_sifted = n_conclusive / 2 - count_tolerance(n_conclusive / 4)
        if n_sifted >= 1 and math.isfinite(qber_hat):
            ok &= self._within((qber_hat - qber) * n_sifted, n_sifted * qber * (1 - qber), None)
        return ok

    def pooled_sigma(self) -> float:
        """Largest pooled deviation, in sigmas."""
        return max(abs(self._pooled[i]) / math.sqrt(self._pooled[i + 1]) if self._pooled[i + 1] else 0.0 for i in (0, 2))

    def pooled_ok(self) -> bool:
        """The run's summed deviations lie within the bound for their summed variances."""
        return all(abs(self._pooled[i]) <= count_tolerance(self._pooled[i + 1]) for i in (0, 2))


class LatencyHistogram:
    """Log-spaced latency histogram, 1 ns to 10 s at 1000 bins per decade (0.23% wide).

    Its size is fixed, so the memory a run holds for point latencies does not
    grow with the number of points a faster program completes.
    """

    BINS_PER_DECADE = 1000
    DECADES = 10

    def __init__(self):
        self.counts = np.zeros(self.BINS_PER_DECADE * self.DECADES, dtype=np.int64)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def add(self, latency_ns: np.ndarray) -> None:
        bins = np.log10(np.maximum(latency_ns, 1)) * self.BINS_PER_DECADE
        self.counts += np.bincount(np.clip(bins.astype(np.int64), 0, self.counts.size - 1), minlength=self.counts.size)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile in ns, as the geometric centre of its bin."""
        rank = max(1, math.ceil(self.n * q / 100))
        b = int(np.searchsorted(np.cumsum(self.counts), rank))
        return 10 ** ((b + 0.5) / self.BINS_PER_DECADE)


class GridSweep:
    """2000 pfm points (40 eps in 0.05..1 deg x 50 delta in 0.1..pi/2) plus 50 remap points on the delta line.

    The seed fixes the order in which the points are evaluated.
    """

    EPS_DEG = np.linspace(0.05, 1.0, 40)
    DELTAS = np.linspace(0.1, np.pi / 2, 50)
    points_per_pass = EPS_DEG.size * DELTAS.size + DELTAS.size
    trials_per_pass = 0

    def __init__(self, seed: int):
        points = [(i, j) for i in range(self.EPS_DEG.size) for j in range(self.DELTAS.size)]
        points += [(-1, j) for j in range(self.DELTAS.size)]  # i = -1: remap
        self.order = [points[k] for k in np.random.default_rng(seed).permutation(len(points))]
        self.errors: list[str] = []

    def run_pass(self, index: int, tracer) -> dict:
        shape = (self.EPS_DEG.size + 1, self.DELTAS.size)  # last row: remap
        out = {key: np.full(shape, np.nan) for key in ("qber", "p_succ", "km")}
        latency_ns = np.empty(len(self.order), dtype=np.int64)
        for k, (i, j) in enumerate(self.order):
            if tracer is not None:
                tracer.begin_run()
            t0 = time.perf_counter_ns()
            try:
                delta = self.DELTAS[j]
                if i < 0:
                    report = pfmattack.evaluate(
                        pfmattack.bb84_ensemble(delta), pfmattack.build_phase_remapping_povm(delta)
                    )
                else:
                    ens = pfmattack.build_ensemble(np.deg2rad(self.EPS_DEG[i]), delta)
                    report = pfmattack.evaluate(ens, pfmattack.build_suboptimal_povm(ens))
            except Exception as exc:  # one bad point is counted as failed; the pass goes on
                report = None
                self.errors.append(f"point ({i}, {j}): {exc!r}")
            latency_ns[k] = time.perf_counter_ns() - t0
            if report is not None:
                out["qber"][i, j], out["p_succ"][i, j], out["km"][i, j] = report.qber, report.p_succ, report.max_fiber_km
        out["latency_ns"] = latency_ns
        return out

    def check(self, out: dict) -> tuple[int, int]:
        """(attempted, failed) points. Remap must beat pfm in both e_B and p_succ at every delta (acceptance criterion 6)."""
        qber, p_succ, km = out["qber"], out["p_succ"], out["km"]
        eps = np.broadcast_to(self.EPS_DEG[:, None], qber[:-1].shape)
        delta = np.broadcast_to(self.DELTAS, qber[:-1].shape)
        bad_pfm = closed_form_bad(eps, delta, qber[:-1], p_succ[:-1], km[:-1])
        with np.errstate(invalid="ignore"):
            pfm_q = np.where(np.isfinite(qber[:-1]), qber[:-1], -np.inf).max(axis=0)
            pfm_p = np.where(np.isfinite(p_succ[:-1]), p_succ[:-1], -np.inf).max(axis=0)
            bad_remap = ~(np.isfinite(km[-1]) & (qber[-1] > pfm_q) & (p_succ[-1] > pfm_p))
        return self.points_per_pass, int(bad_pfm.sum() + bad_remap.sum())

    def finish(self) -> tuple[int, int]:
        return 0, 0


class _OracleWorkload:
    """Shared state of the workloads that call the oracle."""

    def __init__(self, seed: int):
        self.seed = seed
        self.errors: list[str] = []
        self.gate = OracleGate()

    def finish(self) -> tuple[int, int]:
        """The pooled oracle check over the whole run, counted as one more operation."""
        if self.gate.pooled_ok():
            return 1, 0
        self.errors.append("pooled oracle counts of the run deviate from the closed form")
        return 1, 1


class OracleBulk(_OracleWorkload):
    """`verify` at the README point: closed form plus run_oracle at 1e7 trials, (1 deg, pi/2)."""

    EPS_DEG, DELTA, TRIALS = 1.0, np.pi / 2, 10**7
    points_per_pass = 1
    trials_per_pass = TRIALS

    def run_pass(self, index: int, tracer):
        if tracer is not None:
            tracer.begin_run()
        try:
            ens = pfmattack.build_ensemble(np.deg2rad(self.EPS_DEG), self.DELTA)
            strat = pfmattack.build_suboptimal_povm(ens)
            report = pfmattack.evaluate(ens, strat)
            return report, pfmattack.run_oracle(ens, strat, self.TRIALS, self.seed * SEED_STRIDE + index)
        except Exception as exc:  # counted as a failed call
            self.errors.append(f"pass {index}: {exc!r}")
            return None

    def check(self, out) -> tuple[int, int]:
        if out is None:
            return 1, 1
        report, est = out
        bad = closed_form_bad(self.EPS_DEG, self.DELTA, report.qber, report.p_succ, report.max_fiber_km).any()
        ok = self.gate.check_counts(
            report.p_succ, report.qber, est.n_trials, est.n_conclusive, est.n_sifted, est.n_errors
        )
        if bad or not ok:
            self.errors.append(f"seed {est.rng_seed}: e_B {report.qber!r} vs {est.qber_hat!r}, "
                               f"p_succ {report.p_succ!r} vs {est.p_succ_hat!r}")
        return 1, int(bad or not ok)


class SweepOracle(_OracleWorkload):
    """README QBER sweep with oracle columns, through pfmattack.cli.main, written to a scratch CSV."""

    ARGV = ["sweep", "--epsilon-deg", "0.1:1:19", "--delta", "pi/2,pi/4,pi/8", "--trials", "100000"]
    ROW_TRIALS = 100_000
    points_per_pass = 19 * 3
    trials_per_pass = points_per_pass * ROW_TRIALS

    def __init__(self, seed: int, csv_path: Path):
        super().__init__(seed)
        self.csv_path = csv_path

    def run_pass(self, index: int, tracer):
        if tracer is not None:
            tracer.begin_run()
        # cli.run_sweep gives row r the seed (master seed + r). Spacing master seeds one pass of rows
        # apart keeps every row's oracle draws independent of every other row's in the run, which the
        # pooled check assumes.
        master_seed = (self.seed * SEED_STRIDE + index) * self.points_per_pass
        argv = [*self.ARGV, "--seed", str(master_seed), "--out", str(self.csv_path)]
        try:
            return cli.main(argv)
        except Exception as exc:  # counted as a failed sweep
            self.errors.append(f"pass {index}: {exc!r}")
            return None

    def check(self, exit_code) -> tuple[int, int]:
        if exit_code != 0:
            self.errors.append(f"cli.main exited with {exit_code!r}")
            return self.points_per_pass, self.points_per_pass
        header, rows = cli.read_rows(str(self.csv_path))
        if tuple(header) != cli.BASE_COLUMNS + cli.ORACLE_COLUMNS:
            self.errors.append(f"unexpected CSV header {header!r}")
            return self.points_per_pass, self.points_per_pass
        rows = [row for row in rows if len(row) == len(header)]
        table = np.array(rows, dtype=float).reshape(-1, len(header))
        col = dict(zip(header, table.T))
        bad = closed_form_bad(col["epsilon_deg"], col["delta_rad"], col["e_B"], col["p_succ"], col["max_fiber_km"])
        for k, (qber, p_succ, qber_hat, p_hat) in enumerate(
            zip(col["e_B"], col["p_succ"], col["oracle_e_B"], col["oracle_p"])
        ):
            if not self.gate.check_ratios(p_succ, qber, self.ROW_TRIALS, p_hat, qber_hat):
                bad[k] = True
                self.errors.append(f"row {k}: oracle ({qber_hat!r}, {p_hat!r}) vs closed form ({qber!r}, {p_succ!r})")
        return self.points_per_pass, int(bad.sum()) + max(0, self.points_per_pass - len(rows))
