"""The benchmark under bench/ reaches into the package by name; these tests hold that contract.

bench/tracing.py wraps the functions named in its LAYERS, and bench/workloads.py
calls public functions with fixed arguments and checks their outputs. A rename
or a signature change in src/ would otherwise surface only when the benchmark
runs. bench/ is only read here.
"""

import ast
import collections
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import pfmattack
from pfmattack import attack, cli, mcoracle, statespace

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_resolve():
    tracing = _load("tracing")
    for layer in tracing.LAYERS:
        owner, attr = tracing._resolve(layer)
        assert callable(getattr(owner, attr, None)), layer
    # the tracer reads the oracle's trial count by parameter name
    oracle = getattr(*tracing._resolve(tracing.ORACLE_LAYER))
    assert "n_trials" in inspect.signature(oracle).parameters


def test_tracer_counts_one_point():
    """Installed, the tracer sees one point's calls, and it restores every name on exit.

    A cold point makes one eigen-decomposition, for its delta pencil;
    validate() takes eigenvalues only, through hermitian_eigvalsh, which the
    tracer does not name. A second point at the same delta finds the pencil
    cached and makes no further decomposition.
    """
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    before = pfmattack.build_ensemble
    attack._pencil.cache_clear()
    with tracer.installed():
        ens = pfmattack.build_ensemble(np.deg2rad(1.0), np.pi / 2)
        pfmattack.evaluate(ens, pfmattack.build_suboptimal_povm(ens))
    assert pfmattack.build_ensemble is before
    calls = {s["layer"]: s["calls"] for s in tracer.layer_stats()}
    assert calls["statespace.build_ensemble"] == 1
    assert calls["attack.build_suboptimal_povm"] == 1
    assert calls["attack.PovmStrategy.validate"] == 1
    assert calls["attack.evaluate"] == 1
    assert calls["numkernel.hermitian_eig"] == 1
    assert sum(tracer.failed) == 0
    with tracer.installed():
        ens = pfmattack.build_ensemble(np.deg2rad(0.5), np.pi / 2)
        pfmattack.evaluate(ens, pfmattack.build_suboptimal_povm(ens))
    calls = {s["layer"]: s["calls"] for s in tracer.layer_stats()}
    assert calls["attack.PovmStrategy.validate"] == 2
    assert calls["numkernel.hermitian_eig"] == 1
    assert sum(tracer.failed) == 0


def _package_calls(tree):
    """(owner, name, positional count, keyword names) of every pfmattack.X(...) and cli.X(...) call."""
    owners = {"pfmattack": pfmattack, "cli": cli}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in owners
        ):
            yield owners[node.func.value.id], node.func.attr, len(node.args), [k.arg for k in node.keywords]


def test_workload_calls_match_signatures():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    calls = list(_package_calls(tree))
    assert len(calls) >= 8
    for owner, name, n_args, keywords in calls:
        fn = getattr(owner, name)
        inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cli":
            assert hasattr(cli, node.attr), node.attr


@pytest.mark.parametrize("name", ["GridSweep", "OracleBulk", "SweepOracle"])
def test_workload_pass_passes_its_gate(name, tmp_path, monkeypatch):
    """Two passes of each workload, each checked by the workload's own output gate. The first solves every pencil
    the workload needs; the second, a timed pass's path, makes no eigen-decomposition and takes no eigenvalues."""
    workloads = _load("workloads")
    cls = getattr(workloads, name)
    work = cls(1, tmp_path / "sweep.csv") if name == "SweepOracle" else cls(1)
    calls = collections.Counter()

    def counting(name):
        kernel = getattr(attack, name)

        def counted(a):
            calls[name] += 1
            return kernel(a)
        return counted

    for index in range(2):
        if index == 1:
            for name in ("hermitian_eig", "hermitian_eigvalsh"):
                monkeypatch.setattr(attack, name, counting(name))
        attempted, failed = work.check(work.run_pass(index, None))
        assert attempted == work.points_per_pass
        assert failed == 0, work.errors[:3]
    assert calls == {}, calls


def test_a_grid_sweep_pass_builds_checks_and_evaluates_every_point():
    """A traced grid_sweep pass after the warm-up: each of its 2000 pfm and 50 remap points makes its ensemble, its
    build, one validate() and one evaluate, and a warm pencil makes no eigen-decomposition. A speed-up that caches
    whole points, or skips the check or the evaluation, fails here. Its output passes its gate."""
    workloads, tracing = _load("workloads"), _load("tracing")
    work, tracer = workloads.GridSweep(1), tracing.Tracer()
    assert work.check(work.run_pass(0, None)) == (work.points_per_pass, 0), work.errors[:3]
    with tracer.installed():
        out = work.run_pass(1, tracer)
    assert work.check(out) == (work.points_per_pass, 0), work.errors[:3]
    calls = {s["layer"]: s["calls"] for s in tracer.layer_stats()}
    expected = {"statespace.build_ensemble": 2000, "attack.build_suboptimal_povm": 2050,
                "attack.build_phase_remapping_povm": 50, "attack.PovmStrategy.validate": 2050,
                "attack.evaluate": 2050, "numkernel.hermitian_eig": 0}
    assert {layer: calls[layer] for layer in expected} == expected
    assert sum(tracer.failed) == 0


@pytest.mark.parametrize("block", [cli.SWEEP_BLOCK, 20])
def test_a_sweep_oracle_pass_makes_no_per_cell_objects(block, tmp_path, monkeypatch):
    """A sweep_oracle pass (57 cells) goes from the grid to the CSV as arrays: it makes no AttackEnsemble, PovmStrategy
    or OracleEstimate, by their constructors or by statespace.frozen, and per block of cli.SWEEP_BLOCK cells it makes
    one build_suboptimal_povm call and one run_oracle call, as the tracer counts them. Its output passes its gate."""
    made = collections.Counter()
    real_frozen = statespace.frozen

    def counting_frozen(cls, **fields):
        made[cls.__name__] += 1
        return real_frozen(cls, **fields)

    for module in (statespace, attack, mcoracle):
        monkeypatch.setattr(module, "frozen", counting_frozen)
    for cls in (pfmattack.AttackEnsemble, pfmattack.PovmStrategy, pfmattack.OracleEstimate):
        def counting_init(self, *args, _init=cls.__init__, **kwargs):
            made[type(self).__name__] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    monkeypatch.setattr(cli, "SWEEP_BLOCK", block)
    workloads, tracing = _load("workloads"), _load("tracing")
    work, tracer = workloads.SweepOracle(1, tmp_path / "sweep.csv"), tracing.Tracer()
    with tracer.installed():
        exit_code = work.run_pass(0, tracer)
    assert work.check(exit_code) == (work.points_per_pass, 0), work.errors[:3]
    assert {name: made[name] for name in ("AttackEnsemble", "PovmStrategy", "OracleEstimate")} == dict.fromkeys(
        ("AttackEnsemble", "PovmStrategy", "OracleEstimate"), 0)
    blocks = -(-work.points_per_pass // block)
    calls = {s["layer"]: s["calls"] for s in tracer.layer_stats()}
    layers = ("statespace.build_ensemble", "attack.build_suboptimal_povm", "mcoracle.run_oracle")
    assert [calls[layer] for layer in layers] == [0, blocks, blocks]
