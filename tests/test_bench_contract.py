"""The benchmark under bench/ reaches into the package by name; these tests hold that contract.

bench/tracing.py wraps the functions named in its LAYERS, and bench/workloads.py
calls public functions with fixed arguments and checks their outputs. A rename
or a signature change in src/ would otherwise surface only when the benchmark
runs. bench/ is only read here.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

import pfmattack
from pfmattack import attack, cli

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

    A cold point makes two eigensolves: its delta pencil and validate(). A
    second point at the same delta finds the pencil cached and makes one.
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
    assert calls["numkernel.hermitian_eig"] == 2
    assert sum(tracer.failed) == 0
    with tracer.installed():
        ens = pfmattack.build_ensemble(np.deg2rad(0.5), np.pi / 2)
        pfmattack.evaluate(ens, pfmattack.build_suboptimal_povm(ens))
    calls = {s["layer"]: s["calls"] for s in tracer.layer_stats()}
    assert calls["attack.PovmStrategy.validate"] == 2
    assert calls["numkernel.hermitian_eig"] == 3
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
def test_workload_pass_passes_its_gate(name, tmp_path):
    """One pass of each workload, checked by the workload's own output gate."""
    workloads = _load("workloads")
    cls = getattr(workloads, name)
    work = cls(1, tmp_path / "sweep.csv") if name == "SweepOracle" else cls(1)
    attempted, failed = work.check(work.run_pass(0, None))
    assert attempted == work.points_per_pass
    assert failed == 0, work.errors[:3]
