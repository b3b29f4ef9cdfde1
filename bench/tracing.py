"""In-memory span tracer that wraps pfmattack's public functions from outside.

Each wrapped call records one span (layer, start, end, span id, parent span
id, run id) and counts its call and any failure at the same boundary. Nothing
under src/ changes: while installed, the tracer rebinds every module attribute
that holds a traced function, including the names one module imported from
another (pfmattack.attack.hermitian_eig, pfmattack.cli.run_oracle, ...), and
restores them on exit.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

#: Traced layers, named "<module>.<function>" or "<module>.<Class>.<method>" inside pfmattack.
LAYERS = (
    "statespace.build_ensemble",
    "statespace.span_dimension",
    "attack.build_suboptimal_povm",
    "attack.PovmStrategy.validate",
    "attack.build_phase_remapping_povm",
    "attack.evaluate",
    "numkernel.hermitian_eig",
    "numkernel.pinv_sqrt",
    "mcoracle.run_oracle",
    "mcoracle.outcome_probabilities",
    "cli.run_sweep",
)

#: The oracle layer also reports trials/s and its peak numpy allocation (via tracemalloc).
ORACLE_LAYER = "mcoracle.run_oracle"


def _resolve(layer: str) -> tuple[object, str]:
    """(owner, attribute) of a layer: the defining module, or the class for a method."""
    module_name, _, path = layer.partition(".")
    owner = sys.modules[f"pfmattack.{module_name}"]
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    """Spans and counts for the calls made while `installed()` is active."""

    def __init__(self):
        # (layer index, start ns, end ns, span id, parent span id or 0, run id)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.failed = [0] * len(LAYERS)
        self.oracle_trials = 0
        self.oracle_peak_alloc_bytes = 0
        self.run_id = 0
        self._stack: list[int] = []
        self._next_span = 1

    def begin_run(self) -> None:
        """Start a new top-level operation; later spans share its run id."""
        self.run_id += 1

    def _wrap(self, index: int, fn):
        oracle = LAYERS[index] == ORACLE_LAYER
        signature = inspect.signature(fn) if oracle else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_span
            self._next_span += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            if oracle:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[index] += 1
                raise
            else:
                if oracle:
                    self.oracle_trials += signature.bind(*args, **kwargs).arguments["n_trials"]
                return result
            finally:
                end = time.perf_counter_ns()
                if oracle:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.oracle_peak_alloc_bytes = max(self.oracle_peak_alloc_bytes, peak)
                self._stack.pop()
                self.spans.append((index, start, end, span_id, parent, self.run_id))

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind each traced function wherever a pfmattack module holds it."""
        modules = [m for name, m in list(sys.modules.items()) if name == "pfmattack" or name.startswith("pfmattack.")]
        saved = []
        try:
            for index, layer in enumerate(LAYERS):
                owner, attr = _resolve(layer)
                original = getattr(owner, attr)
                wrapped = self._wrap(index, original)
                holders = [(owner, attr)] if inspect.isclass(owner) else [
                    (module, name) for module in modules for name, value in vars(module).items() if value is original
                ]
                for holder, name in holders:
                    saved.append((holder, name, original))
                    setattr(holder, name, wrapped)
            yield self
        finally:
            for holder, name, original in reversed(saved):
                setattr(holder, name, original)

    def layer_stats(self) -> list[dict]:
        """Per layer: calls, failures, total self time (s) and median call latency (us)."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, start, end, _, parent, _ in self.spans:
            if parent:
                child_ns[parent] += end - start
        self_ns = [0] * len(LAYERS)
        durations: list[list[int]] = [[] for _ in LAYERS]
        for index, start, end, span_id, _, _ in self.spans:
            self_ns[index] += end - start - child_ns.get(span_id, 0)
            durations[index].append(end - start)
        return [
            {
                "layer": layer,
                "calls": len(durations[i]),
                "failed": self.failed[i],
                "self_s": self_ns[i] / 1e9,
                "incl_s": sum(durations[i]) / 1e9,
                "p50_us": statistics.median(durations[i]) / 1e3 if durations[i] else 0.0,
            }
            for i, layer in enumerate(LAYERS)
        ]

    def write_spans(self, path) -> None:
        """Write every span as gzipped CSV: layer,start_ns,end_ns,span_id,parent_id,run_id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("layer,start_ns,end_ns,span_id,parent_id,run_id\n")
            for index, start, end, span_id, parent, run in self.spans:
                fh.write(f"{LAYERS[index]},{start},{end},{span_id},{parent},{run}\n")
