"""Per-layer timing from outside the program.

:class:`Tracer` replaces public functions of ``repro`` with timing wrappers
for the duration of one traced repetition.  A function is replaced at every
module binding that refers to it (``from x import f`` copies the reference,
so patching only the defining module would miss most callers), and fault
model methods are wrapped on the registered model instances.  Nothing
inside ``src/`` is edited.

Each wrapper adds its call's duration to the metric's seconds and bumps its
call count.  Calls made while another wrapped call is running are nested;
:attr:`Tracer.top_level_s` sums only the outermost calls, so the caller's
self time is its wall time minus ``top_level_s``.

Worker processes of the sharded executor inherit the wrappers through
``fork``, but what they record stays in the worker and is lost.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: (defining module, function name, metric prefix).
FUNCTIONS = (
    ("repro.campaign.runner", "run_lint_gate", "analysis_static.lint"),
    ("repro.analysis_static.implication", "learn_implications", "analysis_static.learn"),
    ("repro.atpg.parallel_sim", "compile_for_engine", "logic.compile"),
    ("repro.campaign.runner", "collapse_universe", "faults.universe"),
    ("repro.atpg.random_tpg", "random_patterns", "atpg.patterns"),
    ("repro.atpg.random_tpg", "random_pairs", "atpg.patterns"),
    ("repro.campaign.runner", "generate_atpg_outcomes", "atpg.search"),
    ("repro.atpg.compaction", "concat_phase_reports", "atpg.concat"),
    ("repro.atpg.compaction", "greedy_compaction", "atpg.compaction"),
    ("repro.spice.analysis.solver", "newton_solve", "spice.newton"),
    ("repro.spice.analysis.transient", "transient", "spice.transient"),
    ("repro.experiments.common", "measure_gate_obd_delay", "experiments.measure"),
)

#: (fault-model method, metric prefix), wrapped on every registered model.
METHODS = (
    ("build_universe", "faults.universe"),
    ("prove_untestable", "analysis_static.prove"),
    ("simulate", "atpg.faultsim"),
)


def _count_simulate(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tests = args[1] if len(args) > 1 else kwargs["tests"]
    faults = args[2] if len(args) > 2 else kwargs["faults"]
    tracer.counts["atpg.fault_tests"] += len(faults) * len(tests)


def _count_proofs(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["analysis_static.proven"] += len(result)


def _count_detection_indices(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    report = args[0] if args else kwargs["report"]
    tracer.counts["atpg.detection_indices"] += sum(
        len(indices) for indices in report.detections.values()
    )


def _count_newton(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["spice.newton_iterations"] += result.iterations


#: Extra counters taken from a wrapped call's arguments or result, outside
#: the timed interval.
COUNTERS: dict[str, Callable[["Tracer", tuple, dict, Any], None]] = {
    "atpg.faultsim": _count_simulate,
    "analysis_static.prove": _count_proofs,
    "atpg.compaction": _count_detection_indices,
    "spice.newton": _count_newton,
}


class Tracer:
    """Timing wrappers for one traced repetition; use as a context manager."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self._depth = 0
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, fn: Callable, metric: str) -> Callable:
        count = COUNTERS.get(metric)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._depth -= 1
                self.seconds[metric] += elapsed
                self.calls[metric] += 1
                if self._depth == 0:
                    self.top_level_s += elapsed
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return timed

    def _patch_function(self, module_name: str, name: str, metric: str) -> None:
        original = getattr(sys.modules[module_name], name)
        wrapper = self._wrap(original, metric)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(functools.partial(setattr, module, attr, original))

    def _patch_method(self, model: Any, name: str, metric: str) -> None:
        setattr(model, name, self._wrap(getattr(model, name), metric))
        self._undo.append(functools.partial(delattr, model, name))

    def __enter__(self) -> "Tracer":
        # Only layers the workload imported are patched; the tracer imports
        # nothing itself.
        for module_name, name, metric in FUNCTIONS:
            if module_name in sys.modules:
                self._patch_function(module_name, name, metric)
        registry = sys.modules.get("repro.campaign.model")
        for model_name in registry.registered_models() if registry else ():
            model = registry.get_model(model_name)
            for name, metric in METHODS:
                if hasattr(model, name):
                    self._patch_method(model, name, metric)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            self._undo.pop()()
