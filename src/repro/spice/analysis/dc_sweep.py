"""DC transfer-curve (sweep) analysis.

Used to reproduce the inverter voltage-transfer characteristics of Figure 4
of the paper: the swept source is the inverter input, and the recorded node
is the inverter output, for each oxide-breakdown stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..elements import StampContext, VoltageSource
from ..errors import AnalysisError
from ..netlist import Circuit
from ..waveform import Waveform
from .mna import MnaSystem
from .solver import SolverOptions, robust_solve


@dataclass
class DcSweepResult:
    """Result of a DC sweep: node voltages versus the swept source value."""

    sweep_values: np.ndarray
    voltages: dict[str, np.ndarray]
    source_name: str

    def transfer_curve(self, node: str) -> Waveform:
        """The node voltage as a function of the swept value.

        Returned as a :class:`~repro.spice.waveform.Waveform` whose "time"
        axis is the swept source value, so the usual crossing/threshold
        machinery can be reused for VTC measurements.
        """
        if node not in self.voltages:
            raise AnalysisError(f"node {node!r} was not recorded in the sweep")
        return Waveform(self.sweep_values, self.voltages[node], name=node)


def dc_sweep(
    circuit: Circuit,
    source_name: str,
    values: Sequence[float] | np.ndarray,
    options: SolverOptions | None = None,
    record_nodes: Iterable[str] | None = None,
) -> DcSweepResult:
    """Sweep the DC value of a voltage source and record node voltages.

    The circuit is modified in place during the sweep and the original source
    value is restored afterwards.  Each sweep point starts from the previous
    point's solution, which keeps Newton iterations short and follows the
    curve through high-gain regions.
    """
    options = options or SolverOptions()
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        raise AnalysisError("dc_sweep requires at least one sweep value")

    source = circuit[source_name]
    if not isinstance(source, VoltageSource):
        raise AnalysisError(f"{source_name!r} is not a voltage source")
    if source.waveform is not None:
        raise AnalysisError("cannot DC-sweep a source that has a time waveform")

    system = MnaSystem(circuit)
    nodes = list(record_nodes) if record_nodes is not None else system.node_names
    recorded = {node: np.zeros(values.size) for node in nodes}

    original_dc = source.dc
    x = system.initial_guess()
    try:
        for i, value in enumerate(values):
            source.dc = float(value)
            ctx = StampContext(mode="dc", time=0.0, gmin=options.gmin)
            x = robust_solve(system, ctx, x, options).x
            for node in nodes:
                recorded[node][i] = system.voltage(x, node)
    finally:
        source.dc = original_dc

    return DcSweepResult(sweep_values=values, voltages=recorded, source_name=source_name)
