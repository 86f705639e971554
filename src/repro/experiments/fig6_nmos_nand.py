"""Experiment E3: Figure 6 -- progression of NMOS OBD in the NAND harness.

One falling-output sequence, the NA defect, all breakdown stages: the output
waveform degrades from the nominal fall to a slow fall and finally to a
stuck-high response.  The experiment returns both the waveforms (the figure)
and the extracted delays (the quantitative series).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..analysis.delay import TransitionMeasurement
from ..cells.characterize import characterize_harnesses
from ..cells.fixtures import build_nand_harness
from ..cells.technology import Technology, default_technology
from ..core.breakdown import TABLE1_NMOS_STAGES, BreakdownStage
from ..core.defect import OBDDefect
from ..core.injection import inject_into_harness
from ..spice.waveform import Waveform
from .common import DEFAULT_CAPTURE_WINDOW, DEFAULT_DT

#: The input sequence used for the Figure-6 style progression plot.
FIGURE6_SEQUENCE = ((0, 1), (1, 1))


@dataclass
class Fig6Result:
    """Waveforms and measurements per stage for the NA defect."""

    tech_name: str
    site: str
    sequence: tuple
    output_waveforms: dict[BreakdownStage, Waveform]
    input_waveform: Waveform
    measurements: dict[BreakdownStage, TransitionMeasurement]

    def rows(self) -> list[str]:
        lines = [f"=== Figure 6 reproduction: NMOS OBD progression ({self.site}) ==="]
        for stage, measurement in self.measurements.items():
            lines.append(f"{stage.value:<12} {measurement.table_entry():>9}")
        return lines

    def monotonic_degradation(self) -> bool:
        """Delays grow (or become stuck) with every progression step."""
        previous = 0.0
        for stage, measurement in sorted(self.measurements.items(), key=lambda kv: kv[0].order):
            current = measurement.delay if measurement.delay is not None else float("inf")
            if current < previous - 1e-12:
                return False
            previous = current
        return True


def run_fig6(
    tech: Technology | None = None,
    stages: Sequence[BreakdownStage] = TABLE1_NMOS_STAGES,
    site: str = "NA",
    sequence=FIGURE6_SEQUENCE,
    dt: float = DEFAULT_DT,
    capture_window: float = DEFAULT_CAPTURE_WINDOW,
) -> Fig6Result:
    """Simulate the NAND harness for each stage and collect output waveforms."""
    tech = tech or default_technology()
    harnesses = []
    for stage in stages:
        harness = build_nand_harness(tech, sequence)
        if stage != BreakdownStage.FAULT_FREE:
            inject_into_harness(harness, OBDDefect(site=site, stage=stage))
        harnesses.append(harness)
    runs = characterize_harnesses(harnesses, dt=dt, capture_window=capture_window)

    waveforms: dict[BreakdownStage, Waveform] = {}
    measurements: dict[BreakdownStage, TransitionMeasurement] = {}
    for stage, run in zip(stages, runs):
        waveforms[stage] = run.result.waveform(run.harness.output_node)
        measurements[stage] = run.measurement
    input_waveform = None
    if runs:
        first = runs[0].harness
        input_waveform = runs[0].result.waveform(first.input_nodes[first.switching_pins[0]])

    return Fig6Result(
        tech_name=tech.name,
        site=site,
        sequence=sequence,
        output_waveforms=waveforms,
        input_waveform=input_waveform,
        measurements=measurements,
    )
