"""Shared helpers for the reproduction experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..analysis.delay import TransitionMeasurement
from ..cells.characterize import characterize_harnesses
from ..cells.fixtures import TwoPatternSequence, build_gate_harness
from ..cells.technology import Technology, default_technology
from ..core.breakdown import BreakdownStage
from ..core.defect import OBDDefect
from ..core.injection import inject_into_harness
from ..logic.gates import GateType

#: Default transient time step for the experiment simulations.  4 ps keeps a
#: full Table-1 sweep under a couple of minutes while resolving ~60 ps gate
#: delays to a few percent.
DEFAULT_DT = 4e-12

#: Capture window after the launching edge; transitions that have not
#: completed by then are classified as stuck ("sa-0" / "sa-1"), mirroring the
#: observation windows of Figures 6 and 7.
DEFAULT_CAPTURE_WINDOW = 1.5e-9


@dataclass(frozen=True)
class GateDelayEntry:
    """One measured Table-1 style entry."""

    sequence: TwoPatternSequence
    site: Optional[str]
    stage: Optional[BreakdownStage]
    measurement: TransitionMeasurement

    @property
    def label(self) -> str:
        site = self.site or "fault-free"
        stage = self.stage.value if self.stage else "none"
        return f"{site}@{stage}"

    @property
    def table_entry(self) -> str:
        return self.measurement.table_entry()


#: One entry to measure: the input sequence, the defect site (None for the
#: fault-free gate) and the breakdown stage (None means MBD1 at a site).
EntryRequest = tuple[TwoPatternSequence, Optional[str], Optional[BreakdownStage]]


def measure_gate_obd_delays(
    gate_type: GateType | str,
    requests: Sequence[EntryRequest],
    tech: Technology | None = None,
    dt: float = DEFAULT_DT,
    capture_window: float = DEFAULT_CAPTURE_WINDOW,
    observation_window: float = 2.5e-9,
) -> list[GateDelayEntry]:
    """Measure entries of a Table-1 style characterization, in input order.

    Builds the Figure-5 harness for *gate_type* per request, injects the OBD
    defect at its site with the parameters of its stage, and simulates all
    harnesses together (:func:`~repro.cells.characterize.characterize_harnesses`)
    before measuring each output transition.
    """
    tech = tech or default_technology()
    harnesses = []
    for sequence, site, stage in requests:
        harness = build_gate_harness(
            tech,
            gate_type,
            sequence,
            observation_window=observation_window,
        )
        if site is not None:
            inject_into_harness(harness, OBDDefect(site=site, stage=stage or BreakdownStage.MBD1))
        harnesses.append(harness)
    runs = characterize_harnesses(harnesses, dt=dt, capture_window=capture_window)
    return [
        GateDelayEntry(sequence=sequence, site=site, stage=stage, measurement=run.measurement)
        for (sequence, site, stage), run in zip(requests, runs)
    ]


def measure_gate_obd_delay(
    gate_type: GateType | str,
    sequence: TwoPatternSequence,
    site: Optional[str] = None,
    stage: Optional[BreakdownStage] = None,
    tech: Technology | None = None,
    dt: float = DEFAULT_DT,
    capture_window: float = DEFAULT_CAPTURE_WINDOW,
    observation_window: float = 2.5e-9,
) -> GateDelayEntry:
    """Measure one entry of a Table-1 style characterization.

    Builds the Figure-5 harness for *gate_type*, optionally injects the OBD
    defect at *site* with the parameters of *stage*, simulates the two-pattern
    sequence and measures the output transition.
    """
    return measure_gate_obd_delays(
        gate_type, [(sequence, site, stage)], tech=tech, dt=dt,
        capture_window=capture_window, observation_window=observation_window,
    )[0]
