"""Oxide-breakdown stages and the diode-resistor model parameters.

The paper (Section 3.2, Figure 3) models a breakdown spot as a resistive
connection from the gate to a point inside the oxide, followed by pn
junctions to the source and the drain, plus a high-resistance connection to
the substrate.  Progression of the breakdown is captured by *increasing* the
diode saturation currents and *decreasing* the series resistance; Table 1
gives the exact ladder used for the NAND experiments, which is reproduced
verbatim here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class BreakdownStage(Enum):
    """Stages of the progressive oxide-breakdown process (Figure 1).

    ``FAULT_FREE`` is the paper's baseline row (the breakdown network is
    present but with negligible parameters); ``SBD`` is the early soft
    breakdown, ``MBD1``..``MBD3`` are the medium-breakdown points of Table 1,
    and ``HBD`` is the final hard breakdown (gate-oxide short).
    """

    FAULT_FREE = "fault_free"
    SBD = "sbd"
    MBD1 = "mbd1"
    MBD2 = "mbd2"
    MBD3 = "mbd3"
    HBD = "hbd"

    @property
    def order(self) -> int:
        """Monotonic severity index (0 = fault free, 5 = hard breakdown)."""
        return _STAGE_ORDER[self]

    def __lt__(self, other: "BreakdownStage") -> bool:
        if not isinstance(other, BreakdownStage):
            return NotImplemented
        return self.order < other.order

    @classmethod
    def progression(cls) -> list["BreakdownStage"]:
        """All stages from fault-free to hard breakdown, in order."""
        return sorted(cls, key=lambda s: s.order)


_STAGE_ORDER = {
    BreakdownStage.FAULT_FREE: 0,
    BreakdownStage.SBD: 1,
    BreakdownStage.MBD1: 2,
    BreakdownStage.MBD2: 3,
    BreakdownStage.MBD3: 4,
    BreakdownStage.HBD: 5,
}


@dataclass(frozen=True)
class BreakdownParameters:
    """Electrical parameters of the Figure-3 diode-resistor breakdown model.

    Attributes
    ----------
    saturation_current:
        Saturation current of the two pn junctions, in amperes.
    resistance:
        Resistance of the gate-to-breakdown-spot path, in ohms.
    substrate_resistance:
        Resistance of the (distant) connection from the breakdown spot to the
        substrate; the paper assumes it is large.
    ideality:
        Emission coefficient of the junctions.
    """

    saturation_current: float
    resistance: float
    substrate_resistance: float = 10e6
    ideality: float = 1.0

    def __post_init__(self):
        if self.saturation_current <= 0.0:
            raise ValueError("saturation current must be > 0")
        if self.resistance <= 0.0:
            raise ValueError("breakdown resistance must be > 0")
        if self.substrate_resistance <= 0.0:
            raise ValueError("substrate resistance must be > 0")


# --------------------------------------------------------------------------- #
# Table 1 parameter ladders.
#
# NMOS columns of Table 1:      Isat        R
#   Fault Free                  1e-30       10 kOhm
#   MBD1                        2e-28       500 Ohm
#   MBD2                        1e-27       100 Ohm
#   MBD3                        5e-27       20 Ohm
#   HBD                         2e-24       0.05 Ohm
#
# PMOS columns of Table 1:      Isat        R
#   Fault Free                  1e-30       10 kOhm
#   MBD1                        1e-29       1 kOhm
#   MBD2                        1.1e-29     900 Ohm
#   MBD3                        1.2e-29     830 Ohm
#   HBD                         (not given; the paper marks it N/A)
#
# The SBD rows are not tabulated by the paper; they are geometric midpoints
# between the fault-free and MBD1 parameters, provided so that the Figure-4
# style "soft breakdown" curves can be generated.
# --------------------------------------------------------------------------- #

NMOS_STAGE_PARAMETERS: dict[BreakdownStage, BreakdownParameters] = {
    BreakdownStage.FAULT_FREE: BreakdownParameters(1e-30, 10_000.0),
    BreakdownStage.SBD: BreakdownParameters(1e-29, 2_000.0),
    BreakdownStage.MBD1: BreakdownParameters(2e-28, 500.0),
    BreakdownStage.MBD2: BreakdownParameters(1e-27, 100.0),
    BreakdownStage.MBD3: BreakdownParameters(5e-27, 20.0),
    BreakdownStage.HBD: BreakdownParameters(2e-24, 0.05),
}

PMOS_STAGE_PARAMETERS: dict[BreakdownStage, BreakdownParameters] = {
    BreakdownStage.FAULT_FREE: BreakdownParameters(1e-30, 10_000.0),
    BreakdownStage.SBD: BreakdownParameters(3e-30, 3_000.0),
    BreakdownStage.MBD1: BreakdownParameters(1e-29, 1_000.0),
    BreakdownStage.MBD2: BreakdownParameters(1.1e-29, 900.0),
    BreakdownStage.MBD3: BreakdownParameters(1.2e-29, 830.0),
    # The paper stops the PMOS ladder at MBD3 ("N/A" for HBD).  A hard
    # breakdown is a gate-oxide short for either polarity, so the NMOS HBD
    # values are reused here as a documented extrapolation.
    BreakdownStage.HBD: BreakdownParameters(2e-24, 0.05),
}

#: Stages for which the paper's Table 1 provides measured parameters.
TABLE1_NMOS_STAGES = (
    BreakdownStage.FAULT_FREE,
    BreakdownStage.MBD1,
    BreakdownStage.MBD2,
    BreakdownStage.MBD3,
    BreakdownStage.HBD,
)
TABLE1_PMOS_STAGES = (
    BreakdownStage.FAULT_FREE,
    BreakdownStage.MBD1,
    BreakdownStage.MBD2,
    BreakdownStage.MBD3,
)


def stage_parameters(polarity: str, stage: BreakdownStage) -> BreakdownParameters:
    """Table-1 breakdown parameters for the given device polarity and stage."""
    polarity = polarity.lower()
    if polarity == "n":
        return NMOS_STAGE_PARAMETERS[stage]
    if polarity == "p":
        return PMOS_STAGE_PARAMETERS[stage]
    raise ValueError(f"polarity must be 'n' or 'p', got {polarity!r}")


def stage_ladder(polarity: str) -> dict[BreakdownStage, BreakdownParameters]:
    """The full stage ladder for a device polarity (copy of the module table)."""
    polarity = polarity.lower()
    if polarity == "n":
        return dict(NMOS_STAGE_PARAMETERS)
    if polarity == "p":
        return dict(PMOS_STAGE_PARAMETERS)
    raise ValueError(f"polarity must be 'n' or 'p', got {polarity!r}")
