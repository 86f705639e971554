"""Process technology description used by the transistor-level cell library.

The paper does not name its technology; the 3.3 V waveforms and ~100 ps NAND
delays point at a 0.35 um-class process, which is what the default
:class:`Technology` models with Level-1 parameters.  All cell builders take a
technology instance, so experiments can explore other operating points
(e.g. supply scaling) without touching the cell code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..spice.elements import MosfetModel


@dataclass(frozen=True)
class Technology:
    """Supply, device models and default geometry for cell construction.

    Attributes
    ----------
    name:
        Human-readable technology name.
    vdd:
        Supply voltage in volts.
    nmos / pmos:
        Level-1 model cards for the two device polarities.
    nmos_width / pmos_width:
        Default device widths in metres (PMOS wider to balance the weaker
        hole mobility).
    length:
        Drawn channel length in metres.
    series_width_factor:
        Width multiplier applied to stacked (series) devices so that e.g. the
        two series NMOS of a NAND roughly match a single inverter pull-down.
    """

    name: str = "generic-350nm-3p3v"
    vdd: float = 3.3
    nmos: MosfetModel = field(
        default_factory=lambda: MosfetModel(
            polarity="n", vto=0.6, kp=120e-6, lambda_=0.05, gamma=0.4, phi=0.7
        )
    )
    pmos: MosfetModel = field(
        default_factory=lambda: MosfetModel(
            polarity="p", vto=-0.7, kp=40e-6, lambda_=0.05, gamma=0.4, phi=0.7
        )
    )
    nmos_width: float = 0.5e-6
    pmos_width: float = 1.0e-6
    length: float = 0.35e-6
    series_width_factor: float = 1.0

    def __post_init__(self):
        if self.vdd <= 0.0:
            raise ValueError("vdd must be > 0")
        if self.nmos_width <= 0.0 or self.pmos_width <= 0.0 or self.length <= 0.0:
            raise ValueError("device geometry must be > 0")
        if self.nmos.polarity != "n" or self.pmos.polarity != "p":
            raise ValueError("technology nmos/pmos models have wrong polarity")

    # ------------------------------------------------------------------ #
    @property
    def half_vdd(self) -> float:
        """Logic threshold used for delay measurements (VDD / 2)."""
        return self.vdd / 2.0

    def logic_level(self, bit: int) -> float:
        """Voltage corresponding to logic 0 or 1."""
        if bit not in (0, 1):
            raise ValueError(f"logic level must be 0 or 1, got {bit}")
        return self.vdd if bit else 0.0


def default_technology() -> Technology:
    """The 3.3 V / 0.35 um-class technology used throughout the reproduction."""
    return Technology()
