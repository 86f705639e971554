"""Oxide-breakdown defect descriptions.

An :class:`OBDDefect` identifies *where* a breakdown occurs (which transistor
of which gate) and *how far* it has progressed (its stage, or explicit
electrical parameters).  The circuit-level realization of the defect lives in
:mod:`repro.core.injection`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .breakdown import BreakdownParameters, BreakdownStage, stage_parameters


@dataclass(frozen=True)
class OBDDefect:
    """A single oxide-breakdown defect.

    Attributes
    ----------
    site:
        Paper-style site label within the gate: polarity letter plus the
        logical input pin, e.g. ``"NA"`` (NMOS driven by input A) or ``"PB"``.
    stage:
        Breakdown stage; determines the electrical parameters unless
        *parameters* overrides them.
    gate:
        Name of the gate instance holding the defective transistor.  For
        single-gate experiments (the Figure-5 harness) this can stay None,
        meaning "the device under test".
    parameters:
        Optional explicit :class:`BreakdownParameters`; when None, the
        Table-1 ladder for the site's polarity and the chosen stage is used.
    """

    site: str
    stage: BreakdownStage = BreakdownStage.MBD1
    gate: Optional[str] = None
    parameters: Optional[BreakdownParameters] = None

    def __post_init__(self):
        label = self.site.upper()
        if len(label) < 2 or label[0] not in ("N", "P"):
            raise ValueError(
                f"site label must be a polarity letter followed by a pin, got {self.site!r}"
            )
        object.__setattr__(self, "site", label)

    # ------------------------------------------------------------------ #
    @property
    def polarity(self) -> str:
        """Device polarity implied by the site label ('n' or 'p')."""
        return self.site[0].lower()

    @property
    def input_pin(self) -> str:
        """Logical input pin driving the defective transistor."""
        return self.site[1:]

    @property
    def effective_parameters(self) -> BreakdownParameters:
        """Electrical parameters to inject (explicit or stage-derived)."""
        if self.parameters is not None:
            return self.parameters
        return stage_parameters(self.polarity, self.stage)

    def in_gate(self, gate: str) -> "OBDDefect":
        """Copy of the defect bound to a specific gate instance."""
        return replace(self, gate=gate)

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``"g7/PA@mbd2"``."""
        prefix = f"{self.gate}/" if self.gate else ""
        return f"{prefix}{self.site}@{self.stage.value}"

    def __str__(self) -> str:
        return self.key
