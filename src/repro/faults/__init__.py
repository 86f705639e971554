"""Fault models: stuck-at, transition and path-delay baselines plus OBD."""

from .base import Fault, FaultList
from .collapse import (
    collapse_stuck_at_dominance,
    collapse_stuck_at_faults,
    obd_equivalence_groups,
)
from .obd import ObdFault, obd_fault_universe
from .path_delay import FALLING, RISING, PathDelayFault, is_sensitized, path_delay_universe
from .stuck_at import StuckAtFault, stuck_at_universe
from .transition import (
    SLOW_TO_FALL,
    SLOW_TO_RISE,
    TransitionFault,
    transition_fault_universe,
)

__all__ = [
    "Fault",
    "FaultList",
    "StuckAtFault",
    "stuck_at_universe",
    "TransitionFault",
    "transition_fault_universe",
    "SLOW_TO_RISE",
    "SLOW_TO_FALL",
    "PathDelayFault",
    "path_delay_universe",
    "is_sensitized",
    "RISING",
    "FALLING",
    "ObdFault",
    "obd_fault_universe",
    "collapse_stuck_at_faults",
    "collapse_stuck_at_dominance",
    "obd_equivalence_groups",
]
