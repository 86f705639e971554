"""Fault models: stuck-at, transition and path-delay baselines plus OBD."""

from .._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".base": ("Fault", "FaultList"),
    ".collapse": (
        "collapse_stuck_at_faults", "collapse_stuck_at_dominance", "obd_equivalence_groups",
    ),
    ".obd": ("ObdFault", "obd_fault_universe"),
    ".path_delay": ("PathDelayFault", "path_delay_universe", "is_sensitized", "RISING", "FALLING"),
    ".stuck_at": ("StuckAtFault", "stuck_at_universe"),
    ".transition": ("TransitionFault", "transition_fault_universe", "SLOW_TO_RISE", "SLOW_TO_FALL"),
})
