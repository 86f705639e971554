"""Transition-delay extraction and stuck-output classification.

Table 1 of the paper reports, for each breakdown stage and input sequence,
either a transition delay in picoseconds or a stuck classification ("sa-1",
"sa-0") when the output never completes the expected transition.  This module
turns raw transient waveforms into exactly those entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..spice.waveform import Waveform


@dataclass(frozen=True)
class TransitionMeasurement:
    """Outcome of observing one expected output transition.

    Attributes
    ----------
    delay:
        50 %-to-50 % propagation delay in seconds, or None when the output
        never crossed the threshold in the expected direction within the
        capture window.
    classification:
        ``"transition"`` when a delay was measured; ``"sa-1"`` / ``"sa-0"``
        when the output stayed (logically) high / low instead of completing
        the expected falling / rising transition; ``"no-transition-expected"``
        when the stimulus does not toggle the output.
    launch_time:
        Time of the input edge that was supposed to launch the transition
        (None when no input edge was found).
    capture_deadline:
        End of the capture window used for the stuck classification.
    output_start / output_final:
        Output voltage at the launch instant and at the capture deadline.
    """

    delay: Optional[float]
    classification: str
    launch_time: Optional[float]
    capture_deadline: float
    output_start: float
    output_final: float

    @property
    def is_stuck(self) -> bool:
        return self.classification in ("sa-0", "sa-1")

    def table_entry(self) -> str:
        """Format the measurement the way Table 1 of the paper does."""
        if self.classification == "transition" and self.delay is not None:
            return f"{self.delay * 1e12:.0f}ps"
        return self.classification


def measure_transition(
    input_waveform: Waveform,
    output_waveform: Waveform,
    input_edge: str,
    output_edge: Optional[str],
    threshold: float,
    launch_after: float = 0.0,
    capture_window: Optional[float] = None,
) -> TransitionMeasurement:
    """Measure the output transition launched by an input edge.

    Parameters
    ----------
    input_waveform / output_waveform:
        Waveforms of the switching input and of the observed output.
    input_edge:
        ``"rising"`` or ``"falling"`` -- the direction of the launching edge.
    output_edge:
        Expected output edge direction, or None when the stimulus is not
        supposed to change the output.
    threshold:
        Logic threshold (typically VDD / 2).
    launch_after:
        Only consider input edges at or after this time (skips the settling
        of the first pattern).
    capture_window:
        How long after the launching edge the output is observed before a
        missing transition is classified as stuck.  Defaults to the remainder
        of the waveform.
    """
    if output_edge is None:
        final = output_waveform.final_value()
        return TransitionMeasurement(
            delay=None,
            classification="no-transition-expected",
            launch_time=None,
            capture_deadline=output_waveform.t_stop,
            output_start=output_waveform.at(launch_after),
            output_final=final,
        )

    t_launch = input_waveform.first_crossing(threshold, input_edge, after=launch_after)
    if t_launch is None:
        # The stimulus itself never switched -- report it as unobservable.
        return TransitionMeasurement(
            delay=None,
            classification="no-launch-edge",
            launch_time=None,
            capture_deadline=output_waveform.t_stop,
            output_start=output_waveform.at(launch_after),
            output_final=output_waveform.final_value(),
        )

    deadline = output_waveform.t_stop
    if capture_window is not None:
        deadline = min(deadline, t_launch + capture_window)

    t_out = output_waveform.first_crossing(threshold, output_edge, after=t_launch)
    output_start = output_waveform.at(t_launch)
    output_final = output_waveform.at(deadline)

    if t_out is not None and t_out <= deadline:
        return TransitionMeasurement(
            delay=t_out - t_launch,
            classification="transition",
            launch_time=t_launch,
            capture_deadline=deadline,
            output_start=output_start,
            output_final=output_final,
        )

    # No transition inside the capture window: the output looks stuck at its
    # pre-transition logic value.
    stuck = "sa-1" if output_edge == "falling" else "sa-0"
    return TransitionMeasurement(
        delay=None,
        classification=stuck,
        launch_time=t_launch,
        capture_deadline=deadline,
        output_start=output_start,
        output_final=output_final,
    )
