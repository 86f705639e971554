"""Two-pattern ATPG for path-delay faults.

A (non-robust) path-delay test is a pattern pair that functionally sensitizes
the path: the launch net makes the fault's edge and every net along the path
toggles between the two patterns (the criterion of
:func:`repro.faults.path_delay.is_sensitized`).

Because the circuit is combinational, the two patterns can be justified
independently: fix a value for every path net in the *second* pattern (the
launch net's value is dictated by the edge direction, interior values are
free in a non-robust test), require the complement of each value in the
*first* pattern, and hand both cubes to the PODEM justification engine.  The
branch tried first assigns interior values by the inversion parity of the
driving gates -- the assignment a glitch-free single-path propagation would
produce -- so typical paths succeed without backtracking over branches; the
remaining ``2**(len(path) - 1)`` assignments are explored in increasing
Hamming distance from that preference.  A fault is reported untestable only
after every branch has been exhausted without an abort.
"""

from __future__ import annotations

from itertools import combinations

from ..faults.path_delay import RISING, PathDelayFault
from ..logic.netlist import LogicCircuit
from .podem import PodemOptions, justify
from .two_pattern import AtpgOutcome, pair_outcome

#: Cap on the number of interior value assignments explored per fault.
MAX_BRANCHES = 256


def _preferred_values(circuit: LogicCircuit, nets, launch_value: int) -> list[int]:
    """Second-pattern path-net values under single-path inversion parity."""
    values = [launch_value]
    for net in nets[1:]:
        driver = circuit.driver_of(net)
        invert = driver is not None and driver.gate_type.is_inverting
        values.append(1 - values[-1] if invert else values[-1])
    return values


def _value_candidates(circuit: LogicCircuit, nets, launch_value: int, limit: int):
    """Candidate second-pattern assignments, parity-preferred branch first.

    Assignments are generated lazily in increasing Hamming distance from the
    parity preference (never materializing the ``2**(len(nets)-1)`` space),
    so the ``limit`` cap bounds the work even for very long paths.
    """
    preferred = _preferred_values(circuit, nets, launch_value)
    free = len(nets) - 1
    emitted = 0
    for distance in range(free + 1):
        for flip_positions in combinations(range(free), distance):
            if emitted >= limit:
                return
            values = list(preferred)
            for position in flip_positions:
                values[position + 1] = 1 - values[position + 1]
            emitted += 1
            yield tuple(values)


def generate_path_delay_test(
    circuit: LogicCircuit,
    fault: PathDelayFault,
    options: PodemOptions | None = None,
) -> AtpgOutcome:
    """Generate a two-pattern (non-robust) test for a path-delay fault."""
    options = options or PodemOptions()
    launch_value = 1 if fault.direction == RISING else 0
    run = []
    truncated = 2 ** (len(fault.nets) - 1) > MAX_BRANCHES

    for second_values in _value_candidates(circuit, fault.nets, launch_value, MAX_BRANCHES):
        capture_cube = dict(zip(fault.nets, second_values))
        launch_cube = {net: 1 - value for net, value in capture_cube.items()}

        capture = justify(circuit, capture_cube, options=options)
        run.append(capture)
        if not capture.success:
            continue

        launch = justify(circuit, launch_cube, options=options)
        run.append(launch)
        if launch.success:
            return pair_outcome(circuit, fault, run, found=True)

    return pair_outcome(circuit, fault, run, truncated=truncated)
