"""Edge-case inputs shared by the engine-parity tests of both word backends."""

from __future__ import annotations

from repro.faults import obd_fault_universe, stuck_at_universe


def late_tests(tests):
    """*tests* with all but the last five replaced by the first one.

    Faults the repeated test misses are first detected in the random tail,
    which at narrow widths lies in the ragged final block after at least two
    full ones -- the fault-dropping edge case of the block loop.
    """
    return [tests[0]] * (len(tests) - 5) + list(tests[-5:])


def same_net_stuck_at(circuit, count=3):
    """Stuck-at-0 and stuck-at-1 of *count* nets, few enough for one batch."""
    faults = list(stuck_at_universe(circuit))
    nets = list(dict.fromkeys(fault.net for fault in faults))[:count]
    chosen = [fault for fault in faults if fault.net in nets]
    assert len(chosen) == 2 * count
    return chosen


def one_gate_obd_faults(circuit):
    """Every OBD fault of the first gate whose faults differ in excitation.

    They share one forced row (the gate's held first-pattern output) but
    are gated by different local sequences.
    """
    by_gate = {}
    for fault in obd_fault_universe(circuit):
        by_gate.setdefault(fault.gate_name, []).append(fault)
    for faults in by_gate.values():
        if len({fault.local_sequences for fault in faults}) > 1:
            return faults
    raise AssertionError("no gate with differently excited OBD faults")
