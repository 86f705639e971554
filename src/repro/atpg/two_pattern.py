"""The per-fault ATPG outcome, and two-pattern tests for transition faults.

Every test generator in :mod:`repro.atpg` and every fault model's
``generate_test`` returns one :class:`AtpgOutcome` per fault.  The two-pattern
generators (transition, path-delay, OBD) build it with :func:`pair_outcome`
from the searches they ran.

A transition fault test is a pair of patterns: the first sets the fault net
to its pre-transition value, the second both launches the opposite value and
propagates the (slow) transition to a primary output -- the latter is exactly
a stuck-at test for the pre-transition value at the fault net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..faults.base import Fault
from ..faults.stuck_at import StuckAtFault
from ..faults.transition import TransitionFault
from ..logic.netlist import LogicCircuit
from .podem import (
    ABORTED,
    PROVEN_REDUNDANT,
    TESTED,
    PodemOptions,
    StructuralResult,
    generate_stuck_at_test,
    justify,
)


@dataclass(frozen=True)
class AtpgOutcome:
    """Uniform per-fault result of deterministic test generation.

    ``tests`` holds zero or more tests in the model's native shape (a pattern
    tuple for single-pattern models, a ``(first, second)`` pair for
    two-pattern models).
    """

    fault: Fault
    success: bool
    tests: tuple = ()
    backtracks: int = 0
    aborted: bool = False
    #: PODEM decision count (assignments tried), the second half of the
    #: classical search-effort pair alongside ``backtracks``.
    decisions: int = 0
    #: Net values derived by implication (structural engines only; the
    #: two-rail PODEM reports 0 here).
    implications: int = 0

    @property
    def untestable(self) -> bool:
        """Search exhausted without aborting: the fault is proven untestable."""
        return not self.success and not self.aborted

    @property
    def status(self) -> str:
        """Three-way outcome: ``tested`` / ``proven_redundant`` / ``aborted``."""
        if self.success:
            return TESTED
        return ABORTED if self.aborted else PROVEN_REDUNDANT


def pattern_tuple(circuit: LogicCircuit, pattern: dict[str, int]) -> tuple[int, ...]:
    """A PODEM pattern dict as a tuple in primary-input order."""
    return tuple(pattern[n] for n in circuit.primary_inputs)


def pair_outcome(
    circuit: LogicCircuit,
    fault: Fault,
    searches: Sequence[StructuralResult],
    found: bool = False,
    truncated: bool = False,
) -> AtpgOutcome:
    """The outcome of two-pattern test generation from its *searches*, in order.

    With *found*, the last two searches are the capture search and the
    launch justification of the test.  The effort counters sum over every
    search run, reused ones included.  Without a test the fault is aborted
    when any search aborted or the candidate space was *truncated*, and
    proven untestable otherwise.
    """
    tests = ()
    if found:
        capture, launch = searches[-2:]
        tests = ((pattern_tuple(circuit, launch.pattern), pattern_tuple(circuit, capture.pattern)),)
    return AtpgOutcome(
        fault,
        found,
        tests,
        sum(search.backtracks for search in searches),
        not found and (truncated or any(search.aborted for search in searches)),
        decisions=sum(search.decisions for search in searches),
        implications=sum(search.implications for search in searches),
    )


def generate_transition_test(
    circuit: LogicCircuit,
    fault: TransitionFault,
    options: PodemOptions | None = None,
    atpg_engine: str | None = None,
) -> AtpgOutcome:
    """Generate a two-pattern test for a slow-to-rise / slow-to-fall fault.

    *atpg_engine* selects the structural engine for the capture half (the
    stuck-at search); None keeps the two-rail PODEM.  The launch pattern is
    pure justification either way.
    """
    options = options or PodemOptions()

    # Capture pattern: detect "net stuck at the pre-transition value".
    stuck = StuckAtFault(fault.net, fault.launch_value)
    if atpg_engine is None:
        capture = generate_stuck_at_test(circuit, stuck, options=options)
    else:
        # Imported here: structural sits on top of this module's sibling.
        from .structural import get_atpg_engine

        capture = get_atpg_engine(atpg_engine).generate(circuit, stuck, options)
    if not capture.success:
        return pair_outcome(circuit, fault, [capture])

    # Launch pattern: justify the pre-transition value at the fault net.
    launch = justify(circuit, {fault.net: fault.launch_value}, options=options)
    return pair_outcome(circuit, fault, [capture, launch], found=launch.success)
