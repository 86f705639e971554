"""Necessary-and-sufficient gate test sets for OBD defects.

Section 4.1 of the paper derives, for the 2-input NAND, that one sequence
from {(10,11), (00,11), (01,11)} together with the sequences (11,10) and
(11,01) is necessary and sufficient to detect all four OBD defects; Section 5
gives the analogous result for the NOR.  This module computes those sets for
any supported gate from the excitation analysis, and compares them with the
test requirements of intra-gate electromigration (EM) defects.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from ..logic.gates import GateType
from .excitation import (
    Sequence2,
    all_sequences,
    excitation_conditions,
    excited_sites,
    format_sequence,
    gate_structure,
)


@dataclass(frozen=True)
class GateTestSet:
    """Summary of the per-gate OBD (or EM) detection requirements.

    Attributes
    ----------
    gate_type:
        The gate analysed.
    mode:
        ``"obd"`` or ``"em"``.
    site_conditions:
        For every defect site, the full list of detecting sequences.
    minimal_set:
        One minimum-cardinality set of sequences covering every detectable
        site (computed exactly for these small gates).
    undetectable_sites:
        Sites with no detecting sequence at all.
    essential_groups:
        The "necessary" structure the paper reports: for each equivalence
        class of sites, the alternative sequences any covering set must pick
        one of.
    """

    gate_type: GateType
    mode: str
    site_conditions: dict[str, tuple[Sequence2, ...]]
    minimal_set: tuple[Sequence2, ...]
    undetectable_sites: tuple[str, ...]
    essential_groups: tuple[tuple[Sequence2, ...], ...]

    @property
    def minimal_size(self) -> int:
        return len(self.minimal_set)

    def detects(self, sequences: Iterable[Sequence2]) -> set[str]:
        """Sites detected by the given collection of sequences."""
        chosen = set(sequences)
        return {
            site
            for site, conditions in self.site_conditions.items()
            if chosen.intersection(conditions)
        }

    def covers_all(self, sequences: Iterable[Sequence2]) -> bool:
        """True when *sequences* detect every detectable site."""
        detectable = {s for s, c in self.site_conditions.items() if c}
        return detectable.issubset(self.detects(sequences))

    def describe(self) -> str:
        """Human-readable summary in the paper's notation."""
        lines = [f"{self.gate_type.value} {self.mode.upper()} test requirements:"]
        for site, conditions in sorted(self.site_conditions.items()):
            if not conditions:
                lines.append(f"  {site}: undetectable")
                continue
            rendered = ", ".join(format_sequence(seq) for seq in conditions)
            lines.append(f"  {site}: any of {{{rendered}}}")
        rendered_min = ", ".join(format_sequence(seq) for seq in self.minimal_set)
        lines.append(f"  minimal covering set ({self.minimal_size}): {{{rendered_min}}}")
        return "\n".join(lines)


def analyze_gate(gate_type: GateType | str, mode: str = "obd") -> GateTestSet:
    """Compute the per-site conditions and a minimum covering test set."""
    gate_type = GateType(gate_type)
    structure = gate_structure(gate_type)
    site_conditions = {
        site: tuple(excitation_conditions(gate_type, site, mode=mode))
        for site in structure.sites
    }
    detectable = {site for site, conds in site_conditions.items() if conds}
    undetectable = tuple(sorted(set(structure.sites) - detectable))

    minimal = _minimum_cover(gate_type, site_conditions, detectable, mode)
    groups = _essential_groups(site_conditions, detectable)
    return GateTestSet(
        gate_type=gate_type,
        mode=mode,
        site_conditions=site_conditions,
        minimal_set=minimal,
        undetectable_sites=undetectable,
        essential_groups=groups,
    )


def _minimum_cover(
    gate_type: GateType,
    site_conditions: dict[str, tuple[Sequence2, ...]],
    detectable: set[str],
    mode: str,
) -> tuple[Sequence2, ...]:
    """Exact minimum set cover over the gate's candidate sequences."""
    if not detectable:
        return ()
    candidates = [
        seq
        for seq in all_sequences(gate_type)
        if excited_sites(gate_type, seq, mode=mode) & detectable
    ]
    for size in range(1, len(candidates) + 1):
        for combo in combinations(candidates, size):
            covered: set[str] = set()
            for seq in combo:
                covered |= excited_sites(gate_type, seq, mode=mode)
            if detectable.issubset(covered):
                return tuple(combo)
    return tuple(candidates)


def _essential_groups(
    site_conditions: dict[str, tuple[Sequence2, ...]],
    detectable: set[str],
) -> tuple[tuple[Sequence2, ...], ...]:
    """Group sites by their exact set of detecting sequences.

    Each group's sequence list is the set of interchangeable alternatives any
    complete test set must draw at least one element from (the paper's "one
    of {(10,11), (00,11), (01,11)}" phrasing).
    """
    by_conditions: dict[tuple[Sequence2, ...], list[str]] = {}
    for site in sorted(detectable):
        key = tuple(sorted(site_conditions[site]))
        by_conditions.setdefault(key, []).append(site)
    return tuple(sorted(by_conditions.keys(), key=lambda conds: (len(conds), conds)))


# --------------------------------------------------------------------------- #
# Paper-stated reference sets (used by tests and the experiment reports).
# --------------------------------------------------------------------------- #
NAND2_PAPER_FALLING_ALTERNATIVES: tuple[Sequence2, ...] = (
    ((1, 0), (1, 1)),
    ((0, 0), (1, 1)),
    ((0, 1), (1, 1)),
)
NAND2_PAPER_PA_SEQUENCE: Sequence2 = ((1, 1), (0, 1))
NAND2_PAPER_PB_SEQUENCE: Sequence2 = ((1, 1), (1, 0))

NOR2_PAPER_RISING_ALTERNATIVES: tuple[Sequence2, ...] = (
    ((1, 0), (0, 0)),
    ((0, 1), (0, 0)),
    ((1, 1), (0, 0)),
)
NOR2_PAPER_NA_SEQUENCE: Sequence2 = ((0, 0), (1, 0))
NOR2_PAPER_NB_SEQUENCE: Sequence2 = ((0, 0), (0, 1))


def paper_nand_test_set() -> list[Sequence2]:
    """The paper's necessary-and-sufficient NAND test set (one falling choice)."""
    return [
        NAND2_PAPER_FALLING_ALTERNATIVES[0],
        NAND2_PAPER_PB_SEQUENCE,
        NAND2_PAPER_PA_SEQUENCE,
    ]


def paper_nor_test_set() -> list[Sequence2]:
    """The paper's necessary-and-sufficient NOR test set (one rising choice)."""
    return [
        NOR2_PAPER_RISING_ALTERNATIVES[0],
        NOR2_PAPER_NA_SEQUENCE,
        NOR2_PAPER_NB_SEQUENCE,
    ]


@dataclass(frozen=True)
class EmObdComparison:
    """Comparison of EM-oriented and OBD-oriented test requirements."""

    gate_type: GateType
    em_minimal: tuple[Sequence2, ...]
    obd_minimal: tuple[Sequence2, ...]
    em_set_covers_obd: bool
    obd_sites_missed_by_em_minimal: tuple[str, ...]

    def describe(self) -> str:
        em = ", ".join(format_sequence(s) for s in self.em_minimal)
        obd = ", ".join(format_sequence(s) for s in self.obd_minimal)
        missed = ", ".join(self.obd_sites_missed_by_em_minimal) or "none"
        return (
            f"{self.gate_type.value}: minimal EM set {{{em}}} "
            f"({len(self.em_minimal)} seqs), minimal OBD set {{{obd}}} "
            f"({len(self.obd_minimal)} seqs); EM-minimal covers OBD: "
            f"{self.em_set_covers_obd} (missed sites: {missed})"
        )


def compare_em_and_obd(gate_type: GateType | str) -> EmObdComparison:
    """Does a minimum EM-oriented test set also detect every OBD defect?

    This quantifies the paper's Section-5 warning: because EM only needs
    current through the device while OBD needs the device to be the sole
    conducting path, a test set that is minimal for EM can miss OBD defects
    (the effect shows up on gates with parallel branches).
    """
    gate_type = GateType(gate_type)
    em = analyze_gate(gate_type, mode="em")
    obd = analyze_gate(gate_type, mode="obd")

    detectable_obd = {s for s, c in obd.site_conditions.items() if c}
    covered = set()
    for seq in em.minimal_set:
        covered |= excited_sites(gate_type, seq, mode="obd")
    missed = tuple(sorted(detectable_obd - covered))
    return EmObdComparison(
        gate_type=gate_type,
        em_minimal=em.minimal_set,
        obd_minimal=obd.minimal_set,
        em_set_covers_obd=not missed,
        obd_sites_missed_by_em_minimal=missed,
    )
