"""Gate-level excitation analysis for oxide-breakdown defects.

Section 4.1 and Section 5 of the paper reduce the circuit-level behaviour to
a structural rule:

    "The OBD breakdown of a transistor can be detected at an output node only
    if that transistor is excited at the switching of the output node and if
    no other transistor that is connected to the defective transistor in
    parallel is excited."

This module implements that rule on a switch-level view of each gate: the
pull-up and pull-down networks are graphs of transistor "switches", a
two-pattern sequence excites a defect when the output switches, the defective
device conducts in the second pattern, and every conducting path of the
switching network runs through it (no parallel bypass).

The same machinery also evaluates the *electromigration* (EM) exercise
condition used by the Section-5 comparison: an EM defect in a transistor is
exercised whenever switching current flows through the device, i.e. it lies
on at least one conducting path -- a strictly weaker requirement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from ..cells.builder import build_cell, pin_names
from ..cells.technology import default_technology
from ..logic.gates import GateType, all_input_patterns, evaluate_gate
from ..spice.netlist import Circuit

#: A two-pattern sequence on a gate's inputs, e.g. ((0, 1), (1, 1)).
Sequence2 = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class SwitchDevice:
    """A transistor viewed as a switch between two network nodes."""

    site: str
    input_pin: str
    polarity: str
    node_a: str
    node_b: str

    def conducts(self, pattern: Sequence[int], pins: Sequence[str]) -> bool:
        """True when the device is turned on by the given input pattern."""
        bit = pattern[list(pins).index(self.input_pin)]
        return bit == 1 if self.polarity == "n" else bit == 0


@dataclass(frozen=True)
class GateStructure:
    """Switch-level view of one gate type."""

    gate_type: GateType
    pins: tuple[str, ...]
    output_node: str
    power_node: str
    ground_node: str
    pull_up: tuple[SwitchDevice, ...]
    pull_down: tuple[SwitchDevice, ...]

    @property
    def sites(self) -> list[str]:
        return [d.site for d in self.pull_up + self.pull_down]

    def device(self, site: str) -> SwitchDevice:
        for dev in self.pull_up + self.pull_down:
            if dev.site == site.upper():
                return dev
        raise KeyError(f"{self.gate_type.value} has no transistor site {site!r}")

    def network_of(self, site: str) -> tuple[str, tuple[SwitchDevice, ...]]:
        """Return ("pull_up"|"pull_down", devices) for the network holding *site*."""
        site = site.upper()
        if any(d.site == site for d in self.pull_up):
            return "pull_up", self.pull_up
        if any(d.site == site for d in self.pull_down):
            return "pull_down", self.pull_down
        raise KeyError(f"{self.gate_type.value} has no transistor site {site!r}")


@lru_cache(maxsize=None)
def gate_structure(gate_type: GateType | str) -> GateStructure:
    """Switch-level structure of a gate type, derived from the cell library.

    The structure is obtained by instantiating the transistor-level cell into
    a scratch circuit and reading back its transistor terminal connectivity,
    so the excitation analysis always agrees with the circuits actually
    simulated.
    """
    gate_type = GateType(gate_type)
    if gate_type in (GateType.BUF, GateType.XOR2, GateType.XNOR2, GateType.AND2, GateType.AND3, GateType.OR2, GateType.OR3):
        raise ValueError(
            f"{gate_type.value} is not a single static CMOS stage; decompose it into "
            "INV/NAND/NOR/AOI/OAI cells for OBD analysis"
        )
    pins = tuple(pin_names(gate_type.num_inputs))
    scratch = Circuit(f"structure-{gate_type.value}")
    scratch.add_voltage_source("vdd", "vdd", "0", dc=default_technology().vdd)
    cell = build_cell(
        scratch,
        default_technology(),
        gate_type.value,
        "g",
        [f"in_{p.lower()}" for p in pins],
        "out",
        vdd="vdd",
        gnd="0",
    )
    pull_up = []
    pull_down = []
    for t in cell.transistors:
        device = SwitchDevice(
            site=t.site,
            input_pin=t.input_pin,
            polarity=t.polarity,
            node_a=t.drain,
            node_b=t.source,
        )
        if t.network == "pull_up":
            pull_up.append(device)
        else:
            pull_down.append(device)
    return GateStructure(
        gate_type=gate_type,
        pins=pins,
        output_node=cell.output,
        power_node=cell.vdd,
        ground_node=cell.gnd,
        pull_up=tuple(pull_up),
        pull_down=tuple(pull_down),
    )


# --------------------------------------------------------------------------- #
# Path analysis on the conducting sub-network.
# --------------------------------------------------------------------------- #
def _conducting_paths(
    structure: GateStructure,
    network: Iterable[SwitchDevice],
    pattern: Sequence[int],
    rail: str,
) -> list[list[SwitchDevice]]:
    """All simple conducting paths from the output node to *rail*."""
    conducting = [d for d in network if d.conducts(pattern, structure.pins)]
    adjacency: dict[str, list[tuple[str, SwitchDevice]]] = {}
    for dev in conducting:
        adjacency.setdefault(dev.node_a, []).append((dev.node_b, dev))
        adjacency.setdefault(dev.node_b, []).append((dev.node_a, dev))

    paths: list[list[SwitchDevice]] = []

    def _walk(node: str, visited: set[str], used: list[SwitchDevice]) -> None:
        if node == rail:
            paths.append(list(used))
            return
        for neighbour, device in adjacency.get(node, []):
            if neighbour in visited or device in used:
                continue
            used.append(device)
            _walk(neighbour, visited | {neighbour}, used)
            used.pop()

    _walk(structure.output_node, {structure.output_node}, [])
    return paths


def _active_network(
    structure: GateStructure, output_value: int
) -> tuple[str, tuple[SwitchDevice, ...], str]:
    """Network responsible for driving the output to *output_value*."""
    if output_value == 0:
        return "pull_down", structure.pull_down, structure.ground_node
    return "pull_up", structure.pull_up, structure.power_node


def output_switches(gate_type: GateType | str, sequence: Sequence2) -> bool:
    """True when the two-pattern sequence toggles the gate output."""
    gate_type = GateType(gate_type)
    v1, v2 = sequence
    return evaluate_gate(gate_type, v1) != evaluate_gate(gate_type, v2)


def is_excited_obd(gate_type: GateType | str, site: str, sequence: Sequence2) -> bool:
    """Does *sequence* excite (make observable) the OBD defect at *site*?

    Implements the paper's rule: the output must switch, the defective
    transistor must conduct in the final pattern as part of the network that
    performs the switching, and no parallel conducting bypass may exist
    (every conducting path must run through the defective device).
    """
    structure = gate_structure(gate_type)
    site = site.upper()
    v1, v2 = sequence
    out1 = evaluate_gate(structure.gate_type, v1)
    out2 = evaluate_gate(structure.gate_type, v2)
    if out1 == out2:
        return False

    network_name, network, rail = _active_network(structure, out2)
    device = structure.device(site)
    owner, _ = structure.network_of(site)
    if owner != network_name:
        return False
    if not device.conducts(v2, structure.pins):
        return False

    paths = _conducting_paths(structure, network, v2, rail)
    if not paths:
        return False
    return all(device in path for path in paths)


def is_exercised_em(gate_type: GateType | str, site: str, sequence: Sequence2) -> bool:
    """Does *sequence* push switching current through the transistor at *site*?

    This is the (weaker) excitation requirement of intra-gate
    electromigration defects used by the Section-5 comparison: the device
    only needs to lie on *some* conducting path of the switching network.
    """
    structure = gate_structure(gate_type)
    site = site.upper()
    v1, v2 = sequence
    out1 = evaluate_gate(structure.gate_type, v1)
    out2 = evaluate_gate(structure.gate_type, v2)
    if out1 == out2:
        return False

    network_name, network, rail = _active_network(structure, out2)
    device = structure.device(site)
    owner, _ = structure.network_of(site)
    if owner != network_name:
        return False
    if not device.conducts(v2, structure.pins):
        return False

    paths = _conducting_paths(structure, network, v2, rail)
    return any(device in path for path in paths)


def all_sequences(gate_type: GateType | str) -> list[Sequence2]:
    """All ordered two-pattern sequences (v1 != v2) on the gate's inputs."""
    gate_type = GateType(gate_type)
    patterns = all_input_patterns(gate_type.num_inputs)
    return [(v1, v2) for v1 in patterns for v2 in patterns if v1 != v2]


def excitation_conditions(
    gate_type: GateType | str, site: str, mode: str = "obd"
) -> list[Sequence2]:
    """All two-pattern sequences that excite the defect at *site*.

    ``mode`` selects the OBD rule (default) or the EM rule.  The switch-level
    path walk runs once per gate type, site and mode; every call returns a
    fresh list.
    """
    return list(_excitation_conditions(GateType(gate_type), site.upper(), mode))


@lru_cache(maxsize=None)
def _excitation_conditions(gate_type: GateType, site: str, mode: str) -> tuple[Sequence2, ...]:
    predicate = is_excited_obd if mode == "obd" else is_exercised_em
    return tuple(seq for seq in all_sequences(gate_type) if predicate(gate_type, site, seq))


def excited_sites(gate_type: GateType | str, sequence: Sequence2, mode: str = "obd") -> set[str]:
    """All defect sites of the gate excited by *sequence*."""
    structure = gate_structure(gate_type)
    predicate = is_excited_obd if mode == "obd" else is_exercised_em
    return {site for site in structure.sites if predicate(gate_type, site, sequence)}


def format_sequence(sequence: Sequence2) -> str:
    """Render a sequence the way the paper writes it, e.g. ``(01,11)``."""
    v1, v2 = sequence
    return "({},{})".format("".join(str(b) for b in v1), "".join(str(b) for b in v2))
