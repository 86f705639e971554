"""Circuit container: a named collection of elements plus convenience builders."""

from __future__ import annotations

from typing import Iterator

from .elements import (
    Capacitor,
    CurrentSource,
    Diode,
    DiodeModel,
    Element,
    Mosfet,
    MosfetModel,
    Resistor,
    VoltageSource,
    is_ground,
)
from .errors import CircuitError


class Circuit:
    """A flat netlist of circuit elements.

    The circuit is the unit handed to every analysis
    (:func:`repro.spice.analysis.op.operating_point`,
    :func:`repro.spice.analysis.dc_sweep.dc_sweep`,
    :func:`repro.spice.analysis.transient.transient`).

    Elements are stored by unique name; node names are plain strings, and any
    of ``"0"``, ``"gnd"``, ``"GND"``, ``"ground"`` denotes the reference node.
    """

    def __init__(self, title: str = ""):
        self.title = title
        self._elements: dict[str, Element] = {}

    # ------------------------------------------------------------------ #
    # Container protocol.
    # ------------------------------------------------------------------ #
    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __getitem__(self, name: str) -> Element:
        try:
            return self._elements[name]
        except KeyError:
            raise CircuitError(f"no element named {name!r} in circuit {self.title!r}") from None

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> list[Element]:
        """All elements in insertion order."""
        return list(self._elements.values())

    def nodes(self) -> list[str]:
        """Sorted list of all non-ground node names."""
        names = {n for el in self._elements.values() for n in el.nodes if not is_ground(n)}
        return sorted(names)

    # ------------------------------------------------------------------ #
    # Mutation.
    # ------------------------------------------------------------------ #
    def add(self, element: Element) -> Element:
        """Add an element, enforcing unique names."""
        if element.name in self._elements:
            raise CircuitError(f"duplicate element name {element.name!r}")
        self._elements[element.name] = element
        return element

    def remove(self, name: str) -> Element:
        """Remove and return the element called *name*."""
        if name not in self._elements:
            raise CircuitError(f"cannot remove unknown element {name!r}")
        return self._elements.pop(name)

    def clone(self, title: str | None = None) -> "Circuit":
        """Deep copy of the circuit (elements lose their MNA indices)."""
        other = Circuit(title if title is not None else self.title)
        for el in self._elements.values():
            other.add(el.clone())
        return other

    # ------------------------------------------------------------------ #
    # Convenience builders.
    # ------------------------------------------------------------------ #
    def add_resistor(self, name: str, a: str, b: str, resistance: float) -> Resistor:
        return self.add(Resistor(name, a, b, resistance))

    def add_capacitor(self, name: str, a: str, b: str, capacitance: float) -> Capacitor:
        return self.add(Capacitor(name, a, b, capacitance))

    def add_diode(self, name: str, anode: str, cathode: str, model: DiodeModel) -> Diode:
        return self.add(Diode(name, anode, cathode, model))

    def add_voltage_source(
        self, name: str, p: str, n: str = "0", dc: float = 0.0, waveform=None
    ) -> VoltageSource:
        return self.add(VoltageSource(name, p, n, dc=dc, waveform=waveform))

    def add_current_source(
        self, name: str, p: str, n: str = "0", dc: float = 0.0, waveform=None
    ) -> CurrentSource:
        return self.add(CurrentSource(name, p, n, dc=dc, waveform=waveform))

    def add_mosfet(
        self,
        name: str,
        drain: str,
        gate: str,
        source: str,
        bulk: str,
        model: MosfetModel,
        width: float,
        length: float,
        with_caps: bool = True,
    ) -> Mosfet:
        """Add a MOSFET and (by default) its constant parasitic capacitors.

        The Level-1 device itself only models the channel current; the gate
        and junction capacitances returned by
        :meth:`repro.spice.elements.mosfet.MosfetModel.capacitances` are added
        as explicit capacitor elements named ``<name>:cgs`` etc.  These
        capacitances are what the oxide-breakdown leakage path competes with,
        so they must be present for the dynamic experiments of the paper.
        """
        device = Mosfet(name, drain, gate, source, bulk, model, width, length)
        self.add(device)
        if with_caps:
            caps = model.capacitances(width, length)
            pairs = {
                "cgs": (gate, source),
                "cgd": (gate, drain),
                "cgb": (gate, bulk),
                "cdb": (drain, bulk),
                "csb": (source, bulk),
            }
            for key, (node_a, node_b) in pairs.items():
                value = caps[key]
                if value <= 0.0 or node_a == node_b:
                    continue
                self.add_capacitor(f"{name}:{key}", node_a, node_b, value)
        return device

    # ------------------------------------------------------------------ #
    # Queries used by higher layers.
    # ------------------------------------------------------------------ #
    def mosfets(self) -> list[Mosfet]:
        """All MOSFET devices in the circuit."""
        return [el for el in self._elements.values() if isinstance(el, Mosfet)]

    def is_nonlinear(self) -> bool:
        """True when any element requires Newton iterations."""
        return any(el.is_nonlinear for el in self._elements.values())

    def summary(self) -> str:
        """One-line human readable summary (element and node counts)."""
        counts: dict[str, int] = {}
        for el in self._elements.values():
            counts[type(el).__name__] = counts.get(type(el).__name__, 0) + 1
        parts = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        return f"Circuit {self.title!r}: {len(self)} elements ({parts}), {len(self.nodes())} nodes"

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<Circuit {self.title!r} with {len(self)} elements>"
