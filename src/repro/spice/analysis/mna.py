"""Modified nodal analysis: row assignment and the stamp plan.

:class:`MnaSystem` assigns matrix rows to a circuit's nodes and source
branches and compiles the circuit once into :class:`CircuitStamps`, the
index tuples of its stamps.  A :class:`StampPlan` assembles the linearized
systems ``G @ x = b`` of one or more circuits whose stamps have the same
:attr:`CircuitStamps.shape`, as one batch for
:func:`~repro.spice.analysis.solver.lockstep_newton_solve`, the one Newton
loop.  A lone circuit is a plan of one member, :attr:`MnaSystem.plan`;
:func:`~repro.spice.analysis.transient.transient_sweep` builds one plan per
group of equal-shape circuits.  The plan splits the stamps by how often they
change, each tier one array expression over every member:

* **per plan** -- resistor conductances and the voltage-source incidence,
  held in one dense matrix per member;
* **per time grid** -- every member's sources at all the grid's times,
  evaluated by :meth:`StampPlan.source_terms` (a piecewise-linear waveform by
  :meth:`~repro.spice.elements.PiecewiseLinearWaveform.sample`, any other
  callable at each time);
* **per solve** -- one time's source terms scattered with one
  ``np.bincount``, the capacitor companion conductances (cached per
  ``(dt, method)``, one entry per step size seen), the capacitor history
  currents computed from ``ctx.x_prev``, and ``gmin`` on the node diagonal;
* **per Newton iteration** -- the devices of all members, evaluated together
  by the array models (:class:`~repro.spice.elements.MosfetBank`,
  :class:`~repro.spice.elements.DiodeBank`) into buffers owned by the plan,
  and scattered with one ``np.bincount`` into a flat ``(members * dim**2)``
  matrix, each MOSFET at its forward or reverse positions.

Each member's contributions keep the order of its own stamps, so its matrix
and right-hand side equal those of its own one-member plan bit for bit.

The matrices carry ground as an extra row and column (index ``size``), so no
stamp branches on ground; the solve uses the leading ``size x size`` block.
:meth:`Element.stamp <repro.spice.elements.Element.stamp>` into a
:class:`~repro.spice.elements.Stamper` remains the scalar reference the plan
is tested against.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from ..elements import (
    Capacitor,
    CurrentSource,
    Diode,
    DiodeBank,
    Element,
    Mosfet,
    MosfetBank,
    PiecewiseLinearWaveform,
    Resistor,
    StampContext,
    VoltageSource,
    is_ground,
)
from ..errors import CircuitError
from ..netlist import Circuit

#: Signs of the four cells ``(a,a), (b,b), (a,b), (b,a)`` of a conductance stamp.
_CONDUCTANCE_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


class CircuitStamps:
    """The stamps of one circuit as index tuples, compiled by :class:`MnaSystem`.

    Matrix cells are addressed by flat index ``row * (size + 1) + column``
    into the ground-padded matrix.
    """

    def __init__(self, elements: Iterable[Element], size: int, num_nodes: int):
        self.size = size
        self.num_nodes = num_nodes
        dim = self.dim = size + 1
        #: The flat padded matrix of the resistors and voltage sources.
        self.linear = np.zeros(dim * dim)
        self.voltage_sources: list[tuple[VoltageSource, int]] = []
        self.current_sources: list[tuple[CurrentSource, int, int]] = []
        #: ``(device, pins, forward, reverse)``; each direction is the cells of
        #: the gds, gm and gmb stamps and the rows of the current.
        self.mosfets: list[tuple] = []
        #: ``(device, (anode, cathode), cells)``.
        self.diodes: list[tuple] = []
        #: Capacitors with a nonzero capacitance, in the order of
        #: ``StampContext.capacitor_currents``.
        self.capacitors: list[Capacitor] = []
        self.capacitor_pins: list[tuple[int, int]] = []
        self.capacitor_cells: list[tuple[int, int, int, int]] = []

        for element in elements:
            pins = tuple(size if i < 0 else i for i in element.indices)
            if isinstance(element, Resistor):
                np.add.at(
                    self.linear, list(self._conductance_cells(*pins)),
                    element.conductance * _CONDUCTANCE_SIGNS,
                )
            elif isinstance(element, VoltageSource):
                p, n = pins
                row = element.branch_index
                np.add.at(
                    self.linear, [p * dim + row, n * dim + row, row * dim + p, row * dim + n],
                    [1.0, -1.0, 1.0, -1.0],
                )
                self.voltage_sources.append((element, row))
            elif isinstance(element, CurrentSource):
                self.current_sources.append((element, *pins))
            elif isinstance(element, Capacitor):
                if element.capacitance != 0.0:
                    self.capacitors.append(element)
                    self.capacitor_pins.append(pins)
                    self.capacitor_cells.append(self._conductance_cells(*pins))
            elif isinstance(element, Mosfet):
                d, g, s, b = pins
                forward = (self._mosfet_cells(d, g, s, b), (d, s))
                reverse = (self._mosfet_cells(s, g, d, b), (s, d))
                self.mosfets.append((element, pins, forward, reverse))
            elif isinstance(element, Diode):
                a, c = pins
                self.diodes.append((element, (a, c), self._conductance_cells(a, c)))
            else:
                raise CircuitError(
                    f"element {element.name!r}: no compiled stamp for {type(element).__name__}"
                )

    @property
    def shape(self) -> tuple[int, int, int, int, int]:
        """``(size, num_nodes, mosfets, diodes, capacitors)``; circuits of equal
        shape share one :class:`StampPlan`."""
        return (self.size, self.num_nodes, len(self.mosfets), len(self.diodes),
                len(self.capacitors))

    def _conductance_cells(self, a: int, b: int) -> tuple[int, int, int, int]:
        dim = self.dim
        return (a * dim + a, b * dim + b, a * dim + b, b * dim + a)

    def _mosfet_cells(self, d: int, g: int, s: int, b: int) -> tuple[int, ...]:
        """Cells of the gds, gm and gmb stamps with effective drain *d*."""
        dim = self.dim
        return (d * dim + d, s * dim + s, d * dim + s, s * dim + d,
                d * dim + g, s * dim + g, d * dim + b, s * dim + b)


class StampPlan:
    """The stamps of one or more equal-shape circuits, assembled as one batch.

    Member ``m``'s padded matrix and RHS occupy the flat cells
    ``m * dim**2 + cell`` and rows ``m * dim + row`` (``dim = size + 1``), so
    one ``np.bincount`` scatters every member's stamps.  Solutions, previous
    solutions and Newton iterates are ``(members, size)`` arrays; a lone
    circuit's ``(size,)`` vector stands for its one row.

    The assembly writes into buffers owned by the plan, so one plan serves
    one solve at a time.
    """

    #: Companion entries kept per plan.  A fixed-step grid still takes a
    #: handful of step sizes that differ in the last place (``t_to - t_from``
    #: rounds differently along the grid), and step halving adds more; the
    #: oldest entry is dropped beyond this.
    COMPANION_ENTRIES = 32

    def __init__(self, circuits: Sequence[CircuitStamps]):
        shapes = {circuit.shape for circuit in circuits}
        if len(shapes) != 1:
            raise CircuitError(f"cannot stack circuits of different shapes {sorted(shapes)}")
        first = circuits[0]
        self.size, self.num_nodes = first.size, first.num_nodes
        dim = self._dim = first.dim
        members = self.members = len(circuits)
        rows = np.arange(members)[:, None] * dim
        cells = rows * dim
        self._companions: dict[tuple[float, str], tuple[np.ndarray, np.ndarray]] = {}

        def by_member(values, offset, width):
            """Per-device index tuples of all members, offset into the batch."""
            array = np.array(values, dtype=np.intp).reshape(members, -1 if values else 0, width)
            return (array + offset[:, :, None]).reshape(-1, width)

        mosfets = [entry for circuit in circuits for entry in circuit.mosfets]
        self._mosfets = MosfetBank([device for device, *_ in mosfets])
        self._mosfet_pins = by_member([pins for _, pins, _, _ in mosfets], rows, 4).T
        # Forward and reverse stamp positions, indexed by the reversed flag.
        self._mosfet_cells = np.stack([
            by_member([fwd[0] for *_, fwd, _ in mosfets], cells, 8),
            by_member([rev[0] for *_, rev in mosfets], cells, 8),
        ])
        self._mosfet_ends = np.stack([
            by_member([fwd[1] for *_, fwd, _ in mosfets], rows, 2),
            by_member([rev[1] for *_, rev in mosfets], rows, 2),
        ])

        diodes = [entry for circuit in circuits for entry in circuit.diodes]
        self._diodes = DiodeBank([device for device, *_ in diodes])
        ends = by_member([pins for _, pins, _ in diodes], rows, 2)
        self._diode_pins = ends.T

        # Assembly buffers: padded node voltages (the ground column stays 0),
        # the stamp values of every device in scatter order with their matrix
        # cells, and each device's ``(-ieq, ieq)`` current pair with its RHS
        # rows.  The MOSFETs' cells and rows are picked at each assembly.
        n, d = len(mosfets), len(diodes)
        self._voltages = np.zeros((members, dim))
        self._stamps = np.empty(8 * n + 4 * d)
        self._mosfet_stamps = self._stamps[: 8 * n].reshape(n, 8)
        self._diode_stamps = self._stamps[8 * n:].reshape(d, 4)
        self._currents = np.empty((n + d, 2))
        self._cells = np.concatenate([
            self._mosfet_cells[0].ravel(), by_member([dc for *_, dc in diodes], cells, 4).ravel()
        ])
        self._rows = np.concatenate([self._mosfet_ends[0].ravel(), ends.ravel()])
        self._mosfet_cell_picks = self._cells[: 8 * n].reshape(n, 8)
        self._mosfet_end_picks = self._rows[: 2 * n].reshape(n, 2)
        self._capacitor_nodes = np.zeros((members, dim))

        # Capacitor indices are grouped by stamp position: all first terminals,
        # then all second ones, and the four conductance cells likewise.
        self._cap_pins = (
            by_member([pins for circuit in circuits for pins in circuit.capacitor_pins], rows, 2)
            .reshape(members, -1, 2).transpose(2, 0, 1).reshape(2, -1)
        )
        self._cap_rows = self._cap_pins.ravel()
        self._cap_cells = (
            by_member([c for circuit in circuits for c in circuit.capacitor_cells], cells, 4)
            .reshape(members, -1, 4).transpose(0, 2, 1).ravel()
        )
        capacitors = [c for circuit in circuits for c in circuit.capacitors]
        self._capacitance = np.array([c.capacitance for c in capacitors]).reshape(
            members, len(first.capacitors)
        )
        self._initial_voltage = np.array([c.initial_voltage or 0.0 for c in capacitors])
        self._linear = np.concatenate([circuit.linear for circuit in circuits])
        self._node_diagonal = (np.arange(first.num_nodes) * (dim + 1) + cells).ravel()

        # Each source adds +value to a voltage source's branch row, or -value
        # and +value to a current source's two rows, in the circuits' order;
        # the RHS accumulates them from zero.
        sources, picks, signs, targets = [], [], [], []
        for offset, circuit in zip(range(0, members * dim, dim), circuits):
            for source, row in circuit.voltage_sources:
                picks.append(len(sources))
                signs.append(1.0)
                targets.append(offset + row)
                sources.append(source)
            for source, p, q in circuit.current_sources:
                picks += [len(sources)] * 2
                signs += [-1.0, 1.0]
                targets += [offset + p, offset + q]
                sources.append(source)
        self._sources = sources
        self._source_picks = np.array(picks, dtype=np.intp)
        self._source_signs = np.array(signs)
        self._source_rows = np.array(targets, dtype=np.intp)

    # ------------------------------------------------------------------ #
    def _companions_active(self, ctx: StampContext) -> bool:
        return ctx.mode == "tran" and ctx.dt > 0.0 and self._capacitance.size > 0

    def _companion_terms(self, dt: float, method: str) -> tuple[np.ndarray, np.ndarray]:
        """Companion conductances and the linear matrix with them stamped in."""
        key = (dt, method)
        terms = self._companions.get(key)
        if terms is None:
            if len(self._companions) >= self.COMPANION_ENTRIES:
                del self._companions[next(iter(self._companions))]
            terms = self._companions[key] = self._build_companion(dt, method)
        return terms

    def _build_companion(self, dt: float, method: str) -> tuple[np.ndarray, np.ndarray]:
        factor = 2.0 if method == "trapezoidal" else 1.0
        geq = factor * self._capacitance / dt
        values = (_CONDUCTANCE_SIGNS[:, None] * geq[..., None, :]).ravel()
        matrix = self._linear + np.bincount(self._cap_cells, values, minlength=self._linear.size)
        return geq.ravel(), matrix

    def _capacitor_voltages(self, x: Optional[np.ndarray]) -> np.ndarray:
        """``v(a) - v(b)`` of every capacitor (initial voltages when *x* is None)."""
        if x is None:
            return self._initial_voltage
        padded = self._capacitor_nodes
        padded[:, :-1] = x
        return np.subtract(*padded.ravel()[self._cap_pins])

    # ------------------------------------------------------------------ #
    def source_terms(self, times: Sequence[float], scale: float = 1.0) -> np.ndarray:
        """The sources' RHS contributions at each of *times*.

        Row ``i`` holds, in the members' order, each voltage source's
        ``value * scale`` and each current source's ``-value * scale`` and
        ``value * scale``; :meth:`linear` scatters one row into the RHS.
        """
        grid = np.asarray(times, dtype=float)
        values = np.empty((grid.size, len(self._sources)))
        for column, source in enumerate(self._sources):
            waveform = source.waveform
            if waveform is None:
                values[:, column] = source.dc
            elif isinstance(waveform, PiecewiseLinearWaveform):
                values[:, column] = waveform.sample(grid)
            else:
                values[:, column] = [float(waveform(time)) for time in grid.tolist()]
        values *= scale
        terms = values[:, self._source_picks]
        terms *= self._source_signs
        return terms

    def linear(
        self, ctx: StampContext, gmin: float, sources: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat padded matrices and RHS of every stamp fixed within one solve.

        *ctx* is shared by the members; its ``x_prev`` holds their previous
        solutions and its ``capacitor_currents`` their trapezoidal currents.
        *sources* is the row of :meth:`source_terms` at the context's time
        and source scale.
        """
        rhs = np.bincount(self._source_rows, sources, minlength=self.members * self._dim)
        matrix = self._linear
        if self._companions_active(ctx):
            geq, matrix = self._companion_terms(ctx.dt, ctx.method)
            history = geq * self._capacitor_voltages(ctx.x_prev)
            if ctx.method == "trapezoidal" and ctx.capacitor_currents is not None:
                history += ctx.capacitor_currents
            rhs = rhs + np.bincount(
                self._cap_rows, np.concatenate([history, -history]), minlength=rhs.size
            )
        matrix = matrix.copy()
        matrix[self._node_diagonal] += gmin
        return matrix, rhs

    def assemble(
        self, linear: tuple[np.ndarray, np.ndarray], x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Add every member's devices, linearized at its row of *x*, to *linear*.

        Returns the ``(members, size, size)`` matrices and ``(members, size)``
        right-hand sides of the systems to solve.
        """
        members, dim, size = self.members, self._dim, self.size
        self._voltages[:, :-1] = x
        v = self._voltages.ravel()
        ids, gm, gds, gmb, vgs, vds, vbs, reversed_ = self._mosfets.evaluate(
            *v[self._mosfet_pins]
        )
        # A reversed MOSFET stamps at its reverse positions.
        flipped = reversed_[:, None]
        np.copyto(self._mosfet_cell_picks, self._mosfet_cells[0])
        np.copyto(self._mosfet_cell_picks, self._mosfet_cells[1], where=flipped)
        np.copyto(self._mosfet_end_picks, self._mosfet_ends[0])
        np.copyto(self._mosfet_end_picks, self._mosfet_ends[1], where=flipped)

        # The columns (gds, total, -total, -gds, gm, -gm, gmb, -gmb) of the
        # linearization of Mosfet.stamp: gds between the effective drain and
        # source, gm and gmb controlled by gate and bulk.
        stamps = self._mosfet_stamps
        stamps[:, 0] = gds
        np.add(gds, gm, out=stamps[:, 1])
        stamps[:, 1] += gmb
        np.negative(stamps[:, 1::-1], out=stamps[:, 2:4])
        stamps[:, 4] = gm
        stamps[:, 6] = gmb
        np.negative(stamps[:, 4::2], out=stamps[:, 5::2])
        currents = self._currents
        n = len(ids)
        np.multiply(self._mosfets.sign, ids - gm * vgs - gds * vds - gmb * vbs,
                    out=currents[:n, 1])

        vd = np.subtract(*v[self._diode_pins])
        current, g = self._diodes.evaluate(vd)
        np.subtract(current, g * vd, out=currents[n:, 1])
        np.multiply(g[:, None], _CONDUCTANCE_SIGNS, out=self._diode_stamps)
        np.negative(currents[:, 1], out=currents[:, 0])

        base_matrix, base_rhs = linear
        matrix = base_matrix + np.bincount(self._cells, self._stamps, minlength=base_matrix.size)
        rhs = base_rhs + np.bincount(self._rows, currents.ravel(), minlength=base_rhs.size)
        return (
            matrix.reshape(members, dim, dim)[:, :size, :size],
            rhs.reshape(members, dim)[:, :size],
        )

    def commit(self, ctx: StampContext) -> None:
        """Record the state of the accepted transient step ``ctx.x``.

        Only the trapezoidal rule has state: every member's capacitor
        currents, which the next step's history term reads.  Backward Euler
        stores nothing.
        """
        if ctx.method != "trapezoidal" or not self._companions_active(ctx):
            return
        geq, _ = self._companion_terms(ctx.dt, ctx.method)
        currents = geq * (self._capacitor_voltages(ctx.x) - self._capacitor_voltages(ctx.x_prev))
        if ctx.capacitor_currents is not None:
            currents -= ctx.capacitor_currents
        ctx.capacitor_currents = currents


class MnaSystem:
    """Assigns MNA matrix rows to a circuit's nodes and source branches.

    Row layout: all non-ground nodes (in sorted order) followed by one row per
    branch-current unknown, in element insertion order.  :attr:`stamps` is the
    circuit compiled into index tuples and :attr:`plan` its own
    one-member :class:`StampPlan`.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        node_names = circuit.nodes()
        if not node_names:
            raise CircuitError("circuit has no non-ground nodes")
        self._node_index: dict[str, int] = {name: i for i, name in enumerate(node_names)}
        self.node_names = node_names
        self.num_nodes = len(node_names)

        branch = self.num_nodes
        self._branch_owner: dict[str, int] = {}
        for element in circuit:
            indices = tuple(
                -1 if is_ground(node) else self._node_index[node] for node in element.nodes
            )
            if element.num_branches > 0:
                element.assign_indices(indices, branch)
                self._branch_owner[element.name] = branch
                branch += element.num_branches
            else:
                element.assign_indices(indices, -1)
        self.num_branches = branch - self.num_nodes
        self.size = branch
        self.stamps = CircuitStamps(circuit, self.size, self.num_nodes)

    @cached_property
    def plan(self) -> StampPlan:
        """The circuit's own plan, a stack of one."""
        return StampPlan([self.stamps])

    # ------------------------------------------------------------------ #
    def node_index(self, name: str) -> int:
        """MNA row of a node name (-1 for ground)."""
        if is_ground(name):
            return -1
        try:
            return self._node_index[name]
        except KeyError:
            raise CircuitError(f"unknown node {name!r}") from None

    def branch_index(self, element_name: str) -> int:
        """MNA row holding the branch current of the named element."""
        try:
            return self._branch_owner[element_name]
        except KeyError:
            raise CircuitError(f"element {element_name!r} has no branch current") from None

    def voltage(self, x: np.ndarray, node: str) -> float:
        """Node voltage extracted from a solution vector."""
        idx = self.node_index(node)
        if idx < 0:
            return 0.0
        return float(x[idx])

    def voltages(self, x: np.ndarray) -> dict[str, float]:
        """All node voltages as a dictionary."""
        return {name: float(x[i]) for name, i in self._node_index.items()}

    def branch_currents(self, x: np.ndarray) -> dict[str, float]:
        """Branch currents (one per voltage source) as a dictionary."""
        return {name: float(x[row]) for name, row in self._branch_owner.items()}

    def initial_guess(self, hints: Mapping[str, float] | None = None) -> np.ndarray:
        """Zero vector, optionally seeded with per-node voltage hints."""
        x0 = np.zeros(self.size)
        if hints:
            for node, value in hints.items():
                idx = self.node_index(node)
                if idx >= 0:
                    x0[idx] = value
        return x0
