"""Modified nodal analysis: row assignment and the compiled stamp plan.

:class:`MnaSystem` assigns matrix rows to a circuit's nodes and source
branches, and compiles the circuit once into a :class:`StampPlan`, from
which :func:`~repro.spice.analysis.solver.newton_solve` assembles the
linearized system ``G @ x = b``.  The plan splits the stamps by how often
they change:

* **per system** -- resistor conductances and the voltage-source incidence,
  held in one dense matrix;
* **per** ``newton_solve`` **call** -- source values at ``ctx.time`` scaled by
  ``ctx.source_scale``, capacitor companion conductances (cached per
  ``(dt, method)``), the capacitor history currents computed from
  ``ctx.x_prev`` in one array expression, and ``gmin`` on the node diagonal;
* **per Newton iteration** -- MOSFETs and diodes, evaluated one device at a
  time by their own ``evaluate`` methods and scattered into the matrix and
  right-hand side with one ``np.bincount`` each.

The plan's matrices carry ground as an extra row and column (index
``size``), so no stamp branches on ground; the solve uses the leading
``size x size`` block.  :meth:`Element.stamp <repro.spice.elements.Element.stamp>`
into a :class:`~repro.spice.elements.Stamper` remains the scalar reference
the plan is tested against.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from ..elements import (
    Capacitor,
    CurrentSource,
    Diode,
    Element,
    Mosfet,
    Resistor,
    StampContext,
    VoltageSource,
    is_ground,
)
from ..errors import CircuitError
from ..netlist import Circuit

#: Signs of the four cells ``(a,a), (b,b), (a,b), (b,a)`` of a conductance stamp.
_CONDUCTANCE_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


class StampPlan:
    """The MNA stamps of one circuit, compiled by :class:`MnaSystem`.

    Matrix cells are addressed by flat index ``row * (size + 1) + column``
    into the ground-padded matrix.
    """

    def __init__(self, elements: Iterable[Element], size: int, num_nodes: int):
        self.size = size
        dim = self._dim = size + 1
        linear = np.zeros(dim * dim)
        self._voltage_sources: list[tuple[VoltageSource, int]] = []
        self._current_sources: list[tuple[CurrentSource, int, int]] = []
        self._mosfets: list[tuple] = []
        self._diodes: list[tuple] = []
        #: Capacitors with a nonzero capacitance, in the order of
        #: ``StampContext.capacitor_currents``.
        self.capacitors: list[Capacitor] = []
        cap_pins: list[tuple[int, int]] = []
        cap_cells: list[tuple[int, int, int, int]] = []

        for element in elements:
            pins = tuple(size if i < 0 else i for i in element.indices)
            if isinstance(element, Resistor):
                np.add.at(
                    linear, list(self._conductance_cells(*pins)),
                    element.conductance * _CONDUCTANCE_SIGNS,
                )
            elif isinstance(element, VoltageSource):
                p, n = pins
                row = element.branch_index
                np.add.at(
                    linear, [p * dim + row, n * dim + row, row * dim + p, row * dim + n],
                    [1.0, -1.0, 1.0, -1.0],
                )
                self._voltage_sources.append((element, row))
            elif isinstance(element, CurrentSource):
                self._current_sources.append((element, *pins))
            elif isinstance(element, Capacitor):
                if element.capacitance != 0.0:
                    self.capacitors.append(element)
                    cap_pins.append(pins)
                    cap_cells.append(self._conductance_cells(*pins))
            elif isinstance(element, Mosfet):
                d, g, s, b = pins
                forward = (self._mosfet_cells(d, g, s, b), (d, s))
                reverse = (self._mosfet_cells(s, g, d, b), (s, d))
                self._mosfets.append((element, element.model.sign, pins, forward, reverse))
            elif isinstance(element, Diode):
                a, c = pins
                self._diodes.append((element, a, c, self._conductance_cells(a, c)))
            else:
                raise CircuitError(
                    f"element {element.name!r}: no compiled stamp for {type(element).__name__}"
                )

        self._linear = linear
        self._node_diagonal = np.arange(num_nodes) * (dim + 1)
        # Capacitor index arrays are grouped by stamp position (all first
        # terminals, then all second ones), matching the value arrays below.
        self._cap_rows = np.array(cap_pins, dtype=np.intp).reshape(-1, 2).T.ravel()
        self._cap_a, self._cap_b = self._cap_rows.reshape(2, -1)
        self._cap_cells = np.array(cap_cells, dtype=np.intp).reshape(-1, 4).T.ravel()
        self._capacitance = np.array([c.capacitance for c in self.capacitors])
        self._initial_voltage = np.array([c.initial_voltage or 0.0 for c in self.capacitors])
        self._companion_key: Optional[tuple[float, str]] = None
        self._companion: Optional[tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    def _conductance_cells(self, a: int, b: int) -> tuple[int, int, int, int]:
        dim = self._dim
        return (a * dim + a, b * dim + b, a * dim + b, b * dim + a)

    def _mosfet_cells(self, d: int, g: int, s: int, b: int) -> tuple[int, ...]:
        """Cells of the gds, gm and gmb stamps with effective drain *d*."""
        dim = self._dim
        return (d * dim + d, s * dim + s, d * dim + s, s * dim + d,
                d * dim + g, s * dim + g, d * dim + b, s * dim + b)

    def _companions_active(self, ctx: StampContext) -> bool:
        return ctx.mode == "tran" and ctx.dt > 0.0 and bool(self.capacitors)

    def _companion_terms(self, dt: float, method: str) -> tuple[np.ndarray, np.ndarray]:
        """Companion conductances and the linear matrix with them stamped in."""
        key = (dt, method)
        if self._companion_key != key:
            factor = 2.0 if method == "trapezoidal" else 1.0
            geq = factor * self._capacitance / dt
            values = (_CONDUCTANCE_SIGNS[:, None] * geq).ravel()
            matrix = self._linear + np.bincount(
                self._cap_cells, values, minlength=self._linear.size
            )
            self._companion_key, self._companion = key, (geq, matrix)
        return self._companion

    def _capacitor_voltages(self, x: Optional[np.ndarray]) -> np.ndarray:
        """``v(a) - v(b)`` of every capacitor (initial voltages when *x* is None)."""
        if x is None:
            return self._initial_voltage
        padded = np.append(x, 0.0)
        return padded[self._cap_a] - padded[self._cap_b]

    # ------------------------------------------------------------------ #
    def linear(self, ctx: StampContext, gmin: float) -> tuple[np.ndarray, np.ndarray]:
        """Flat padded matrix and RHS of every stamp fixed within one solve."""
        rhs = np.zeros(self._dim)
        scale = ctx.source_scale
        for source, row in self._voltage_sources:
            rhs[row] += source.value(ctx.time) * scale
        for source, p, n in self._current_sources:
            value = source.value(ctx.time) * scale
            rhs[p] -= value
            rhs[n] += value
        matrix = self._linear
        if self._companions_active(ctx):
            geq, matrix = self._companion_terms(ctx.dt, ctx.method)
            history = geq * self._capacitor_voltages(ctx.x_prev)
            if ctx.method == "trapezoidal" and ctx.capacitor_currents is not None:
                history += ctx.capacitor_currents
            rhs += np.bincount(
                self._cap_rows, np.concatenate([history, -history]), minlength=self._dim
            )
        matrix = matrix.copy()
        matrix[self._node_diagonal] += gmin
        return matrix, rhs

    def assemble(
        self, linear: tuple[np.ndarray, np.ndarray], x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Add the devices linearized at *x* to :meth:`linear`'s stamps.

        Returns the ``size x size`` matrix and the RHS of the system to solve.
        """
        v = x.tolist()
        v.append(0.0)
        cells: list[int] = []
        values: list[float] = []
        rows: list[int] = []
        currents: list[float] = []
        for device, sign, (d, g, s, b), forward, reverse in self._mosfets:
            op = device.evaluate(v[d], v[g], v[s], v[b])
            device_cells, ends = reverse if op.reversed else forward
            gds, gm, gmb = op.gds, op.gm, op.gmb
            total = gds + gm + gmb
            # The linearization of Mosfet.stamp: gds between the effective
            # drain and source, gm and gmb controlled by gate and bulk.
            ieq = sign * (op.ids - gm * op.vgs - gds * op.vds - gmb * op.vbs)
            cells += device_cells
            values += (gds, total, -total, -gds, gm, -gm, gmb, -gmb)
            rows += ends
            currents += (-ieq, ieq)
        for device, a, c, device_cells in self._diodes:
            vd = v[a] - v[c]
            current, g = device.evaluate(vd)
            ieq = current - g * vd
            cells += device_cells
            values += (g, g, -g, -g)
            rows += (a, c)
            currents += (-ieq, ieq)

        base_matrix, base_rhs = linear
        dim, size = self._dim, self.size
        matrix = base_matrix + np.bincount(
            np.array(cells, dtype=np.intp), values, minlength=base_matrix.size
        )
        rhs = base_rhs + np.bincount(np.array(rows, dtype=np.intp), currents, minlength=dim)
        return matrix.reshape(dim, dim)[:size, :size], rhs[:size]

    def commit(self, ctx: StampContext) -> None:
        """Record the state of the accepted transient step ``ctx.x``.

        Only the trapezoidal rule has state: the capacitor currents, which the
        next step's history term reads.  Backward Euler stores nothing.
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
    branch-current unknown, in element insertion order.  :attr:`plan` is the
    circuit's compiled :class:`StampPlan`.
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
        self.plan = StampPlan(circuit, self.size, self.num_nodes)

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
