"""Element base class and the stamping context shared by all analyses.

Every circuit element knows how to *stamp* its (linearized) companion model
into a modified-nodal-analysis (MNA) system.  These scalar stamps are the
reference; the solver assembles the same system from the compiled stamp plan
of :mod:`repro.spice.analysis.mna`.  The convention used throughout the
simulator is::

    G @ x = b

where ``x`` holds the node voltages followed by the branch currents of the
elements that require one (voltage sources).  The ground node is excluded
from the system and is represented by index ``-1``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

#: Node names treated as the reference (ground) node.
GROUND_NAMES = frozenset({"0", "gnd", "GND", "ground"})


def is_ground(node: str) -> bool:
    """Return True when *node* names the reference node."""
    return node in GROUND_NAMES


@dataclass
class StampContext:
    """Per-iteration information handed to :meth:`Element.stamp`.

    Attributes
    ----------
    mode:
        ``"dc"`` for operating-point / DC-sweep analyses (capacitors open),
        ``"tran"`` for transient analysis (capacitors use companion models).
    x:
        Current Newton iterate of the full MNA solution vector (one row per
        member, like ``x_prev``).
    time:
        Simulation time of the step being solved (seconds).
    dt:
        Time-step size (seconds); only meaningful in transient mode.
    x_prev:
        Accepted solution of the previous time point (transient only); one
        row per member when a stamp plan solves several circuits at once.
    source_scale:
        Scale factor applied to independent sources (used by source-stepping
        homotopy during difficult operating-point solves).
    gmin:
        Minimum conductance tied from every node to ground for convergence.
    """

    mode: str = "dc"
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    time: float = 0.0
    dt: float = 0.0
    x_prev: Optional[np.ndarray] = None
    source_scale: float = 1.0
    gmin: float = 1e-12


class Element(ABC):
    """Abstract two-or-more terminal circuit element.

    Parameters
    ----------
    name:
        Unique element name within its circuit.
    nodes:
        Node names in element-specific terminal order.
    """

    #: Number of extra MNA branch-current unknowns the element introduces.
    num_branches: int = 0

    def __init__(self, name: str, nodes: Sequence[str]):
        if not name:
            raise ValueError("element name must be a non-empty string")
        self.name = str(name)
        self.nodes = tuple(str(n) for n in nodes)
        self._indices: tuple[int, ...] = ()
        self._branch: int = -1

    # ------------------------------------------------------------------ #
    # Index bookkeeping (filled in by MnaSystem).
    # ------------------------------------------------------------------ #
    def assign_indices(self, indices: Sequence[int], branch: int = -1) -> None:
        """Record the MNA row indices of this element's nodes and branch."""
        self._indices = tuple(indices)
        self._branch = branch

    @property
    def indices(self) -> tuple[int, ...]:
        """MNA indices of the element terminals (-1 means ground)."""
        return self._indices

    @property
    def branch_index(self) -> int:
        """MNA row of the first branch-current unknown (-1 if none)."""
        return self._branch

    def terminal_voltage(self, ctx: StampContext, terminal: int) -> float:
        """Voltage of the *terminal*-th node at the current iterate."""
        idx = self._indices[terminal]
        if idx < 0:
            return 0.0
        return float(ctx.x[idx])

    # ------------------------------------------------------------------ #
    # Behaviour.
    # ------------------------------------------------------------------ #
    @property
    def is_nonlinear(self) -> bool:
        """True when the element's stamp depends on the solution vector."""
        return False

    @abstractmethod
    def stamp(self, stamper: "Stamper", ctx: StampContext) -> None:
        """Add the element's companion model to the MNA system."""

    def clone(self) -> "Element":
        """Return a deep, index-free copy of the element."""
        import copy

        other = copy.deepcopy(self)
        other._indices = ()
        other._branch = -1
        return other

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        nodes = ",".join(self.nodes)
        return f"<{type(self).__name__} {self.name} ({nodes})>"


class Stamper:
    """Accumulates MNA matrix and right-hand-side contributions.

    Sign conventions (all indices may be ``-1`` for ground, in which case the
    corresponding row/column is dropped):

    * :meth:`conductance` -- conductance ``g`` between nodes ``a`` and ``b``.
    * :meth:`current` -- independent current ``value`` flowing *from* node
      ``a`` *to* node ``b`` (leaves ``a``, enters ``b``).
    * :meth:`vccs` -- current ``g * (v(cp) - v(cn))`` flowing from ``p``
      to ``n``.
    * :meth:`voltage_source` -- ideal source ``v(p) - v(n) = value`` using
      branch row ``branch``.
    """

    def __init__(self, size: int):
        self.size = size
        self.matrix = np.zeros((size, size))
        self.rhs = np.zeros(size)

    # -- raw access ----------------------------------------------------- #
    def add_matrix(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.matrix[row, col] += value

    def add_rhs(self, row: int, value: float) -> None:
        if row >= 0:
            self.rhs[row] += value

    # -- stamps ---------------------------------------------------------- #
    def conductance(self, a: int, b: int, g: float) -> None:
        self.add_matrix(a, a, g)
        self.add_matrix(b, b, g)
        self.add_matrix(a, b, -g)
        self.add_matrix(b, a, -g)

    def current(self, a: int, b: int, value: float) -> None:
        self.add_rhs(a, -value)
        self.add_rhs(b, value)

    def vccs(self, p: int, n: int, cp: int, cn: int, g: float) -> None:
        self.add_matrix(p, cp, g)
        self.add_matrix(p, cn, -g)
        self.add_matrix(n, cp, -g)
        self.add_matrix(n, cn, g)

    def voltage_source(self, branch: int, p: int, n: int, value: float) -> None:
        self.add_matrix(p, branch, 1.0)
        self.add_matrix(n, branch, -1.0)
        self.add_matrix(branch, p, 1.0)
        self.add_matrix(branch, n, -1.0)
        self.add_rhs(branch, value)
