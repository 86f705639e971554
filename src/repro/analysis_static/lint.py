"""Rule-registry netlist linter / DRC over :class:`LogicCircuit` netlists.

Each check is a :class:`LintRule` instance in a module-level registry (the
analyzer-registry pattern: a rule owns an id, a severity, a one-line
description, and a ``check`` hook producing structured
:class:`~repro.analysis_static.diagnostics.Diagnostic`\\ s).  Rules run in
registration order over a shared :class:`LintContext`, which reads the
expensive derived structure (PO-reachability, static-learning constants)
from the circuit's shared analysis (:mod:`repro.analysis_static.analysis`),
so adding a rule stays cheap.

Two front doors:

* :func:`lint_circuit` -- lint a live :class:`LogicCircuit`;
* :func:`lint_bench` -- lint ``.bench`` source text, which additionally
  catches *multiply-driven* nets (unrepresentable in a ``LogicCircuit``,
  whose constructor rejects double drivers outright) and attaches source
  line numbers to every site-ful diagnostic.

Structure-dependent rules (cycles aside) skip circuits that are not
well-formed, so one broken net yields one actionable error instead of a
cascade of follow-on noise.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from ..logic.bench import _DECL_RE, _GATE_RE, _strip, parse_bench
from ..logic.netlist import LogicCircuitError
from .analysis import circuit_analysis
from .diagnostics import Diagnostic, LintReport, Severity

if TYPE_CHECKING:
    from ..logic.netlist import LogicCircuit


class LintContext:
    """Shared state for one lint run: the circuit plus its source positions."""

    def __init__(
        self,
        circuit: "LogicCircuit",
        net_lines: Mapping[str, int] | None = None,
        bench_drivers: Mapping[str, list[int]] | None = None,
    ):
        self.circuit = circuit
        #: ``.bench`` source line of each declared/driven net (if known).
        self.net_lines = dict(net_lines or {})
        #: ``.bench``-level driver lines per net (if linting source text).
        self.bench_drivers = dict(bench_drivers or {})
        self.driven = set(circuit.primary_inputs) | {g.output for g in circuit}

    def line_of(self, net: str) -> Optional[int]:
        return self.net_lines.get(net)

    @property
    def well_formed(self) -> bool:
        """Closed and acyclic: the precondition of the structural rules."""
        try:
            self.circuit.validate()
        except LogicCircuitError:
            return False
        return True

    @property
    def observable_nets(self) -> set[str]:
        """Nets from which at least one primary output is reachable."""
        return circuit_analysis(self.circuit).observable

    @property
    def constants(self) -> dict[str, int]:
        """Nets proven constant by implication plus static learning."""
        return circuit_analysis(self.circuit).learning.constants


class LintRule:
    """Base class for registry rules; subclasses override :meth:`check`."""

    rule_id: str = ""
    severity: Severity = Severity.WARNING
    description: str = ""
    #: Rules that need a closed, acyclic circuit set this and are skipped
    #: (not failed) on malformed input -- the structural rules report it.
    requires_well_formed: bool = True

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        raise NotImplementedError  # pragma: no cover - abstract hook

    def diagnostic(
        self,
        context: LintContext,
        message: str,
        net: str | None = None,
        gate: str | None = None,
        line: int | None = None,
    ) -> Diagnostic:
        if line is None and net is not None:
            line = context.line_of(net)
        return Diagnostic(
            rule=self.rule_id,
            severity=self.severity,
            message=message,
            net=net,
            gate=gate,
            line=line,
        )


_RULES: dict[str, LintRule] = {}


def register_rule(rule: LintRule) -> LintRule:
    """Register *rule* under its ``rule_id``; later rules run later."""
    if not rule.rule_id:
        raise ValueError("lint rule must define a non-empty rule_id")
    if rule.rule_id in _RULES:
        raise ValueError(f"lint rule {rule.rule_id!r} is already registered")
    _RULES[rule.rule_id] = rule
    return rule


# --------------------------------------------------------------------------- #
# The built-in rules.
# --------------------------------------------------------------------------- #
class UndrivenNetRule(LintRule):
    rule_id = "undriven-net"
    severity = Severity.ERROR
    description = "a gate input or primary output has no driver"
    requires_well_formed = False

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        seen: set[str] = set()
        for gate in context.circuit:
            for net in gate.inputs:
                if net not in context.driven and net not in seen:
                    seen.add(net)
                    yield self.diagnostic(
                        context,
                        f"gate {gate.name!r} reads undriven net {net!r}",
                        net=net,
                        gate=gate.name,
                    )
        for net in context.circuit.primary_outputs:
            if net not in context.driven and net not in seen:
                seen.add(net)
                yield self.diagnostic(
                    context, f"primary output {net!r} is not driven", net=net
                )


class MultiplyDrivenRule(LintRule):
    rule_id = "multiply-driven-net"
    severity = Severity.ERROR
    description = "a net has more than one driver (.bench source only)"
    requires_well_formed = False

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        # A LogicCircuit cannot represent a double driver (add_gate rejects
        # it), so this rule only fires from .bench source positions.
        for net, lines in sorted(context.bench_drivers.items()):
            if len(lines) < 2:
                continue
            first, rest = lines[0], lines[1:]
            for line in rest:
                yield self.diagnostic(
                    context,
                    f"net {net!r} is already driven (first driven at line {first})",
                    net=net,
                    line=line,
                )


class CombinationalCycleRule(LintRule):
    rule_id = "combinational-cycle"
    severity = Severity.ERROR
    description = "gates form a combinational feedback loop"
    requires_well_formed = False

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        circuit = context.circuit
        placed = set(circuit.primary_inputs)
        # Kahn over driven nets only, so undriven inputs (reported by their
        # own rule) do not masquerade as cycles here.
        pending = {
            gate.name: sum(
                1 for net in gate.inputs if net not in placed and net in context.driven
            )
            for gate in circuit
        }
        ready = [name for name, count in pending.items() if count == 0]
        readers: dict[str, list[str]] = {}
        for gate in circuit:
            for net in gate.inputs:
                if net not in placed and net in context.driven:
                    readers.setdefault(net, []).append(gate.name)
        emitted = 0
        while ready:
            gate = circuit.gate(ready.pop())
            emitted += 1
            for reader in readers.get(gate.output, ()):
                pending[reader] -= 1
                if pending[reader] == 0:
                    ready.append(reader)
        if emitted < len(circuit):
            cycle_gates = sorted(
                name for name, count in pending.items() if count > 0
            )
            for name in cycle_gates[:5]:
                gate = circuit.gate(name)
                yield self.diagnostic(
                    context,
                    f"gate {name!r} sits on a combinational cycle",
                    net=gate.output,
                    gate=name,
                )


class DeadConeRule(LintRule):
    rule_id = "dead-cone"
    severity = Severity.WARNING
    description = "logic whose fan-out cone reaches no primary output"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        observable = context.observable_nets
        for gate in context.circuit:
            if gate.output not in observable:
                yield self.diagnostic(
                    context,
                    f"output of gate {gate.name!r} reaches no primary output",
                    net=gate.output,
                    gate=gate.name,
                )


class UnusedInputRule(LintRule):
    rule_id = "unused-input"
    severity = Severity.WARNING
    description = "a primary input drives nothing"
    requires_well_formed = False

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        circuit = context.circuit
        outputs = set(circuit.primary_outputs)
        read = {net for gate in circuit for net in gate.inputs}
        for net in circuit.primary_inputs:
            if net not in read and net not in outputs:
                yield self.diagnostic(
                    context, f"primary input {net!r} drives nothing", net=net
                )


class ConstantNetRule(LintRule):
    rule_id = "constant-net"
    severity = Severity.WARNING
    description = "a net is provably constant (implication + static learning)"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        inputs = set(context.circuit.primary_inputs)
        for net in context.circuit.nets():
            value = context.constants.get(net)
            if value is None or net in inputs:
                continue
            driver = context.circuit.driver_of(net)
            yield self.diagnostic(
                context,
                f"net {net!r} is provably constant {value}",
                net=net,
                gate=driver.name if driver is not None else None,
            )


class TiedInputRule(LintRule):
    rule_id = "tied-input"
    severity = Severity.INFO
    description = "one net feeds several pins of the same gate"
    requires_well_formed = False

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        for gate in context.circuit:
            tied = sorted(
                {net for net in gate.inputs if gate.inputs.count(net) > 1}
            )
            for net in tied:
                yield self.diagnostic(
                    context,
                    f"net {net!r} feeds {gate.inputs.count(net)} pins of gate "
                    f"{gate.name!r} ({gate.gate_type.value})",
                    net=net,
                    gate=gate.name,
                )


for _rule in (
    UndrivenNetRule(),
    MultiplyDrivenRule(),
    CombinationalCycleRule(),
    DeadConeRule(),
    UnusedInputRule(),
    ConstantNetRule(),
    TiedInputRule(),
):
    register_rule(_rule)


# --------------------------------------------------------------------------- #
# Front doors.
# --------------------------------------------------------------------------- #
def lint_circuit(
    circuit: "LogicCircuit",
    *,
    net_lines: Mapping[str, int] | None = None,
    bench_drivers: Mapping[str, list[int]] | None = None,
) -> LintReport:
    """Run every registered rule over *circuit*."""
    context = LintContext(circuit, net_lines=net_lines, bench_drivers=bench_drivers)
    well_formed = context.well_formed
    diagnostics: list[Diagnostic] = []
    for rule in _RULES.values():
        if rule.requires_well_formed and not well_formed:
            continue
        diagnostics.extend(rule.check(context))
    return LintReport(circuit_name=circuit.name, diagnostics=diagnostics)


_BENCH_LINE_RE = re.compile(r"\.bench line (\d+)")


def _scan_bench(text: str) -> tuple[dict[str, list[int]], dict[str, int]]:
    """Line positions of every driver/declaration in ``.bench`` source.

    Returns ``(drivers, net_lines)``: *drivers* maps each net to the lines
    that drive it (an ``INPUT`` declaration counts as a driver), *net_lines*
    maps each mentioned net to its first relevant line for diagnostics.
    """
    drivers: dict[str, list[int]] = {}
    net_lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        decl = _DECL_RE.match(line)
        if decl is not None:
            kind, net = decl.group(1).upper(), decl.group(2)
            net_lines.setdefault(net, line_no)
            if kind == "INPUT":
                drivers.setdefault(net, []).append(line_no)
            continue
        statement = _GATE_RE.match(line)
        if statement is not None:
            output = statement.group(1)
            drivers.setdefault(output, []).append(line_no)
            net_lines[output] = line_no
    return drivers, net_lines


def lint_bench(text: str, name: str = "") -> LintReport:
    """Lint ``.bench`` source text, with line numbers on every finding.

    Multiply-driven nets are diagnosed from the raw statements (a parsed
    circuit cannot hold them); any other parse failure becomes a single
    ``parse-error`` diagnostic carrying the parser's line number, and a
    cleanly parsed netlist goes through :func:`lint_circuit` with the
    collected source positions.
    """
    drivers, net_lines = _scan_bench(text)
    multiply_driven = {net: lines for net, lines in drivers.items() if len(lines) > 1}
    if multiply_driven:
        rule = _RULES["multiply-driven-net"]
        diagnostics = []
        for net, lines in sorted(multiply_driven.items()):
            for line in lines[1:]:
                diagnostics.append(
                    Diagnostic(
                        rule=rule.rule_id,
                        severity=rule.severity,
                        message=(
                            f"net {net!r} is already driven "
                            f"(first driven at line {lines[0]})"
                        ),
                        net=net,
                        line=line,
                    )
                )
        return LintReport(circuit_name=name, diagnostics=diagnostics)
    try:
        circuit = parse_bench(text, name=name)
    except LogicCircuitError as exc:
        message = str(exc)
        match = _BENCH_LINE_RE.search(message)
        return LintReport(
            circuit_name=name,
            diagnostics=[
                Diagnostic(
                    rule="parse-error",
                    severity=Severity.ERROR,
                    message=message,
                    line=int(match.group(1)) if match else None,
                )
            ],
        )
    return lint_circuit(circuit, net_lines=net_lines, bench_drivers=drivers)
