"""Static netlist analysis: lint/DRC, SCOAP testability, untestability proofs.

This package is the *simulation-free* half of the ATPG story: everything in
here reasons about a :class:`~repro.logic.netlist.LogicCircuit` (or its
``.bench`` source) structurally, without ever applying a test pattern.

* :mod:`~repro.analysis_static.lint` -- a rule-registry netlist linter/DRC
  (undriven nets, multiply-driven nets, combinational cycles, dead cones,
  constant nets, tied inputs) emitting structured
  :class:`~repro.analysis_static.diagnostics.Diagnostic`\\ s.
* :mod:`~repro.analysis_static.scoap` -- SCOAP controllability /
  observability measures in one topological pass, surfaced through
  :meth:`LogicCircuit.stats() <repro.logic.netlist.LogicCircuit.stats>`.
* :mod:`~repro.analysis_static.implication` -- a ternary (0/1/X) static
  implication engine with pairwise static learning.
* :mod:`~repro.analysis_static.untestable` -- structural untestability
  proofs for stuck-at and transition faults (unexcitable / unobservable /
  dead cone), consumed by the campaign layer's static phase.
* :mod:`~repro.analysis_static.analysis` -- the per-circuit
  :class:`CircuitAnalysis` (order, fan-out, observability, SCOAP, static
  learning) that lint, the prover and the ATPG engines share, built once
  per circuit through :func:`circuit_analysis`.

The campaign integration lives in :mod:`repro.campaign`: lint errors become
:class:`~repro.campaign.errors.CampaignError`\\ s, and statically proven
faults are recorded as untestable with ``proven_static`` provenance.
"""

from .._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".analysis": ("CircuitAnalysis", "circuit_analysis"),
    ".diagnostics": ("Severity", "Diagnostic", "LintReport"),
    ".implication": ("ImplicationEngine", "StaticLearning", "learn_implications"),
    ".lint": ("LintRule", "lint_circuit", "lint_bench"),
    ".scoap": ("ScoapMeasures", "scoap_measures", "scoap_summary"),
    ".untestable": (
        "StaticProof", "StaticUntestabilityProver", "prove_stuck_at_untestable",
        "prove_transition_untestable",
    ),
})
