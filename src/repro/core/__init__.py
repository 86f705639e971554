"""The paper's contribution: the oxide-breakdown (OBD) defect model.

* :mod:`repro.core.breakdown` -- stage ladder and diode-resistor parameters
  (Table 1, Figure 3).
* :mod:`repro.core.defect` -- defect-site descriptions.
* :mod:`repro.core.injection` -- attaching the breakdown network to
  transistor-level circuits.
* :mod:`repro.core.progression` -- temporal SBD-to-HBD progression and the
  detection window of opportunity (Section 3.1, 4.2).
* :mod:`repro.core.excitation` -- gate-level excitation rules (Section 4.1, 5).
* :mod:`repro.core.detection` -- necessary-and-sufficient gate test sets and
  the EM-versus-OBD comparison.
"""

from .._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".breakdown": (
        "BreakdownStage", "BreakdownParameters", "NMOS_STAGE_PARAMETERS", "PMOS_STAGE_PARAMETERS",
        "TABLE1_NMOS_STAGES", "TABLE1_PMOS_STAGES", "stage_parameters", "stage_ladder",
    ),
    ".defect": ("OBDDefect",),
    ".detection": (
        "GateTestSet", "analyze_gate", "EmObdComparison", "compare_em_and_obd",
        "paper_nand_test_set", "paper_nor_test_set",
    ),
    ".excitation": (
        "GateStructure", "SwitchDevice", "Sequence2", "gate_structure", "all_sequences",
        "is_excited_obd", "is_exercised_em", "output_switches", "excitation_conditions",
        "excited_sites", "format_sequence",
    ),
    ".injection": (
        "InjectedDefect", "inject_at_site", "inject_into_cell", "inject_into_harness",
        "harness_preparer",
    ),
    ".progression": ("ProgressionModel", "DEFAULT_SBD_TO_HBD_SECONDS"),
})
