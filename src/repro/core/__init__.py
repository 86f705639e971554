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

from .breakdown import (
    NMOS_STAGE_PARAMETERS,
    PMOS_STAGE_PARAMETERS,
    TABLE1_NMOS_STAGES,
    TABLE1_PMOS_STAGES,
    BreakdownParameters,
    BreakdownStage,
    stage_ladder,
    stage_parameters,
)
from .defect import OBDDefect
from .detection import (
    EmObdComparison,
    GateTestSet,
    analyze_gate,
    compare_em_and_obd,
    paper_nand_test_set,
    paper_nor_test_set,
)
from .excitation import (
    GateStructure,
    Sequence2,
    SwitchDevice,
    all_sequences,
    excitation_conditions,
    excited_sites,
    format_sequence,
    gate_structure,
    is_excited_obd,
    is_exercised_em,
    output_switches,
)
from .injection import (
    InjectedDefect,
    harness_preparer,
    inject_at_site,
    inject_into_cell,
    inject_into_harness,
)
from .progression import DEFAULT_SBD_TO_HBD_SECONDS, ProgressionModel

__all__ = [
    "BreakdownStage",
    "BreakdownParameters",
    "NMOS_STAGE_PARAMETERS",
    "PMOS_STAGE_PARAMETERS",
    "TABLE1_NMOS_STAGES",
    "TABLE1_PMOS_STAGES",
    "stage_parameters",
    "stage_ladder",
    "OBDDefect",
    "InjectedDefect",
    "inject_at_site",
    "inject_into_cell",
    "inject_into_harness",
    "harness_preparer",
    "ProgressionModel",
    "DEFAULT_SBD_TO_HBD_SECONDS",
    "GateStructure",
    "SwitchDevice",
    "Sequence2",
    "gate_structure",
    "all_sequences",
    "is_excited_obd",
    "is_exercised_em",
    "output_switches",
    "excitation_conditions",
    "excited_sites",
    "format_sequence",
    "GateTestSet",
    "analyze_gate",
    "EmObdComparison",
    "compare_em_and_obd",
    "paper_nand_test_set",
    "paper_nor_test_set",
]
