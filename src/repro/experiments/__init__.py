"""Reproduction experiments, one module per paper table / figure.

See DESIGN.md for the experiment index (E1..E12) and EXPERIMENTS.md for the
recorded paper-versus-measured comparison.  The ``benchmarks/`` tree drives
these modules and prints their report rows.
"""

from .adder_stats import AdderStatsResult, run_adder_stats
from .atpg_complexity import AtpgComplexityResult, run_atpg_complexity
from .common import GateDelayEntry, measure_gate_obd_delay, measure_gate_obd_delays
from .em_comparison import EmComparisonResult, run_em_comparison
from .fig4_vtc import FIGURE4_STAGES, Fig4Result, run_fig4
from .fig6_nmos_nand import Fig6Result, run_fig6
from .fig7_pmos_nand import Fig7Result, run_fig7
from .fig9_full_adder import Fig9Result, run_fig9
from .gate_conditions import GateConditionsResult, run_nand_conditions, run_nor_conditions
from .progression_window import ProgressionWindowResult, run_progression_window
from .table1 import (
    NMOS_SEQUENCES,
    PAPER_TABLE1_NMOS,
    PAPER_TABLE1_PMOS,
    PMOS_SEQUENCES,
    Table1Result,
    run_table1,
)
from .upstream_stress import UpstreamStressResult, run_upstream_stress

__all__ = [
    "GateDelayEntry",
    "measure_gate_obd_delay",
    "measure_gate_obd_delays",
    "Table1Result",
    "run_table1",
    "NMOS_SEQUENCES",
    "PMOS_SEQUENCES",
    "PAPER_TABLE1_NMOS",
    "PAPER_TABLE1_PMOS",
    "Fig4Result",
    "FIGURE4_STAGES",
    "run_fig4",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "Fig9Result",
    "run_fig9",
    "GateConditionsResult",
    "run_nand_conditions",
    "run_nor_conditions",
    "AdderStatsResult",
    "run_adder_stats",
    "EmComparisonResult",
    "run_em_comparison",
    "ProgressionWindowResult",
    "run_progression_window",
    "AtpgComplexityResult",
    "run_atpg_complexity",
    "UpstreamStressResult",
    "run_upstream_stress",
]
