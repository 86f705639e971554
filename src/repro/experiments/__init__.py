"""Reproduction experiments, one module per paper table / figure.

See DESIGN.md for the experiment index (E1..E12) and EXPERIMENTS.md for the
recorded paper-versus-measured comparison.  The ``benchmarks/`` tree drives
these modules and prints their report rows.
"""

from .._exports import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".adder_stats": ("AdderStatsResult", "run_adder_stats"),
    ".atpg_complexity": ("AtpgComplexityResult", "run_atpg_complexity"),
    ".common": ("GateDelayEntry", "measure_gate_obd_delay", "measure_gate_obd_delays"),
    ".em_comparison": ("EmComparisonResult", "run_em_comparison"),
    ".fig4_vtc": ("Fig4Result", "FIGURE4_STAGES", "run_fig4"),
    ".fig6_nmos_nand": ("Fig6Result", "run_fig6"),
    ".fig7_pmos_nand": ("Fig7Result", "run_fig7"),
    ".fig9_full_adder": ("Fig9Result", "run_fig9"),
    ".gate_conditions": ("GateConditionsResult", "run_nand_conditions", "run_nor_conditions"),
    ".progression_window": ("ProgressionWindowResult", "run_progression_window"),
    ".table1": (
        "Table1Result", "run_table1", "NMOS_SEQUENCES", "PMOS_SEQUENCES", "PAPER_TABLE1_NMOS",
        "PAPER_TABLE1_PMOS",
    ),
    ".upstream_stress": ("UpstreamStressResult", "run_upstream_stress"),
})
