"""Analysis and benchmark harness utilities.

These modules turn the substrates and engines into the numbers the paper
reports: maximum input length per engine per GPU (Table 2, Figure 10), QPS
versus latency sweeps (Figures 6, 7, 9), throughput comparisons (Figure 8), and
plain-text tables for all of them.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.mil": ("max_input_length", "mil_table", "workload_feasibility"),
    "repro.analysis.ablation": ("mil_ablation", "MILAblationStep"),
    "repro.analysis.sweep": (
        "SweepPoint", "run_once", "base_throughput", "qps_sweep", "compare_engines",
        "paper_qps_points",
    ),
    "repro.analysis.reporting": (
        "format_alerts_report", "format_critical_path_report", "format_fleet_report",
        "format_run_diff_report", "format_series", "format_table", "format_tier_report",
        "to_markdown_table",
    ),
})
