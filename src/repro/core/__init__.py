"""The fine-grained design-space exploration (FGDSE) layer.

The explorer sweeps architectures against workloads and ranks feasible
design points by resource cost; the experiments module pins down every
table and figure of the paper; validation, speed and features reproduce
Fig. 2, Fig. 6 and Table I respectively.
"""

from .adaptive import (AdaptiveOutcome, adaptive_breakdown_exploration,
                       adaptive_fig3, calibrated_fast_fidelity,
                       grid_coordinates, promote, propose_neighbors)
from .calibrate import (DEFAULT_ERROR_BOUND, CalibrationResult, calibrate,
                        calibration_key, fast_architecture,
                        fidelity_error_report)
from .campaign import (Campaign, CampaignError, CampaignRunner,
                       CampaignStatus, run_worker)
from .experiments import (FAULT_CAMPAIGN_FRACTIONS, TABLE2_LABELS,
                          TABLE3_LABELS, breakdown_points,
                          faults_architecture,
                          faults_campaign, fig3_profile, fig3_sweep,
                          fig3_workload, fig4_sweep, fig5_architecture,
                          fig5_profile, fig5_wearout_sweep, profile_point,
                          table2_configs,
                          table3_configs, validation_config)
from .explorer import (DesignPoint, DesignSpaceExplorer, ExplorationResult,
                       ResourceCostModel, generate_design_space)
from .ftlsweep import (analytic_waf_check, default_dram_budgets,
                       evaluate_ftl_point, ftl_sweep, ftl_sweep_points,
                       ftl_sweep_table)
from .tenantsweep import (DEFAULT_TENANT_COUNTS, default_tenant_set,
                          evaluate_tenants_point, interference_matrix,
                          run_tenant_mix, tenant_sweep,
                          tenant_sweep_points, tenant_sweep_table,
                          tenants_base_architecture)
from .fullreport import generate_report
from .kernelbench import (interface_speed, kernel_microbench,
                          kernel_speed_report, render_report, write_report)
from .features import (CAPABILITY_CHECKS, FEATURE_MATRIX, PLATFORMS,
                       SIMULATION_SPEED, render_table,
                       verify_ssdexplorer_column)
from .pareto import (ParetoEntry, entry_best, entry_cheapest_within,
                     entry_frontier, frontier_value_at, multi_frontier,
                     pareto_frontier)
from .reliability import (REL_PREFIX, Z_95, ReliabilityCell,
                          ReliabilityEstimate, ReliabilityGrid,
                          ReliabilityOutcome, aggregate_estimates,
                          reliability_frontier, replica_point,
                          replica_points, replica_seed,
                          report_from_campaign, run_reliability_campaign,
                          wilson_interval)
from .report import (render_breakdown_table, render_json,
                     render_series_table, render_speed_table,
                     render_validation_table)
from .sensitivity import (SensitivityCurve, SensitivityPoint,
                          bottleneck_report, render_sensitivity_table,
                          sweep_parameter)
from .leases import Lease, LeaseQueue
from .store import (ResultStore, flatten_metrics, parse_constraint)
from .sweep import (CODE_VERSION, PointFailure, PointOutcome, PointTimeout,
                    SweepCache, SweepPoint, SweepResult, SweepRunner,
                    SweepSummary, fingerprint, print_progress)
from .tracereplay import (ReplayOutcome, TraceWorkload, replay_trace,
                          sha256_file, trace_sweep, trace_sweep_points)
from .speed import (PLATFORM_CLOCK_HZ, SpeedSample, measure_speed,
                    speed_sweep)
from .validation import (PAPER_ERROR_MARGINS, REFERENCE_MBPS,
                         ValidationPoint, run_validation)

__all__ = [
    "AdaptiveOutcome", "Campaign", "CampaignError", "CampaignRunner",
    "CampaignStatus", "Lease", "LeaseQueue", "ParetoEntry", "ResultStore",
    "adaptive_breakdown_exploration", "adaptive_fig3", "breakdown_points",
    "calibrated_fast_fidelity", "entry_best", "entry_cheapest_within",
    "entry_frontier", "flatten_metrics", "frontier_value_at",
    "grid_coordinates", "multi_frontier", "pareto_frontier",
    "parse_constraint", "promote", "propose_neighbors", "run_worker",
    "REL_PREFIX", "Z_95", "ReliabilityCell", "ReliabilityEstimate",
    "ReliabilityGrid", "ReliabilityOutcome", "aggregate_estimates",
    "reliability_frontier", "replica_point", "replica_points",
    "replica_seed", "report_from_campaign", "run_reliability_campaign",
    "wilson_interval",
    "CAPABILITY_CHECKS", "CODE_VERSION", "CalibrationResult",
    "DEFAULT_ERROR_BOUND", "calibrate", "calibration_key",
    "fast_architecture", "fidelity_error_report", "DesignPoint",
    "DesignSpaceExplorer", "PointFailure", "PointOutcome", "PointTimeout",
    "SweepCache", "SweepPoint",
    "SweepResult", "SweepRunner", "SweepSummary", "fingerprint",
    "print_progress",
    "ExplorationResult", "FEATURE_MATRIX", "PAPER_ERROR_MARGINS",
    "PLATFORMS", "PLATFORM_CLOCK_HZ", "REFERENCE_MBPS",
    "ResourceCostModel", "SIMULATION_SPEED", "SensitivityCurve",
    "SensitivityPoint", "SpeedSample", "bottleneck_report",
    "render_sensitivity_table", "sweep_parameter",
    "FAULT_CAMPAIGN_FRACTIONS", "TABLE2_LABELS", "TABLE3_LABELS",
    "ValidationPoint", "faults_architecture", "faults_campaign",
    "fig3_profile", "fig3_sweep",
    "fig3_workload", "fig4_sweep", "fig5_architecture", "fig5_profile",
    "fig5_wearout_sweep", "generate_design_space", "generate_report",
    "profile_point",
    "interface_speed", "kernel_microbench", "kernel_speed_report",
    "measure_speed", "render_report", "write_report",
    "ReplayOutcome", "TraceWorkload", "replay_trace", "sha256_file",
    "trace_sweep", "trace_sweep_points",
    "analytic_waf_check", "default_dram_budgets", "evaluate_ftl_point",
    "ftl_sweep", "ftl_sweep_points", "ftl_sweep_table",
    "DEFAULT_TENANT_COUNTS", "default_tenant_set",
    "evaluate_tenants_point", "interference_matrix", "run_tenant_mix",
    "tenant_sweep", "tenant_sweep_points", "tenant_sweep_table",
    "tenants_base_architecture",
    "render_breakdown_table", "render_json",
    "render_series_table", "render_speed_table", "render_table",
    "render_validation_table", "run_validation", "speed_sweep",
    "table2_configs", "table3_configs", "validation_config",
    "verify_ssdexplorer_column",
]
