"""The paper's primary contribution: network-wide NIDS/NIPS deployment.

* NIDS: coordination units, the max-load-minimizing assignment LP,
  hash-range sampling manifests, and the per-packet dispatch procedure.
* NIPS: the TCAM-constrained MILP, its LP relaxation, and the
  randomized-rounding approximation algorithms.
* Online adaptation via follow-the-perturbed-leader.
* What-if provisioning analyses.
"""

from .dispatch import (
    CoordinatedDispatcher,
    DispatchDecision,
    ModuleBatchDecision,
    UnitResolver,
)
from .exactsum import ExactSum
from .manifest_table import ManifestTable
from .manifest import (
    NodeManifest,
    full_manifest,
    generate_manifests,
    sampled_node,
    verify_manifests,
)
from .manifest_io import (
    apply_manifest_delta,
    dump_assignment,
    dump_manifests,
    load_assignment,
    load_manifests,
    manifest_diff,
)
from .nids_deployment import NIDSDeployment, plan_deployment
from .nips_manifest import (
    generate_nips_manifests,
    rule_unit,
    verify_nips_manifests,
)
from .reconfigure import TransitionPlan, conservative_units, plan_transition
from .nids_lp import (
    BuiltNIDSLP,
    NIDSAssignment,
    build_nids_lp,
    integral_assignment,
    solve_nids_lp,
    uniform_assignment,
)
from .nips_milp import (
    BuiltNIPSLP,
    NIPSPolytope,
    NIPSProblem,
    NIPSSolution,
    build_nips_lp,
    build_nips_problem,
    compile_nips_polytope,
    solve_exact,
    solve_relaxation,
    solve_with_fixed_rules,
)
from .online import (
    FPLAdapter,
    FPLConfig,
    OnlineRunResult,
    RegretPoint,
    decision_value,
    run_online_adaptation,
    solve_best_response,
    state_vector,
    theoretical_epsilon,
)
from .provisioning import (
    BottleneckReport,
    TCAMSweepPoint,
    UpgradeOutcome,
    bottleneck_analysis,
    nips_tcam_sweep,
    rank_nids_upgrades,
)
from .rounding import (
    RoundedSolution,
    RoundingVariant,
    best_of_roundings,
    finish_basic,
    greedy_fill,
    round_enablement,
    rounded_deployment,
)
from .units import (
    CoordinationUnit,
    UnitTable,
    build_units,
    eligible_nodes,
    unit_key_for_session,
)

__all__ = [
    "BottleneckReport",
    "BuiltNIDSLP",
    "BuiltNIPSLP",
    "CoordinatedDispatcher",
    "ManifestTable",
    "CoordinationUnit",
    "DispatchDecision",
    "ExactSum",
    "ModuleBatchDecision",
    "FPLAdapter",
    "FPLConfig",
    "NIDSAssignment",
    "NIDSDeployment",
    "NIPSPolytope",
    "NIPSProblem",
    "NIPSSolution",
    "NodeManifest",
    "OnlineRunResult",
    "RegretPoint",
    "RoundedSolution",
    "RoundingVariant",
    "TCAMSweepPoint",
    "TransitionPlan",
    "UnitResolver",
    "UnitTable",
    "UpgradeOutcome",
    "apply_manifest_delta",
    "best_of_roundings",
    "bottleneck_analysis",
    "build_nids_lp",
    "build_nips_lp",
    "build_nips_problem",
    "build_units",
    "compile_nips_polytope",
    "conservative_units",
    "decision_value",
    "dump_assignment",
    "dump_manifests",
    "eligible_nodes",
    "finish_basic",
    "full_manifest",
    "generate_manifests",
    "generate_nips_manifests",
    "greedy_fill",
    "integral_assignment",
    "load_assignment",
    "load_manifests",
    "manifest_diff",
    "nips_tcam_sweep",
    "plan_transition",
    "plan_deployment",
    "rank_nids_upgrades",
    "round_enablement",
    "rounded_deployment",
    "rule_unit",
    "run_online_adaptation",
    "sampled_node",
    "solve_best_response",
    "solve_exact",
    "solve_nids_lp",
    "solve_relaxation",
    "solve_with_fixed_rules",
    "state_vector",
    "theoretical_epsilon",
    "uniform_assignment",
    "unit_key_for_session",
    "verify_manifests",
    "verify_nips_manifests",
]
