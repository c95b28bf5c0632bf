"""Ablations of the design choices DESIGN.md §5 calls out.

Each ablation switches off one design decision and measures the cost,
substantiating why the paper's system is built the way it is:

* event-engine vs. policy-engine coordination checks (Fig. 4 choice);
* LP-optimized vs. naive uniform traffic split;
* the greedy rule-filling step of the rounding pipeline;
* FPL's perturbation vs. plain follow-the-leader under an adaptive
  adversary;
* redundancy level r (the §2.5 reliability extension's load cost);
* Dist = hops vs. Dist = 1 in the NIPS objective (footprint vs. pure
  drop volume).
"""

import random

import pytest

from repro.core.nids_deployment import plan_deployment
from repro.core.nids_lp import (
    integral_assignment,
    solve_nids_lp,
    uniform_assignment,
)
from repro.core.online import FPLConfig, run_online_adaptation
from repro.core.rounding import RoundingVariant, best_of_roundings
from repro.core.units import build_units
from repro.core.nips_milp import solve_relaxation
from repro.experiments import scaled
from repro.experiments.nids_network_wide import NetworkWideSetup
from repro.experiments.nips_rounding import build_problem_for_topology
from repro.experiments.online_adaptation import build_online_problem
from repro.nids.emulation import Traffic, run_emulation
from repro.nids.engine import BroMode, EmulationConfig
from repro.nids.modules import module_set
from repro.nips.adversary import EvasiveAdversary
from repro.topology.routing import DistanceMetric


@pytest.fixture(scope="module")
def nids_world():
    setup = NetworkWideSetup.internet2(seed=42)
    sessions = setup.generator.generate(scaled(100_000, minimum=4_000))
    deployment = setup.deployment(sessions, 21)
    return setup, sessions, deployment


@pytest.mark.figure("ablation-check-placement")
def test_ablation_event_vs_policy_checks(once, nids_world):
    """Approach 2 (event-engine checks) vs. approach 1 network-wide."""
    setup, sessions, deployment = nids_world

    def run():
        traffic = Traffic.materialized(setup.generator, sessions)
        event = run_emulation(
            traffic, deployment, config=EmulationConfig(mode=BroMode.COORD_EVENT)
        )
        policy = run_emulation(
            traffic, deployment, config=EmulationConfig(mode=BroMode.COORD_POLICY)
        )
        return event, policy

    event, policy = once(run)
    total_event = sum(r.cpu for r in event.reports.values())
    total_policy = sum(r.cpu for r in policy.reports.values())
    print(
        f"\nablation: total coordinated CPU — event-engine checks"
        f" {total_event:,.0f} vs. policy-engine checks {total_policy:,.0f}"
        f" (+{total_policy / total_event - 1:.1%})"
    )
    assert total_policy > total_event


@pytest.mark.figure("ablation-lp-vs-uniform")
def test_ablation_lp_vs_uniform_split(once, nids_world):
    """What the LP's load-awareness buys over an even split."""
    setup, sessions, _ = nids_world
    units = build_units(module_set(21), sessions, setup.paths)

    def run():
        lp = solve_nids_lp(units, setup.topology)
        naive = uniform_assignment(units, setup.topology)
        return lp, naive

    lp, naive = once(run)
    print(
        f"\nablation: max-load objective — LP {lp.objective:,.0f}"
        f" vs. uniform split {naive.objective:,.0f}"
        f" (LP is {1 - lp.objective / naive.objective:.1%} lower)"
    )
    assert lp.objective < naive.objective


@pytest.mark.figure("ablation-fractional")
def test_ablation_fractional_vs_integral_split(once, nids_world):
    """Why d_ikj is fractional: whole-unit assignment cannot split a
    hot path's load across its nodes."""
    setup, sessions, _ = nids_world
    units = build_units(module_set(21), sessions, setup.paths)

    def run():
        fractional = solve_nids_lp(units, setup.topology)
        integral = integral_assignment(units, setup.topology)
        return fractional, integral

    fractional, integral = once(run)
    print(
        f"\nablation: max-load objective — fractional LP"
        f" {fractional.objective:,.0f} vs. whole-unit assignment"
        f" {integral.objective:,.0f}"
        f" (fractional is {1 - fractional.objective / integral.objective:.1%} lower)"
    )
    assert fractional.objective <= integral.objective + 1e-9


@pytest.mark.figure("ablation-greedy")
def test_ablation_greedy_fill(once):
    """The greedy step's contribution to the rounding pipeline."""
    problem = build_problem_for_topology(
        "Abilene", match_seed=3, capacity_fraction=0.10, num_rules=60
    )

    def run():
        relaxed = solve_relaxation(problem)
        results = {}
        for variant in RoundingVariant:
            results[variant] = best_of_roundings(
                problem, variant, iterations=3, seed=2, relaxed=relaxed
            ).fraction_of_lp
        return results

    fractions = once(run)
    print("\nablation: fraction of OptLP by rounding variant")
    for variant, fraction in fractions.items():
        print(f"  {variant.value:<18} {fraction:.3f}")
    assert fractions[RoundingVariant.BASIC] <= fractions[RoundingVariant.LP] + 1e-9
    assert fractions[RoundingVariant.LP] <= fractions[RoundingVariant.GREEDY_LP] + 1e-9


@pytest.mark.figure("ablation-fpl")
def test_ablation_fpl_vs_follow_the_leader(once):
    """FPL's perturbation against a reactive adversary.

    With the perturbation effectively removed (epsilon -> infinity,
    amplitude -> 0) the defender becomes deterministic follow-the-
    leader, and the evasive adversary exploits it relative to FPL.
    """
    epochs = scaled(300, minimum=60)
    problem = build_online_problem(num_rules=4)

    def run():
        fpl = run_online_adaptation(
            problem,
            EvasiveAdversary(problem, seed=9),
            FPLConfig(epochs=epochs, perturbation_scale=1e5, seed=4),
            report_every=epochs,
        )
        ftl = run_online_adaptation(
            problem,
            EvasiveAdversary(problem, seed=9),
            FPLConfig(epochs=epochs, epsilon=1e18, seed=4),  # no perturbation
            report_every=epochs,
        )
        return fpl, ftl

    fpl, ftl = once(run)
    print(
        f"\nablation: final regret vs. evasive adversary —"
        f" FPL {fpl.final_regret:+.3f} vs. follow-the-leader"
        f" {ftl.final_regret:+.3f}"
    )
    assert fpl.final_regret <= ftl.final_regret + 0.05


@pytest.mark.figure("ablation-fine-grained")
def test_ablation_fine_grained_coordination(once, nids_world):
    """The §2.5 future-work extension: first-packet subscriptions
    remove the baseline-tracking duplication at scan ingresses."""
    setup, sessions, deployment = nids_world

    def run():
        traffic = Traffic.materialized(setup.generator, sessions)
        coarse = run_emulation(traffic, deployment)
        fine = run_emulation(
            traffic, deployment, config=EmulationConfig(fine_grained=True)
        )
        return coarse, fine

    coarse, fine = once(run)
    print(
        f"\nablation: fine-grained coordination — max CPU"
        f" {coarse.max_cpu:,.0f} -> {fine.max_cpu:,.0f}"
        f" ({1 - fine.max_cpu / coarse.max_cpu:.1%} further reduction),"
        f" max mem {coarse.max_mem_mb:.1f} -> {fine.max_mem_mb:.1f} MB"
    )
    assert fine.max_cpu < coarse.max_cpu
    assert fine.max_mem_bytes < coarse.max_mem_bytes


@pytest.mark.figure("ablation-redundancy")
def test_ablation_redundancy_levels(once, nids_world):
    """Load cost of the §2.5 r-fold reliability extension."""
    setup, sessions, _ = nids_world
    units = build_units(module_set(21), sessions, setup.paths)

    def run():
        return {
            r: solve_nids_lp(units, setup.topology, coverage=float(r)).objective
            for r in (1, 2, 3)
        }

    objectives = once(run)
    print("\nablation: max-load objective vs. redundancy level")
    for r, objective in objectives.items():
        print(f"  r={r}  objective={objective:,.0f}")
    assert objectives[1] < objectives[2] < objectives[3]
    # Replication is near-linear in load (redundancy is not free).
    assert objectives[2] >= 1.5 * objectives[1]


@pytest.mark.figure("baseline-cluster")
def test_baseline_chokepoint_cluster(once, nids_world):
    """The §1 comparison: a chokepoint NIDS cluster pays a replication
    tax on host-scoped analyses that network-wide coordination avoids
    entirely (it analyzes where the traffic already is)."""
    from repro.nids.cluster import emulate_cluster

    setup, sessions, deployment = nids_world
    # A chokepoint cluster can only analyze traffic that physically
    # traverses its location.
    observable = [
        s for s in sessions if "NYCM" in setup.generator.path_of(s)
    ]

    def run():
        coordinated = run_emulation(
            Traffic.materialized(setup.generator, sessions), deployment
        )
        cluster = emulate_cluster(
            "NYCM", observable, deployment.modules, num_workers=4
        )
        return coordinated, cluster

    coordinated, cluster = once(run)
    coverage = len(observable) / len(sessions)
    print(
        f"\nbaseline: 4-worker cluster at New York — observes only"
        f" {coverage:.0%} of the network's sessions (coverage gap);"
        f" pays replication on {cluster.replication_fraction:.0%} of"
        f" analyzed packets.  Coordinated deployment: 100% coverage"
        f" with zero replication, max node {coordinated.max_cpu:,.0f}"
        f" vs. cluster max worker {cluster.max_worker_cpu:,.0f}."
    )
    assert coverage < 1.0, "a chokepoint must not see everything"
    assert cluster.replicated_packets > 0


@pytest.mark.figure("ablation-dist")
def test_ablation_distance_metric(once):
    """Dist = hops pushes drops upstream; Dist = 1 is indifferent."""
    hops_problem = build_problem_for_topology(
        "Abilene", match_seed=5, capacity_fraction=0.10, num_rules=40
    )
    import dataclasses

    unit_problem = dataclasses.replace(
        hops_problem,
        dist={
            pair: {node: 1.0 for node in dist}
            for pair, dist in hops_problem.dist.items()
        },
    )

    def run():
        hops = solve_relaxation(hops_problem)
        unit = solve_relaxation(unit_problem)
        return hops, unit

    hops, unit = once(run)

    def mean_drop_distance(problem, solution):
        weighted = total = 0.0
        layout = solution.polytope.layout
        for t, fraction in enumerate(solution.d.tolist()):
            i, pair = layout.rule_ids[layout.rule_of[t]], layout.pairs[layout.pair_of[t]]
            node = layout.nodes[layout.node_of[t]]
            mass = hops_problem.items[pair] * hops_problem.match.rate(i, pair) * fraction
            weighted += mass * hops_problem.dist[pair][node]
            total += mass
        return weighted / total if total else 0.0

    hops_distance = mean_drop_distance(hops_problem, hops)
    unit_distance = mean_drop_distance(unit_problem, unit)
    print(
        f"\nablation: mean downstream distance of drops —"
        f" Dist=hops {hops_distance:.2f} vs. Dist=1 {unit_distance:.2f}"
    )
    # Optimizing footprint places drops farther upstream on average.
    assert hops_distance >= unit_distance
