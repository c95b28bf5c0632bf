"""Failure-injection tests for the §2.5 redundancy extension.

The extension exists "to be robust to NIDS failures ... e.g., hardware
or OS crashes": with redundancy level r, every point of every unit's
hash space is analyzed by r distinct nodes, so losing any single node
must leave every unit still covered.
"""

import pytest

from repro.core.manifest import sampled_node
from repro.core.nids_deployment import plan_deployment
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet, internet2
from repro.traffic import GeneratorConfig, TrafficGenerator


@pytest.fixture(scope="module")
def deployments():
    topo = internet2().set_uniform_capacities(cpu=1.0, mem=1.0)
    paths = PathSet(topo)
    generator = TrafficGenerator(topo, paths, config=GeneratorConfig(seed=141))
    sessions = generator.generate(1500)
    r1 = plan_deployment(topo, paths, STANDARD_MODULES, sessions)
    r2 = plan_deployment(topo, paths, STANDARD_MODULES, sessions, coverage=2.0)
    return topo, r1, r2


PROBES = (0.05, 0.2, 0.45, 0.7, 0.95)


class TestSingleNodeFailure:
    def test_r1_deployment_loses_coverage_on_failure(self, deployments):
        """Baseline: without redundancy, killing a busy node orphans
        some hash ranges (this is the gap redundancy closes)."""
        topo, r1, _ = deployments
        exposed = 0
        for unit in r1.units:
            for probe in PROBES:
                holders = sampled_node(unit, r1.manifests, probe)
                survivors = [h for h in holders if h != "NYCM"]
                if not survivors and "NYCM" in holders:
                    exposed += 1
        assert exposed > 0

    @pytest.mark.parametrize("failed", ["NYCM", "KSCY", "STTL"])
    def test_r2_survives_any_single_failure(self, deployments, failed):
        """With r=2, any single node failure leaves every replicable
        unit (|eligible| >= 2) covered at every probe point."""
        topo, _, r2 = deployments
        for unit in r2.units:
            if len(unit.eligible) < 2:
                continue  # singleton units cannot be replicated
            for probe in PROBES:
                holders = sampled_node(unit, r2.manifests, probe)
                survivors = [h for h in holders if h != failed]
                assert survivors, (
                    f"unit {unit.ident} lost all coverage at {probe}"
                    f" when {failed} failed"
                )

    def test_r2_holders_are_distinct(self, deployments):
        """The two holders of any point are distinct nodes — replicas
        on the same box would not survive its crash."""
        topo, _, r2 = deployments
        for unit in r2.units:
            if len(unit.eligible) < 2:
                continue
            for probe in PROBES:
                holders = sampled_node(unit, r2.manifests, probe)
                assert len(holders) == len(set(holders)) == 2

    def test_singleton_units_flagged(self, deployments):
        """Singleton units (scan at its only ingress) cannot be made
        redundant — the planner records the reduced coverage so the
        operator knows the residual risk."""
        topo, _, r2 = deployments
        singles = [u for u in r2.units if len(u.eligible) == 1]
        assert singles  # scan/synflood units are singletons
        for unit in singles:
            assert r2.assignment.coverage[unit.ident] == pytest.approx(1.0)


class TestTargetedRepair:
    """Reactive repair: the coordination plane's failure-driven
    redistribution must hand a dead node's ranges to live eligible
    nodes without touching the survivors' existing assignments."""

    def _repair(self, deployments, failed="NYCM"):
        from repro.control.failure import repair_manifests

        topo, r1, _ = deployments
        return topo, r1, repair_manifests(
            r1.manifests, r1.units, topo, {failed}
        )

    def test_failed_node_fully_cleared(self, deployments):
        _, _, result = self._repair(deployments)
        assert result.manifests["NYCM"].entries == {}

    def test_survivor_ranges_untouched(self, deployments):
        """Survivors only ever *gain* ranges; their previous holdings
        stay bit-identical (the property that keeps repairs delta-sized)."""
        _, r1, result = self._repair(deployments)
        for node, manifest in r1.manifests.items():
            if node == "NYCM":
                continue
            for ident, ranges in manifest.entries.items():
                repaired = result.manifests[node].entries[ident]
                assert repaired[: len(ranges)] == ranges

    def test_replicable_units_stay_fully_covered(self, deployments):
        """Every unit with a live eligible node keeps exact coverage
        after the repair."""
        from repro.hashing.ranges import union_length

        _, r1, result = self._repair(deployments)
        orphaned_idents = {ident for ident, _ in result.orphaned}
        for unit in r1.units:
            survivors = [n for n in unit.eligible if n != "NYCM"]
            if not survivors or unit.ident in orphaned_idents:
                continue
            held = []
            for node in survivors:
                held.extend(
                    result.manifests[node].ranges(unit.class_name, unit.key)
                )
            assert union_length(held) == pytest.approx(1.0, abs=1e-9)

    def test_moves_only_from_failed_node(self, deployments):
        _, _, result = self._repair(deployments)
        assert result.moves  # NYCM is busy; something must move
        for _cls, _key, donor, receiver, _piece in result.moves:
            assert donor == "NYCM"
            assert receiver != "NYCM"

    def test_moved_mass_matches_failed_holdings(self, deployments):
        _, r1, result = self._repair(deployments)
        orphaned_mass = sum(mass for _, mass in result.orphaned)
        held = sum(
            r.length
            for ranges in r1.manifests["NYCM"].entries.values()
            for r in ranges
        )
        assert result.moved_mass + orphaned_mass == pytest.approx(held)

    def test_singleton_units_reported_orphaned(self, deployments):
        """Units whose only eligible node died cannot be repaired; they
        must be surfaced, not silently dropped."""
        _, r1, result = self._repair(deployments)
        expected = {
            unit.ident
            for unit in r1.units
            if unit.eligible == ("NYCM",)
            and r1.manifests["NYCM"].entries.get(unit.ident)
        }
        assert {ident for ident, _ in result.orphaned} >= expected

    def test_redundant_deployment_repairs_without_overlap(self, deployments):
        """Under r=2 a receiver must never end up holding the same
        point twice for one unit (distinct-holders invariant)."""
        from repro.control.failure import repair_manifests

        topo, _, r2 = deployments
        result = repair_manifests(r2.manifests, r2.units, topo, {"NYCM"})
        for node, manifest in result.manifests.items():
            for ident, ranges in manifest.entries.items():
                ordered = sorted(ranges, key=lambda r: r.lo)
                for first, second in zip(ordered, ordered[1:]):
                    assert not first.overlaps(second)
