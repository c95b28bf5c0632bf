"""Fig. 2 as array passes against the per-unit loops they replaced.

``repro.core.manifest.generate_manifests`` lays every unit out at once
(one vector step per path position) and ``check_partition`` /
``check_on_path`` read a manifest set's ``ManifestTable`` columns as
lexsorts and segmented scans.  ``tests/manifest_oracle.py`` keeps the
parent's loops verbatim; everything here is ``==`` against them — the
manifests' entry order and the ``repr`` of every boundary float
(``-0.0`` and ``0.0`` differ there), the findings' rule, subject,
message text and order.  The oracle keeps the parent's behaviour on
malformed ``d*`` (NaN, negative), so the generator is compared on
well-formed profiles only.

Seeded mutations each of which fails a test here: dropping the top
snap (``test_snapped_laps_match_the_loop``); starting every laid range
one ulp above the cursor (``test_generated_profiles_lay_out_as_the_loop_does``,
``test_planned_deployments_lay_out_as_the_loop_does``); shifting the
"last of its unit" flag by one, in the generator's tail snap
(``test_generated_profiles_lay_out_as_the_loop_does``) or in the cover
sweep's last endpoint (``test_generated_sets_check_as_the_loop_does``,
``test_full_nodes_count_per_unit``); counting each ``full`` manifest's
whole range once, for the first unit, instead of once per unit
(``test_generated_sets_check_as_the_loop_does``,
``test_full_nodes_count_per_unit``,
``test_corrupted_plans_check_as_the_loop_does``).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.plane import profile_pools, unit_capacity_topology
from repro.core.manifest import (
    NodeManifest,
    check_on_path,
    check_partition,
    full_manifest,
    generate_manifests,
)
from repro.core.nids_deployment import plan_deployment
from repro.core.nids_lp import NIDSAssignment
from repro.core.units import CoordinationUnit
from repro.hashing.ranges import EPSILON, HashRange
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet
from tests import manifest_oracle as oracle
from tests.test_manifest_table import IDENTS, NOBODY, NODES, manifest_sets

ULP_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def unit(class_name, key, eligible):
    return CoordinationUnit(
        class_name=class_name,
        key=key,
        eligible=tuple(eligible),
        pkts=1.0,
        items=1.0,
        cpu_work=1.0,
        mem_bytes=1.0,
    )


def profile(units, fractions, coverage):
    """An assignment of *fractions* (per unit, in eligible order) with
    per-unit *coverage* (``None``: left out, so generation expects 1)."""
    # A unit listed again overwrites its earlier entries.
    latest = {
        (u.class_name, u.key, node): f
        for u, row in zip(units, fractions)
        for node, f in zip(u.eligible, row)
    }
    return NIDSAssignment.from_triples(
        ((*key, f) for key, f in latest.items()),
        {u.ident: c for u, c in zip(units, coverage) if c is not None},
    )


def laid_out(manifests):
    """Everything a manifest set's bytes depend on, floats by ``repr``."""
    return repr([(node, list(m.entries.items())) for node, m in manifests.items()])


def assert_same_layout(units, assignment, node_names=NODES):
    """``generate_manifests`` == the loop: the same manifests, or the
    same ``ValueError``."""
    try:
        want = oracle.generate_manifests(units, assignment, node_names)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            generate_manifests(units, assignment, node_names)
        assert str(raised.value) == str(error)
        return None
    got = generate_manifests(units, assignment, node_names)
    assert laid_out(got) == laid_out(want)
    return got


def sequential_sum(row):
    total = 0.0
    for f in row:
        if f > EPSILON:
            total += f
    return total


# -- generation --------------------------------------------------------------
_fraction = st.one_of(
    st.sampled_from(
        [
            0.0,
            EPSILON / 2,
            EPSILON,
            2 * EPSILON,
            1e-7,
            1.0 / 3,
            0.5,
            0.5 - EPSILON / 2,
            0.5 + EPSILON / 2,
            1.0 - EPSILON / 2,
            1.0 - 2 * EPSILON,
            1.0 - 5e-7,
            ULP_BELOW_ONE,
            1.0,
        ]
    ),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@st.composite
def layouts(draw):
    units, fractions, coverage = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        # Idents may repeat: a later unit overwrites, as in the loop.
        class_name, key = draw(st.sampled_from(IDENTS + [NOBODY]))
        eligible = draw(st.permutations(NODES))[: draw(st.integers(1, len(NODES)))]
        row = [draw(_fraction) for _ in eligible]
        units.append(unit(class_name, key, eligible))
        fractions.append(row)
        # The fold the profile sums to, off by up to twice the tolerance.
        coverage.append(
            draw(
                st.one_of(
                    st.none(),
                    st.sampled_from([0.0, 1e-7, -1e-7, 9e-7, 2e-6]).map(
                        lambda off, row=row: sequential_sum(row) + off
                    ),
                )
            )
        )
    return units, profile(units, fractions, coverage)


class TestGenerate:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layouts())
    def test_generated_profiles_lay_out_as_the_loop_does(self, layout):
        assert_same_layout(*layout)

    @pytest.mark.parametrize(
        "rows",
        [
            # r = 1: a fraction of EPSILON size, one just over it.
            [[EPSILON, 0.25, 0.75 - EPSILON]],
            [[2 * EPSILON, 0.5, 0.5 - 2 * EPSILON]],
            # r = 1, summing short and long by 1e-7 (tail snapped).
            [[0.3, 0.3, 0.4 - 1e-7]],
            [[0.3, 0.3, 0.4 + 1e-7]],
            # r = 2: the first lap ends within EPSILON of 1.0, so the
            # piece is snapped and the next range starts at 0.0.
            [[0.6, 0.4 - EPSILON / 2, 0.6, 0.4 + EPSILON / 2]],
            [[0.6, 0.4 + EPSILON / 2, 0.6, 0.4 - EPSILON / 2]],
            # r = 2 and 3, arcs wrapping past the top.
            [[0.7, 0.7, 0.6]],
            [[0.9, 0.8, 0.7, 0.6]],
            [[1.0, 1.0, 1.0]],
            [[0.75, 0.75, 0.75, 0.75]],
            # Single-node units, and several units in one pass.
            [[1.0]],
            [[1.0], [0.5, 0.5], [0.2, 0.3, 0.5], [1.0 - 5e-7]],
        ],
    )
    def test_snapped_laps_match_the_loop(self, rows):
        units = [
            unit("c", (f"k{u}",), NODES[: len(row)]) for u, row in enumerate(rows)
        ]
        coverage = [round(sum(row)) for row in rows]
        got = assert_same_layout(units, profile(units, rows, coverage))
        assert got is not None
        assert_same_findings(units, got)

    def test_a_short_sum_raises_the_loops_error(self):
        units = [unit("c", ("k",), NODES[:2]), unit("c", ("j",), NODES[:2])]
        assignment = profile(units, [[0.5, 0.5], [0.5, 0.4]], [1.0, 1.0])
        assert assert_same_layout(units, assignment) is None

    @pytest.mark.parametrize(
        "label, coverage",
        [("Internet2", 1.0), ("Internet2", 2.0), ("Internet2", 3.0), ("Geant", 1.0)],
    )
    def test_planned_deployments_lay_out_as_the_loop_does(self, label, coverage):
        topology = unit_capacity_topology(label)
        paths = PathSet(topology)
        pool = profile_pools(["mixed"], 23, topology, paths, 600)["mixed"]
        deployment = plan_deployment(
            topology, paths, STANDARD_MODULES, pool, coverage=coverage
        )
        got = assert_same_layout(
            deployment.units, deployment.assignment, topology.node_names
        )
        assert laid_out(got) == laid_out(deployment.manifests)
        split = sum(
            sum(1 for m in got.values() if u.ident in m.entries) > 1
            for u in deployment.units
        )
        assert split, "no unit is split: the cursor chaining is not exercised"


# -- the checks --------------------------------------------------------------
@st.composite
def planned_units(draw):
    """Units over IDENTS (and one nobody holds), eligible anywhere —
    including ``n9``, which has no manifest in any set."""
    units = []
    for class_name, key in draw(st.lists(st.sampled_from(IDENTS + [NOBODY]), max_size=6)):
        eligible = draw(st.permutations(NODES + ["n9"]))[: draw(st.integers(1, 6))]
        units.append(unit(class_name, key, eligible))
    return units


def assert_same_findings(units, manifests):
    partition = check_partition(units, manifests)
    on_path = check_on_path(units, manifests)
    assert partition == oracle.check_partition(units, manifests)
    assert on_path == oracle.check_on_path(units, manifests)
    return partition + on_path


class TestChecks:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(planned_units(), manifest_sets())
    def test_generated_sets_check_as_the_loop_does(self, units, manifests):
        assert_same_findings(units, manifests)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(layouts(), st.sampled_from([None, "n0", "n3"]))
    def test_generated_layouts_check_as_the_loop_does(self, layout, full):
        units, assignment = layout
        try:
            manifests = generate_manifests(units, assignment, NODES)
        except ValueError:
            return
        if full is not None:
            manifests[full] = full_manifest(full)
        assert_same_findings(units, manifests)

    def test_entries_on_a_full_manifest_are_still_entries(self):
        u = unit("sig", ("n0", "n1"), ["n0", "n1"])
        manifests = {
            "n0": NodeManifest("n0", {u.ident: (HashRange(0.0, 1.0),)}),
            "n2": NodeManifest(
                "n2",
                {u.ident: (HashRange(0.0, 0.5),), NOBODY: (HashRange(0.5, 0.75),)},
                full=True,
            ),
        }
        findings = assert_same_findings([u], manifests)
        assert [(f.rule_id, f.subject) for f in findings] == [
            ("REP101", "sig/n0,n1@n1"),
            ("REP104", "irc/n3,n4@n2"),
            ("REP104", "sig/n0,n1@n2"),
        ]

    def test_full_nodes_count_per_unit(self):
        """Two units, one full node: the full node's whole range counts
        once for each unit, so a unit's mass is its holder's plus 1.0."""
        units = [unit("c", ("a",), ["n0", "n1"]), unit("c", ("b",), ["n0", "n1"])]
        manifests = {
            "n0": NodeManifest(
                "n0",
                {units[0].ident: (HashRange(0.0, 1.0),), units[1].ident: (HashRange(0.0, 1.0),)},
            ),
            "n1": full_manifest("n1"),
        }
        assert not assert_same_findings(units, manifests)
        manifests["n0"].entries[units[1].ident] = (HashRange(0.0, 0.5),)
        findings = assert_same_findings(units, manifests)
        assert [(f.rule_id, f.subject) for f in findings] == [("REP101", "c/b")]
        assert "1.5" in findings[0].message


@pytest.fixture(scope="module", params=[1.0, 2.0], ids=["r1", "r2"])
def planned(request):
    topology = unit_capacity_topology("Internet2")
    paths = PathSet(topology)
    pool = profile_pools(["mixed"], 29, topology, paths, 500)["mixed"]
    return plan_deployment(
        topology, paths, STANDARD_MODULES, pool, coverage=request.param
    )


def _copy(manifests):
    return {
        node: NodeManifest(node, dict(m.entries), full=m.full)
        for node, m in manifests.items()
    }


def _split_entry(manifests, units):
    """(node, ident) of a positive entry of a unit held by two nodes."""
    for u in units:
        holders = [n for n in sorted(manifests) if manifests[n].entries.get(u.ident)]
        if len(holders) > 1:
            return holders[-1], u.ident
    raise AssertionError("no split unit")


def _overlap(manifests, units):
    node, ident = _split_entry(manifests, units)
    piece = manifests[node].entries[ident][0]
    manifests[node].entries[ident] += (HashRange(piece.lo, piece.hi),)


def _gap(manifests, units):
    node, ident = _split_entry(manifests, units)
    piece = manifests[node].entries[ident][0]
    manifests[node].entries[ident] = (
        HashRange(piece.lo + 0.5 * piece.length, piece.hi),
    ) + manifests[node].entries[ident][1:]


def _ulp_sliver(manifests, units):
    """Every piece of one unit that ends at 1.0 ends an ulp short."""
    ident = next(
        ident
        for node in sorted(manifests)
        for ident, pieces in manifests[node].entries.items()
        if pieces and pieces[-1].hi == 1.0 and pieces[-1].length > 0.01  # repnoqa: REP001 -- generation snaps the top exactly
    )
    for manifest in manifests.values():
        if ident in manifest.entries:
            manifest.entries[ident] = tuple(
                HashRange(p.lo, ULP_BELOW_ONE) if p.hi == 1.0 else p  # repnoqa: REP001 -- generation snaps the top exactly
                for p in manifest.entries[ident]
            )


def _missing(manifests, units):
    del manifests[units[0].eligible[0]]


def _full(manifests, units):
    node = sorted(manifests)[1]
    manifests[node] = full_manifest(node)


def _off_path(manifests, units):
    for u in units:
        stranger = next((n for n in sorted(manifests) if n not in u.eligible), None)
        if stranger is not None:
            manifests[stranger].entries[u.ident] = (HashRange(0.0, 0.25),)
            return
    raise AssertionError("every unit is eligible everywhere")


class TestCorruptedPlans:
    def test_the_plan_checks_clean(self, planned):
        assert not assert_same_findings(planned.units, planned.manifests)

    @pytest.mark.parametrize(
        "corrupt, rule",
        [
            (_overlap, "REP102"),
            (_gap, "REP101"),
            (_ulp_sliver, "REP103"),
            (_missing, "REP101"),
            (_full, "REP101"),
            (_off_path, "REP104"),
        ],
        ids=["overlap", "gap", "ulp-sliver", "missing", "full", "off-path"],
    )
    def test_corrupted_plans_check_as_the_loop_does(self, planned, corrupt, rule):
        manifests = _copy(planned.manifests)
        corrupt(manifests, planned.units)
        findings = assert_same_findings(planned.units, manifests)
        assert rule in {f.rule_id for f in findings}
