"""``d*`` as the solver's columns against the dict it replaced.

``NIDSAssignment`` holds ``(unit, node, value)`` columns over a unit
table and a node table.  ``tests/manifest_oracle.py`` keeps the two
checks that read ``d*`` as the loops over a ``{(class, key, node):
value}`` dict that they were (``tests.planning_oracle.fractions_of``
rebuilds it from the columns); here the columnar checks must equal
them finding for finding — rule, subject, message text and order — on
small plans with malformed ``d*``: NaN, negative, above 1, on a node
off the path, summing short, for a unit the plan lacks.  The one-unit
views (``fraction``, ``responsible_nodes``) and the ``gather`` must
equal a dict built from the same triples, floats by ``repr``.

Seeded mutations each of which fails a test here: testing Eq. 6 after
the mass skip instead of before it (NaN and negative entries vanish);
folding each unit's mass in column order instead of node order; reading
a ``full`` node's held mass from its (absent) rows instead of 1.0.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.plane import profile_pools, unit_capacity_topology
from repro.core.manifest import check_assignment, check_manifests_match_assignment
from repro.core.nids_deployment import plan_deployment
from repro.core.nids_lp import NIDSAssignment
from repro.hashing.ranges import EPSILON
from repro.nids.modules import STANDARD_MODULES
from repro.topology import PathSet
from tests import manifest_oracle as oracle
from tests.planning_oracle import fractions_of
from tests.test_fig2_columns import planned_units
from tests.test_manifest_table import IDENTS, NOBODY, NODES, manifest_sets

#: Malformed and boundary ``d*`` values: each breaks Eq. 6 or sits on
#: one of the checks' tolerances.
_odd = st.sampled_from(
    [
        math.nan,
        -0.4,
        -EPSILON / 2,
        -0.0,
        0.0,
        EPSILON / 2,
        2 * EPSILON,
        1.0 + EPSILON / 2,
        1.0 + 2 * EPSILON,
        1.5,
        math.inf,
    ]
)
_value = st.one_of(_odd, st.floats(min_value=0.0, max_value=1.0, allow_nan=False))


def assert_same_checks(units, assignment, manifests):
    assert check_assignment(units, assignment) == oracle.check_assignment(
        units, assignment
    )
    assert check_manifests_match_assignment(
        units, assignment, manifests
    ) == oracle.check_manifests_match_assignment(units, assignment, manifests)


def assert_same_views(units, assignment, fractions):
    """``fraction``, ``responsible_nodes`` and ``gather`` read what the
    dict of the same triples holds."""
    idents = {key[:2] for key in fractions} | {unit.ident for unit in units}
    nodes = {key[2] for key in fractions} | set(NODES) | {"n9"}
    for class_name, key in sorted(idents):
        for node in sorted(nodes):
            assert repr(assignment.fraction(class_name, key, node)) == repr(
                fractions.get((class_name, key, node), 0.0)
            )
        assert repr(assignment.responsible_nodes(class_name, key)) == repr(
            [
                (node, value)
                for (c, k, node), value in fractions.items()
                if (c, k) == (class_name, key) and value > 1e-9
            ]
        )
    assert repr(assignment.gather(units).tolist()) == repr(
        [
            fractions.get((unit.class_name, unit.key, node), 0.0)
            for unit in units
            for node in unit.eligible
        ]
    )


@st.composite
def profiles(draw):
    """Triples over IDENTS and NOBODY on any node (n9 included), in any
    order, with coverage for some units (the others expect 1)."""
    fractions = {}
    for ident in draw(st.lists(st.sampled_from(IDENTS + [NOBODY]), unique=True)):
        for node in draw(st.lists(st.sampled_from(NODES + ["n9"]), unique=True)):
            fractions[(*ident, node)] = draw(_value)
    order = draw(st.permutations(list(fractions)))
    fractions = {key: fractions[key] for key in order}
    coverage = {
        ident: draw(st.sampled_from([1.0, 2.0, 1]))
        for ident in draw(st.lists(st.sampled_from(IDENTS + [NOBODY]), unique=True))
    }
    return fractions, coverage


class TestChecks:
    @settings(max_examples=300, deadline=None)
    @given(
        planned_units(), profiles(), manifest_sets(), st.sampled_from(NODES + [None])
    )
    def test_synthetic_profiles_check_as_the_loops_do(
        self, units, profile, manifests, dropped
    ):
        fractions, coverage = profile
        manifests.pop(dropped, None)
        assignment = NIDSAssignment.from_triples(
            ((*key, value) for key, value in fractions.items()), coverage
        )
        assert repr(sorted(fractions_of(assignment).items())) == repr(
            sorted(fractions.items())
        )
        assert_same_views(units, assignment, fractions)
        assert_same_checks(units, assignment, manifests)

    @pytest.fixture(scope="class")
    def deployment(self):
        topology = unit_capacity_topology("Internet2")
        paths = PathSet(topology)
        pool = profile_pools(["mixed"], 23, topology, paths, 400)["mixed"]
        return plan_deployment(topology, paths, STANDARD_MODULES, pool, coverage=2.0)

    def test_a_plan_checks_clean_on_both_sides(self, deployment):
        units, assignment = deployment.units, deployment.assignment
        assert check_assignment(units, assignment) == []
        assert check_manifests_match_assignment(
            units, assignment, deployment.manifests
        ) == []
        assert_same_views(units, assignment, fractions_of(assignment))

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_corrupted_plans_check_as_the_loops_do(self, deployment, data):
        units = deployment.units
        solved = fractions_of(deployment.assignment)
        triples = [(*key, value) for key, value in solved.items()]
        # Malformed values in place, entries dropped (a sum short), a
        # node off the path, a unit the plan lacks.
        for t in data.draw(st.lists(st.integers(0, len(triples) - 1), max_size=6)):
            triples[t] = (*triples[t][:3], data.draw(_value))
        dropped = data.draw(st.sets(st.integers(0, len(triples) - 1), max_size=4))
        triples = [triple for t, triple in enumerate(triples) if t not in dropped]
        victim = data.draw(st.sampled_from(units))
        off_path = [
            node
            for node in deployment.topology.node_names
            if node not in victim.eligible
        ]
        if off_path and data.draw(st.booleans()):
            node = data.draw(st.sampled_from(off_path))
            triples.append((victim.class_name, victim.key, node, data.draw(_value)))
        if data.draw(st.booleans()):
            triples.append(("ghost", ("NYCM",), "NYCM", data.draw(_value)))
        triples = data.draw(st.permutations(triples))
        assignment = NIDSAssignment.from_triples(
            triples, deployment.assignment.coverage
        )
        fractions = {(c, k, node): value for c, k, node, value in triples}
        assert_same_views(units, assignment, fractions)
        assert_same_checks(units, assignment, deployment.manifests)


def test_an_entry_given_twice_is_named():
    with pytest.raises(ValueError, match=r"lists d\* of c/k@B twice"):
        NIDSAssignment.from_triples(
            [
                ("c", ("k",), "A", 0.5),
                ("c", ("k",), "B", 0.4),
                ("c", ["k"], "B", 0.9),
            ],
            {},
        )
