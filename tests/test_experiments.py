"""Smoke + shape tests for the per-figure experiment drivers.

These run the same drivers the benchmarks use, at deliberately tiny
sizes, asserting the *shape* properties the paper reports rather than
absolute values.
"""

import pytest

from repro.core.rounding import RoundingVariant
from repro.experiments import (
    evaluate_point,
    fig11_online_regret,
    fig6_module_scaling,
    fig7_volume_scaling,
    fig8_per_node_profile,
    format_comparison_table,
    format_fig10_table,
    format_fig11_table,
    scaled,
    time_nids_lp,
)


class TestScaling:
    def test_scaled_respects_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.001")
        assert scaled(100, minimum=5) == 5

    def test_scaled_full_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        assert scaled(100) == 100

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            scaled(100)
        monkeypatch.setenv("REPRO_SCALE", "abc")
        with pytest.raises(ValueError):
            scaled(100)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_scale_rejected_at_the_read(self, monkeypatch, raw):
        # nan passes `<= 0` and inf overflows round(); both must fail
        # where the variable is read, not deep inside scaled().
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ValueError, match="REPRO_SCALE must be finite"):
            scaled(100)


class TestFig6:
    def test_coordination_wins_and_gap_grows(self):
        rows = fig6_module_scaling(
            sessions_total=3000, module_counts=(8, 21), seed=1
        )
        assert len(rows) == 2
        for row in rows:
            assert row.coord_cpu < row.edge_cpu
            assert row.coord_mem_mb <= row.edge_mem_mb + 1e-6
        # Fig. 6: the coordinated approach scales better with modules.
        assert rows[1].cpu_reduction > rows[0].cpu_reduction

    def test_table_renders(self):
        rows = fig6_module_scaling(sessions_total=1500, module_counts=(8,), seed=2)
        table = format_comparison_table(rows, "#modules")
        assert "#modules" in table and "cpu red" in table


class TestFig7:
    def test_loads_grow_with_volume(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        rows = fig7_volume_scaling(volume_points=(1000, 3000), seed=3)
        assert rows[1].edge_cpu > rows[0].edge_cpu
        assert rows[1].coord_cpu > rows[0].coord_cpu
        for row in rows:
            assert row.coord_cpu < row.edge_cpu


class TestFig8:
    def test_new_york_offloaded(self):
        profile = fig8_per_node_profile(sessions_total=3000, seed=4)
        assert profile.edge.hottest_cpu_node() == "NYCM"
        assert profile.coordinated.cpu("NYCM") < profile.edge.cpu("NYCM")
        rows = profile.rows()
        assert len(rows) == 11
        # Some node must take on more work than in the edge deployment.
        assert any(coord > edge for _, edge, coord, _, _ in rows)


class TestFig10Driver:
    def test_single_point_fractions(self):
        stats = evaluate_point(
            "Abilene",
            capacity_fraction=0.10,
            variants=(RoundingVariant.LP, RoundingVariant.GREEDY_LP),
            num_scenarios=2,
            iterations=2,
            num_rules=30,
        )
        by_variant = {s.variant: s for s in stats}
        lp = by_variant[RoundingVariant.LP]
        greedy = by_variant[RoundingVariant.GREEDY_LP]
        assert 0.5 <= lp.mean <= 1.0
        assert greedy.mean >= 0.90
        assert greedy.mean >= lp.mean - 1e-9
        table = format_fig10_table(stats)
        assert "Abilene" in table


class TestFig11Driver:
    def test_regret_band(self):
        evaluation = fig11_online_regret(
            num_runs=2, epochs=30, num_rules=3, report_every=10
        )
        assert len(evaluation.runs) == 2
        assert evaluation.worst_final_regret <= 0.25
        table = format_fig11_table(evaluation)
        assert "run 1" in table


class TestTimingDriver:
    def test_nids_lp_timing_runs(self):
        result = time_nids_lp(num_nodes=15, num_sessions=1500)
        assert result.num_nodes == 15
        assert result.solve_seconds > 0.0
        assert result.num_units > 0
