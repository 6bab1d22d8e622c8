"""Integration tests for the per-figure experiment drivers.

Each driver runs at a tiny scale here; the benches run the real presets.
"""

import numpy as np
import pytest

from repro.experiments import (
    TINY_SCALE,
    aligned_factor_error,
    linear_fit_r2,
    run_ablation,
    run_fig2,
    run_forecasting_experiment,
    run_imputation_grid,
    run_scalability,
)
from repro.streams import CorruptionSpec


class TestAlignedFactorError:
    def test_zero_for_identical(self):
        u = np.random.default_rng(0).normal(size=(20, 3))
        assert aligned_factor_error(u, u) == pytest.approx(0.0, abs=1e-9)

    def test_invariant_to_permutation_and_scale(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(20, 3))
        shuffled = u[:, [2, 0, 1]] * np.array([3.0, -1.5, 0.2])
        assert aligned_factor_error(shuffled, u) == pytest.approx(0.0, abs=1e-9)

    def test_positive_for_garbage(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(20, 3))
        v = rng.normal(size=(20, 3))
        assert aligned_factor_error(v, u) > 0.3

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            aligned_factor_error(np.ones((4, 2)), np.ones((4, 3)))


class TestLinearFitR2:
    def test_perfect_line(self):
        x = np.arange(10.0)
        assert linear_fit_r2(x, 3 * x + 1) == pytest.approx(1.0)

    def test_noisy_line_high_r2(self):
        rng = np.random.default_rng(3)
        x = np.arange(50.0)
        y = 2 * x + rng.normal(0, 1.0, 50)
        assert linear_fit_r2(x, y) > 0.95

    def test_quadratic_lower_r2(self):
        x = np.linspace(-10, 10, 50)
        assert linear_fit_r2(x, x**2) < 0.5

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            linear_fit_r2(np.array([1.0]), np.array([2.0]))


class TestFig2Driver:
    def test_sofia_beats_vanilla(self):
        result = run_fig2(max_outer_iters=60, trace_every=20, seed=0)
        assert result.final_nre_sofia < result.final_nre_vanilla
        assert result.temporal_error_sofia < result.temporal_error_vanilla

    def test_trace_lengths_match(self):
        result = run_fig2(max_outer_iters=40, trace_every=10, seed=0)
        assert len(result.iterations) == len(result.nre_sofia)
        assert len(result.nre_sofia) == len(result.nre_vanilla)


class TestImputationGridDriver:
    @pytest.fixture(scope="class")
    def grid(self):
        return run_imputation_grid(
            scale=TINY_SCALE,
            datasets=("nyc_taxi",),
            settings=(CorruptionSpec(30, 15, 3),),
        )

    def test_all_cells_present(self, grid):
        assert len(grid.cells) == 5  # 1 dataset x 1 setting x 5 algorithms

    def test_sofia_wins(self, grid):
        winners = grid.winners()
        assert winners[("nyc_taxi", "(30, 15, 3)")] == "SOFIA"

    def test_cell_lookup(self, grid):
        cell = grid.cell("nyc_taxi", "(30, 15, 3)", "SOFIA")
        assert cell.rae > 0.0
        assert cell.nre_series.ndim == 1

    def test_missing_cell_raises(self, grid):
        with pytest.raises(KeyError):
            grid.cell("nope", "(30, 15, 3)", "SOFIA")

    def test_mini_batch_grid_stays_close_to_sequential(self, grid):
        batched = run_imputation_grid(
            scale=TINY_SCALE.with_batch_size(8),
            datasets=("nyc_taxi",),
            settings=(CorruptionSpec(30, 15, 3),),
        )
        assert len(batched.cells) == len(grid.cells)
        for cell in grid.cells:
            twin = batched.cell(cell.dataset, cell.setting.label, cell.algorithm)
            # nre_series length (= live step count) must be unchanged by
            # chunking, and accuracy must stay in the same regime (SOFIA
            # runs the mini-batch engine; baselines run the sequential
            # fallback and match exactly).
            assert twin.nre_series.shape == cell.nre_series.shape
            if cell.algorithm == "SOFIA":
                assert abs(twin.rae - cell.rae) < 0.05
            else:
                np.testing.assert_allclose(twin.rae, cell.rae, rtol=1e-12)


class TestForecastingDriver:
    def test_sofia_beats_competitors(self):
        cells = run_forecasting_experiment(
            scale=TINY_SCALE, datasets=("nyc_taxi",)
        )
        afe = {c.label: c.afe for c in cells}
        sofia_clean = afe["SOFIA (0, 20, 5)"]
        assert sofia_clean < afe["SMF (0, 20, 5)"]
        assert sofia_clean < afe["CPHW (0, 20, 5)"]

    def test_sofia_all_missing_rates_present(self):
        cells = run_forecasting_experiment(
            scale=TINY_SCALE, datasets=("nyc_taxi",)
        )
        sofia_settings = {
            c.setting.missing_pct for c in cells if c.algorithm == "SOFIA"
        }
        assert sofia_settings == {0, 30, 50, 70}


class TestScalabilityDriver:
    def test_linear_in_entries_and_steps(self):
        # sizes chosen so entry-proportional work dominates the fixed
        # per-step overhead
        result = run_scalability(
            row_sizes=(100, 200, 300, 400), n_cols=50, n_steps=80
        )
        assert result.entries_r2 > 0.8
        assert result.steps_r2 > 0.95
        assert result.total_seconds.shape == (4,)

    def test_times_updates_with_thread_cpu_clock(self, monkeypatch):
        # A fake CPU clock that ticks once per read: every recorded
        # step then takes exactly one tick, whatever the wall clock,
        # other processes or this process's BLAS threads do.
        import time

        ticks = iter(range(10_000))
        monkeypatch.setattr(time, "thread_time", lambda: float(next(ticks)))
        result = run_scalability(
            row_sizes=(20, 40), n_cols=10, n_steps=40, period=5, rank=2
        )
        np.testing.assert_array_equal(result.total_seconds, [25.0, 25.0])


class TestAblationDriver:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return run_ablation(
            setting=CorruptionSpec(40, 15, 3),
            dims=(8, 7),
            rank=2,
            period=8,
            n_seasons=8,
        )

    def test_all_variants_run(self, outcomes):
        assert len(outcomes) == 6

    def test_full_sofia_is_best_or_close(self, outcomes):
        rae = {o.variant: o.rae for o in outcomes}
        full = rae["full SOFIA"]
        # every ablated variant is at least as bad (small tolerance for
        # run-to-run jitter)
        for name, value in rae.items():
            if name != "full SOFIA":
                assert value >= 0.8 * full, (name, value, full)
