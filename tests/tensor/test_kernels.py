"""Structural and absolute-correctness tests for the kernel layer.

Cross-backend parity (every registered backend vs ``"reference"``) lives
in the reusable harness ``tests/tensor/backend_conformance.py``, driven
by ``test_backend_conformance.py``.  This file pins everything else: the
backend registry semantics, the backend-independent building blocks
(segment sums, gather products, Lipschitz norms), the absolute
correctness of each formulation against its mathematical definition
(``np.add.at``, the materialized Khatri-Rao product, per-row Kruskal
evaluation), the multicolor Gauss-Seidel ordering argument, and
end-to-end ALS agreement across backends.
"""

import os
import sys
import types

import numpy as np
import pytest

from repro.core.smoothness import neighbor_count, neighbor_sum
from repro.exceptions import ConfigError, ShapeError
from repro.tensor import (
    khatri_rao,
    kernels,
    kruskal_to_tensor,
    random_factors,
    unfold,
)
from repro.tensor.kernels import (
    kruskal_column_sq_norms,
    lag_neighbor_counts,
    lag_neighbor_sums,
    masked_soft_threshold,
    mttkrp_observed,
    observed_factor_products,
    scatter_normal_equations,
    segment_sum,
    soft_threshold,
)


def random_masked_case(seed, shape=(9, 7, 30), rank=3, observed=0.7):
    rng = np.random.default_rng(seed)
    factors = random_factors(shape, rank, seed=seed)
    tensor = np.einsum(
        "ir,jr,kr->ijk", *factors
    ) + 0.1 * rng.normal(size=shape)
    mask = rng.random(shape) < observed
    coords = np.nonzero(mask)
    return tensor, mask, coords, tensor[coords], factors


class TestBackendRegistry:
    def test_all_shipped_backends_registered(self):
        assert {"auto", "batched", "reference", "sparse"} <= set(
            kernels.available_backends()
        )

    def test_default_backend_is_auto(self):
        # The import-time default; the env hook below may override it in
        # a backend-matrix CI leg.
        expected = os.environ.get(kernels.BACKEND_ENV_VAR, "").strip()
        assert kernels.active_backend().name == (expected or "auto")

    def test_use_backend_restores_previous(self):
        previous = kernels.active_backend().name
        with kernels.use_backend("reference") as backend:
            assert backend.name == "reference"
            assert kernels.active_backend().name == "reference"
        assert kernels.active_backend().name == previous

    def test_use_backend_restores_previous_when_body_raises(self):
        previous = kernels.active_backend().name
        with pytest.raises(RuntimeError, match="boom"):
            with kernels.use_backend("reference"):
                assert kernels.active_backend().name == "reference"
                raise RuntimeError("boom")
        assert kernels.active_backend().name == previous

    def test_use_backend_restores_over_inner_switch(self):
        previous = kernels.active_backend().name
        with kernels.use_backend("reference"):
            kernels.set_backend("batched")
        assert kernels.active_backend().name == previous

    def test_unknown_backend_rejected_and_active_unchanged(self):
        previous = kernels.active_backend().name
        with pytest.raises(ConfigError):
            kernels.set_backend("does-not-exist")
        assert kernels.active_backend().name == previous
        with pytest.raises(ConfigError):
            with kernels.use_backend("does-not-exist"):
                pass  # pragma: no cover - never entered
        assert kernels.active_backend().name == previous

    def test_unknown_backend_error_lists_available(self):
        with pytest.raises(ConfigError) as excinfo:
            kernels.set_backend("does-not-exist")
        message = str(excinfo.value)
        for name in kernels.available_backends():
            assert name in message


class TestSolveRows:
    def test_solves_ridged_systems(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(40, 4, 4))
        lhs = base @ base.transpose(0, 2, 1) + 0.5 * np.eye(4)
        rhs = rng.normal(size=(40, 4))
        out = kernels.solve_rows(lhs, rhs, rng.normal(size=(40, 4)))
        np.testing.assert_allclose(
            np.einsum("nij,nj->ni", lhs, out), rhs, atol=1e-6
        )

    def test_singular_rows_get_least_squares_solution(self):
        # Rank-1 systems: solve() would fail without the fallback path.
        rng = np.random.default_rng(1)
        v = rng.normal(size=(10, 3))
        lhs = v[:, :, None] * v[:, None, :]
        # consistent right-hand sides so lstsq/pinv agree exactly
        rhs = np.einsum("nij,nj->ni", lhs, rng.normal(size=(10, 3)))
        out = kernels.solve_rows(lhs, rhs)
        assert float(
            np.abs(np.einsum("nij,nj->ni", lhs, out) - rhs).max()
        ) < 1e-6

    def test_all_zero_rows_keep_fallback(self):
        rng = np.random.default_rng(2)
        lhs = np.zeros((6, 3, 3))
        rhs = np.zeros((6, 3))
        lhs[0] = np.eye(3)
        rhs[0] = rng.normal(size=3)
        fallback = rng.normal(size=(6, 3))
        out = kernels.solve_rows(lhs, rhs, fallback)
        np.testing.assert_array_equal(out[1:], fallback[1:])

    def test_zero_lhs_nonzero_rhs_is_solved_not_skipped(self):
        # Only rows where BOTH sides vanish pass through.
        lhs = np.zeros((2, 2, 2))
        rhs = np.array([[1.0, -2.0], [0.0, 0.0]])
        fallback = np.full((2, 2), 7.0)
        out = kernels.solve_rows(lhs, rhs, fallback)
        assert not np.allclose(out[0], fallback[0])
        np.testing.assert_array_equal(out[1], fallback[1])

    def test_empty_batch(self):
        out = kernels.solve_rows(np.zeros((0, 3, 3)), np.zeros((0, 3)))
        assert out.shape == (0, 3)

    @pytest.mark.parametrize("backend", ["batched", "xp"])
    def test_fallback_catches_singular_errors_only(self, backend, monkeypatch):
        # A singular batch falls back to the pseudo-inverse; any other
        # failure of the batched solve must surface, not be papered over.
        rng = np.random.default_rng(3)
        base = rng.normal(size=(5, 3, 3))
        lhs = base @ base.transpose(0, 2, 1) + np.eye(3)
        rhs = rng.normal(size=(5, 3))
        with kernels.use_backend(backend):
            expected = kernels.solve_rows(lhs, rhs)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with kernels.use_backend(backend):
            out = kernels.solve_rows(lhs, rhs)
        np.testing.assert_allclose(out, expected, rtol=1e-8, atol=1e-10)

        def broken(*args, **kwargs):
            raise RuntimeError("not a singular system")

        monkeypatch.setattr(np.linalg, "solve", broken)
        with kernels.use_backend(backend):
            with pytest.raises(RuntimeError, match="not a singular"):
                kernels.solve_rows(lhs, rhs)

    def test_singular_errors_add_torch_linalg_error_once_loaded(
        self, monkeypatch
    ):
        class TorchLinAlgError(RuntimeError):
            pass

        monkeypatch.delitem(sys.modules, "torch", raising=False)
        assert kernels._singular_errors() == (np.linalg.LinAlgError,)
        fake_torch = types.SimpleNamespace(
            linalg=types.SimpleNamespace(LinAlgError=TorchLinAlgError)
        )
        monkeypatch.setitem(sys.modules, "torch", fake_torch)
        assert kernels._singular_errors() == (
            np.linalg.LinAlgError,
            TorchLinAlgError,
        )


class TestSegmentSum:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_add_at_on_random_sparse_coords(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 2000))
        dim = int(rng.integers(1, 40))
        segments = rng.integers(0, dim, size=n)
        data = rng.normal(size=(n, 3, 3))
        expected = np.zeros((dim, 3, 3))
        np.add.at(expected, segments, data)
        np.testing.assert_allclose(
            segment_sum(segments, data, dim), expected, atol=1e-10
        )

    def test_empty_input(self):
        out = segment_sum(np.zeros(0, dtype=int), np.zeros((0, 2)), 4)
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            segment_sum(np.zeros(3, dtype=int), np.zeros((4, 2)), 5)

    def test_scatter_normal_equations_matches_add_at(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 11, size=500)
        design = rng.normal(size=(500, 4))
        targets = rng.normal(size=500)
        gram, rhs = scatter_normal_equations(rows, design, targets, 11)
        expected_gram = np.zeros((11, 4, 4))
        expected_rhs = np.zeros((11, 4))
        np.add.at(
            expected_gram, rows, design[:, :, None] * design[:, None, :]
        )
        np.add.at(expected_rhs, rows, targets[:, None] * design)
        np.testing.assert_allclose(gram, expected_gram, atol=1e-10)
        np.testing.assert_allclose(rhs, expected_rhs, atol=1e-10)


class TestAccumulateNormalEquations:
    """Absolute correctness of the dense and sparse formulations.

    Both executed paths are pinned to the buffered ``np.add.at``
    definition of Eq. 14-15; the backend dispatch itself is covered by
    the conformance suite.
    """

    @staticmethod
    def add_at_expectation(coords, values, factors, mode):
        rank = factors[0].shape[1]
        dim = factors[mode].shape[0]
        prod = observed_factor_products(coords, factors, skip_mode=mode)
        big_b = np.zeros((dim, rank, rank))
        big_c = np.zeros((dim, rank))
        np.add.at(big_b, coords[mode], prod[:, :, None] * prod[:, None, :])
        np.add.at(big_c, coords[mode], values[:, None] * prod)
        return big_b, big_c

    @pytest.mark.parametrize("backend", ["batched", "sparse"])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_add_at_accumulation(self, backend, mode):
        tensor, mask, coords, values, factors = random_masked_case(0)
        expected_b, expected_c = self.add_at_expectation(
            coords, values, factors, mode
        )
        with kernels.use_backend(backend):
            big_b, big_c = kernels.accumulate_normal_equations(
                coords, values, factors, mode
            )
        np.testing.assert_allclose(big_b, expected_b, atol=1e-10)
        np.testing.assert_allclose(big_c, expected_c, atol=1e-10)

    @pytest.mark.parametrize("backend", ["auto", "batched", "sparse"])
    def test_empty_mask(self, backend):
        factors = random_factors((4, 5, 6), 2, seed=0)
        coords = tuple(np.zeros(0, dtype=int) for _ in range(3))
        with kernels.use_backend(backend):
            big_b, big_c = kernels.accumulate_normal_equations(
                coords, np.zeros(0), factors, 1
            )
        np.testing.assert_array_equal(big_b, np.zeros((5, 2, 2)))
        np.testing.assert_array_equal(big_c, np.zeros((5, 2)))

    @pytest.mark.parametrize("backend", ["batched", "sparse"])
    def test_all_entries_in_one_row(self, backend):
        # The histogram path must leave untouched bins exactly zero.
        tensor, mask, _, _, factors = random_masked_case(1)
        row_mask = np.zeros_like(mask)
        row_mask[:, 2, :] = mask[:, 2, :]
        coords = np.nonzero(row_mask)
        values = tensor[coords]
        expected_b, expected_c = self.add_at_expectation(
            coords, values, factors, 1
        )
        with kernels.use_backend(backend):
            big_b, big_c = kernels.accumulate_normal_equations(
                coords, values, factors, 1
            )
        np.testing.assert_allclose(big_b, expected_b, atol=1e-10)
        np.testing.assert_allclose(big_c, expected_c, atol=1e-10)
        assert not big_b[[0, 1, 3, 4], :, :].any()


class TestTemporalSweep:
    @staticmethod
    def sweep_inputs(seed, length=40, rank=3, period=7, observed=0.6):
        tensor, mask, coords, values, factors = random_masked_case(
            seed, shape=(6, 5, length), rank=rank, observed=observed
        )
        big_b, big_c = kernels.accumulate_normal_equations(
            coords, values, factors, 2
        )
        return big_b, big_c, factors[2], period

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("period", [1, 2, 7, 100])
    def test_batched_sweep_is_exact_color_ordered_gauss_seidel(
        self, seed, period
    ):
        """The blocked sweep must equal a scalar Gauss-Seidel sweep that
        visits the rows in the same color order — color classes have no
        internal coupling, so the two are the same algorithm."""
        big_b, big_c, temporal, _ = self.sweep_inputs(seed, period=7)
        lambda1, lambda2 = 0.3, 0.2
        length = temporal.shape[0]
        idx = np.arange(length)
        colors = (idx & 1) + 2 * ((idx // period) & 1)
        order = np.concatenate(
            [np.flatnonzero(colors == color) for color in range(4)]
        )

        # scalar color-ordered Gauss-Seidel using the reference row solver
        expected = temporal.copy()
        eye = np.eye(temporal.shape[1])
        counts1 = lag_neighbor_counts(length, 1)
        counts2 = lag_neighbor_counts(length, period)
        for i in order:
            lhs = big_b[i] + (
                lambda1 * counts1[i] + lambda2 * counts2[i]
            ) * eye
            rhs = (
                big_c[i]
                + lambda1 * lag_neighbor_sums(expected, 1, np.array([i]))[0]
                + lambda2
                * lag_neighbor_sums(expected, period, np.array([i]))[0]
            )
            if not lhs.any() and not rhs.any():
                continue
            with kernels.use_backend("reference"):
                expected[i] = kernels.solve_rows(
                    lhs[None], rhs[None], expected[i][None]
                )[0]

        with kernels.use_backend("batched"):
            actual = kernels.temporal_sweep(
                big_b,
                big_c,
                temporal,
                lambda1=lambda1,
                lambda2=lambda2,
                period=period,
            )
        np.testing.assert_allclose(actual, expected, atol=1e-10)

    def test_color_classes_have_no_internal_coupling(self):
        # No two same-color rows may be lag-1 or lag-m neighbors.
        for period in (1, 2, 3, 4, 7, 24):
            idx = np.arange(200)
            colors = (idx & 1) + 2 * ((idx // period) & 1)
            for lag in (1, period):
                same = colors[: 200 - lag] == colors[lag:]
                assert not same.any(), (period, lag)

    def test_unobserved_uncoupled_rows_keep_previous_values(self):
        # With no observations and no smoothness, every row passes through.
        temporal = np.random.default_rng(5).normal(size=(10, 3))
        big_b = np.zeros((10, 3, 3))
        big_c = np.zeros((10, 3))
        with kernels.use_backend("batched"):
            out = kernels.temporal_sweep(
                big_b, big_c, temporal, lambda1=0.0, lambda2=0.0, period=3
            )
        np.testing.assert_array_equal(out, temporal)


class TestMttkrp:
    @pytest.mark.parametrize("backend", ["batched", "sparse"])
    @pytest.mark.parametrize("mode", [0, 1, 2, None])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_khatri_rao_formulation(self, backend, mode, weighted):
        rng = np.random.default_rng(3)
        shape = (5, 6, 7)
        tensor = rng.normal(size=shape)
        factors = random_factors(shape, 4, seed=3)
        weights = rng.normal(size=4) if weighted else None
        with kernels.use_backend(backend):
            got = kernels.mttkrp(tensor, factors, mode, weights)
        if mode is None:
            kr = khatri_rao(list(factors))
            if weights is not None:
                kr = kr * weights[None, :]
            expected = tensor.reshape(-1) @ kr
        else:
            others = [factors[l] for l in range(3) if l != mode]
            kr = khatri_rao(others)
            if weights is not None:
                kr = kr * weights[None, :]
            expected = unfold(tensor, mode) @ kr
        np.testing.assert_allclose(got, expected, atol=1e-10)

    @pytest.mark.parametrize("backend", ["auto", "batched", "sparse"])
    def test_single_mode_tensor(self, backend):
        rng = np.random.default_rng(7)
        tensor = rng.normal(size=5)
        factors = [rng.normal(size=(5, 3))]
        with kernels.use_backend(backend):
            got = kernels.mttkrp(tensor, factors, 0)
        np.testing.assert_allclose(
            got, np.repeat(tensor[:, None], 3, axis=1), atol=1e-12
        )

    def test_mttkrp_observed_matches_dense_on_masked_tensor(self):
        # The coordinate-level building block the sparse dynamic path
        # uses directly must agree with the dense contraction.
        tensor, mask, coords, values, factors = random_masked_case(9)
        masked = np.where(mask, tensor, 0.0)
        weights = np.array([0.5, -1.0, 2.0])
        for mode in (0, 1, 2, None):
            with kernels.use_backend("batched"):
                expected = kernels.mttkrp(masked, factors, mode, weights)
            got = mttkrp_observed(coords, values, factors, mode,
                                  weights=weights)
            np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_mttkrp_observed_dim_override_and_none_slot(self):
        tensor, mask, coords, values, factors = random_masked_case(10)
        got = mttkrp_observed(
            coords, values, [factors[0], factors[1], None], 2, dim=30
        )
        with kernels.use_backend("batched"):
            expected = kernels.mttkrp(
                np.where(mask, tensor, 0.0), factors, 2
            )
        np.testing.assert_allclose(got, expected, atol=1e-10)


class TestKruskalReconstructRows:
    @pytest.mark.parametrize("backend", ["batched", "sparse"])
    @pytest.mark.parametrize("n_batch", [1, 2, 8, 40])
    def test_matches_per_row_kruskal(self, backend, n_batch):
        """Both dense strategies (selected by the batch-vs-last-mode
        size) must match B separate Kruskal calls."""
        rng = np.random.default_rng(n_batch)
        shape = (5, 6)
        factors = random_factors(shape, 3, seed=n_batch)
        weight_rows = rng.normal(size=(n_batch, 3))
        expected = np.stack(
            [
                kruskal_to_tensor(factors, weights=weight_rows[b])
                for b in range(n_batch)
            ],
            axis=0,
        )
        with kernels.use_backend(backend):
            got = kernels.kruskal_reconstruct_rows(factors, weight_rows)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("backend", ["auto", "batched", "sparse"])
    def test_coords_gather_matches_dense_stack(self, backend):
        rng = np.random.default_rng(11)
        factors = random_factors((4, 3, 5), 2, seed=11)
        weight_rows = rng.normal(size=(6, 2))
        mask = rng.random((6, 4, 3, 5)) < 0.2
        coords = np.nonzero(mask)
        with kernels.use_backend("batched"):
            dense = kernels.kruskal_reconstruct_rows(factors, weight_rows)
        with kernels.use_backend(backend):
            got = kernels.kruskal_reconstruct_rows(
                factors, weight_rows, coords
            )
        np.testing.assert_allclose(got, dense[coords], atol=1e-10)
        assert got.shape == (coords[0].size,)

    def test_three_mode_factors(self):
        rng = np.random.default_rng(11)
        factors = random_factors((4, 3, 5), 2, seed=11)
        weight_rows = rng.normal(size=(3, 2))
        with kernels.use_backend("batched"):
            fast = kernels.kruskal_reconstruct_rows(factors, weight_rows)
        assert fast.shape == (3, 4, 3, 5)
        np.testing.assert_allclose(
            fast[1], kruskal_to_tensor(factors, weights=weight_rows[1]),
            atol=1e-12,
        )

    def test_single_factor(self):
        rng = np.random.default_rng(5)
        factor = rng.normal(size=(6, 3))
        weight_rows = rng.normal(size=(2, 3))
        with kernels.use_backend("batched"):
            got = kernels.kruskal_reconstruct_rows([factor], weight_rows)
        np.testing.assert_allclose(got, weight_rows @ factor.T, atol=1e-12)

    @pytest.mark.parametrize("backend", ["batched", "reference", "sparse"])
    def test_one_dim_weights_rejected(self, backend):
        factors = random_factors((4, 4), 2, seed=0)
        with kernels.use_backend(backend):
            with pytest.raises(ShapeError):
                kernels.kruskal_reconstruct_rows(factors, np.ones(2))

    def test_wrong_coords_arity_rejected(self):
        factors = random_factors((4, 4), 2, seed=0)
        with pytest.raises(ShapeError):
            kernels.kruskal_reconstruct_rows(
                factors, np.ones((2, 2)), (np.zeros(1, dtype=int),) * 2
            )


class TestRlsUpdateRows:
    def test_matches_scalar_recursion(self):
        rng = np.random.default_rng(0)
        dim, rank, n = 8, 3, 300
        rows = rng.integers(0, dim, size=n)
        regressors = rng.normal(size=(n, rank))
        targets = rng.normal(size=n)

        factor_fast = rng.normal(size=(dim, rank))
        cov_fast = np.tile(10.0 * np.eye(rank), (dim, 1, 1))
        factor_slow = factor_fast.copy()
        cov_slow = cov_fast.copy()

        with kernels.use_backend("batched"):
            kernels.rls_update_rows(
                factor_fast, cov_fast, rows, regressors, targets, 0.98
            )
        with kernels.use_backend("reference"):
            kernels.rls_update_rows(
                factor_slow, cov_slow, rows, regressors, targets, 0.98
            )
        np.testing.assert_allclose(factor_fast, factor_slow, atol=1e-10)
        np.testing.assert_allclose(cov_fast, cov_slow, atol=1e-8)

    def test_empty_batch_is_noop(self):
        factor = np.ones((3, 2))
        cov = np.tile(np.eye(2), (3, 1, 1))
        kernels.rls_update_rows(
            factor,
            cov,
            np.zeros(0, dtype=int),
            np.zeros((0, 2)),
            np.zeros(0),
            0.9,
        )
        np.testing.assert_array_equal(factor, np.ones((3, 2)))


class TestSharedHelpers:
    def test_observed_factor_products_matches_manual_loop(self):
        tensor, mask, coords, values, factors = random_masked_case(11)
        design = observed_factor_products(coords, factors, skip_mode=1)
        manual = factors[0][coords[0]] * factors[2][coords[2]]
        np.testing.assert_allclose(design, manual, atol=1e-12)

    def test_observed_factor_products_skip_slot_may_be_none(self):
        tensor, mask, coords, values, factors = random_masked_case(11)
        design = observed_factor_products(
            coords, [None, factors[1], factors[2]], skip_mode=0
        )
        manual = factors[1][coords[1]] * factors[2][coords[2]]
        np.testing.assert_allclose(design, manual, atol=1e-12)

    def test_observed_factor_products_with_weights(self):
        tensor, mask, coords, values, factors = random_masked_case(12)
        w = np.array([0.5, -1.0, 2.0])
        design = observed_factor_products(coords, factors, weights=w)
        manual = (
            factors[0][coords[0]]
            * factors[1][coords[1]]
            * factors[2][coords[2]]
            * w[None, :]
        )
        np.testing.assert_allclose(design, manual, atol=1e-12)

    def test_column_sq_norms_match_khatri_rao_trace(self):
        factors = random_factors((4, 5, 6), 3, seed=13)
        w = np.array([1.5, -0.5, 2.0])
        kr = khatri_rao(factors) * w[None, :]
        np.testing.assert_allclose(
            np.sum(kruskal_column_sq_norms(factors, weights=w)),
            float(np.sum(kr * kr)),
            rtol=1e-12,
        )

    def test_lag_neighbor_helpers_match_scalar_forms(self):
        rng = np.random.default_rng(14)
        u = rng.normal(size=(12, 3))
        for lag in (1, 3, 11, 20):
            counts = lag_neighbor_counts(12, lag)
            sums = lag_neighbor_sums(u, lag)
            for i in range(12):
                assert counts[i] == neighbor_count(i, 12, lag)
                np.testing.assert_allclose(
                    sums[i], neighbor_sum(u, i, lag), atol=1e-12
                )

    def test_masked_soft_threshold_matches_composition(self):
        rng = np.random.default_rng(15)
        y = rng.normal(size=(6, 7))
        pred = rng.normal(size=(6, 7))
        mask = rng.random((6, 7)) > 0.5
        np.testing.assert_allclose(
            masked_soft_threshold(y, pred, mask, 0.3),
            soft_threshold(np.where(mask, y - pred, 0.0), 0.3),
            atol=1e-12,
        )


class TestEndToEndBackendAgreement:
    @staticmethod
    def als_case():
        factors = random_factors((8, 7, 24), 2, seed=1)
        tensor = kruskal_to_tensor(factors)
        rng = np.random.default_rng(2)
        mask = rng.random(tensor.shape) > 0.3
        init = random_factors(tensor.shape, 2, seed=3)
        return tensor, mask, init

    @pytest.mark.parametrize("backend", ["auto", "batched", "sparse"])
    def test_sofia_als_exact_parity_without_coupling(self, backend):
        """With λ1 = λ2 = 0 the temporal rows decouple, so the sweep
        ordering is irrelevant and every backend must agree with the
        reference to solver precision on the whole ALS run."""
        from repro.core import SofiaConfig, sofia_als

        tensor, mask, init = self.als_case()
        config = SofiaConfig(
            rank=2, period=6, lambda1=0.0, lambda2=0.0,
            max_als_iters=30, tol=1e-12,
        )
        outliers = np.zeros_like(tensor)
        with kernels.use_backend(backend):
            fast = sofia_als(tensor, mask, outliers, init, config)
        with kernels.use_backend("reference"):
            slow = sofia_als(tensor, mask, outliers, init, config)
        np.testing.assert_allclose(fast.completed, slow.completed, atol=1e-7)
        for f_fast, f_slow in zip(fast.factors, slow.factors):
            np.testing.assert_allclose(f_fast, f_slow, atol=1e-7)

    @pytest.mark.parametrize("backend", ["batched", "sparse"])
    def test_sofia_als_equally_good_fit_with_coupling(self, backend):
        """With smoothness coupling the backends sweep the temporal
        rows in different (both valid) Gauss-Seidel orderings, so the
        factors drift slightly — but the masked fit must stay equally
        good."""
        from repro.core import SofiaConfig, sofia_als
        from repro.tensor import masked_relative_error

        tensor, mask, init = self.als_case()
        config = SofiaConfig(
            rank=2, period=6, lambda1=0.05, lambda2=0.05,
            max_als_iters=150, tol=1e-9,
        )
        outliers = np.zeros_like(tensor)
        with kernels.use_backend(backend):
            fast = sofia_als(tensor, mask, outliers, init, config)
        with kernels.use_backend("reference"):
            slow = sofia_als(tensor, mask, outliers, init, config)
        fast_err = masked_relative_error(fast.completed, tensor, mask)
        slow_err = masked_relative_error(slow.completed, tensor, mask)
        assert abs(fast_err - slow_err) < 0.02
        assert fast_err < 0.3
