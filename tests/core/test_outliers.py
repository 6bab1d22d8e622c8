"""Unit tests for outlier estimation and error scales (Eq. 12, 21, 22)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import estimate_outliers, soft_threshold, update_error_scale
from repro.core.outliers import (
    robust_step,
    robust_step_batch,
    robust_step_batch_at,
)
from repro.forecast.robust import biweight_rho, huber_psi

K, CK = 2.0, 2.52


class TestSoftThreshold:
    def test_shrinks_toward_zero(self):
        x = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
        np.testing.assert_allclose(
            soft_threshold(x, 1.0), [-2.0, 0.0, 0.0, 0.0, 2.0]
        )

    def test_zero_threshold_identity(self):
        x = np.array([-1.5, 2.5])
        np.testing.assert_allclose(soft_threshold(x, 0.0), x)

    def test_preserves_sign(self):
        x = np.linspace(-5, 5, 11)
        out = soft_threshold(x, 2.0)
        assert np.all(np.sign(out) * np.sign(x) >= 0)

    def test_is_prox_of_l1(self):
        # prox property: out = argmin_z 0.5(z-x)^2 + lam|z| -- check the
        # subgradient optimality condition numerically.
        rng = np.random.default_rng(0)
        x = rng.normal(scale=3.0, size=100)
        lam = 1.2
        z = soft_threshold(x, lam)
        for zi, xi in zip(z, x):
            if zi != 0:
                assert zi - xi + lam * np.sign(zi) == pytest.approx(0.0, abs=1e-12)
            else:
                assert abs(xi) <= lam + 1e-12

    def test_tensor_shape_preserved(self):
        x = np.ones((2, 3, 4))
        assert soft_threshold(x, 0.5).shape == (2, 3, 4)


class TestEstimateOutliers:
    def test_inliers_give_zero(self):
        y = np.array([[1.0, 2.0]])
        yhat = np.array([[1.1, 1.9]])
        sigma = np.full((1, 2), 1.0)
        mask = np.ones((1, 2), dtype=bool)
        np.testing.assert_allclose(
            estimate_outliers(y, yhat, sigma, mask), 0.0, atol=1e-12
        )

    def test_outlier_is_excess_over_k_sigma(self):
        y = np.array([[100.0]])
        yhat = np.array([[10.0]])
        sigma = np.array([[2.0]])
        mask = np.ones((1, 1), dtype=bool)
        out = estimate_outliers(y, yhat, sigma, mask, k=2.0)
        # residual 90, clipped residual 2*2=4 -> outlier 86
        assert out[0, 0] == pytest.approx(86.0)

    def test_negative_outlier(self):
        out = estimate_outliers(
            np.array([[-50.0]]),
            np.array([[0.0]]),
            np.array([[1.0]]),
            np.ones((1, 1), dtype=bool),
        )
        assert out[0, 0] == pytest.approx(-48.0)

    def test_missing_entries_zero(self):
        y = np.full((2, 2), 1000.0)
        yhat = np.zeros((2, 2))
        sigma = np.ones((2, 2))
        mask = np.array([[True, False], [False, True]])
        out = estimate_outliers(y, yhat, sigma, mask)
        assert out[0, 1] == 0.0
        assert out[1, 0] == 0.0
        assert out[0, 0] > 0.0

    def test_decomposition_identity(self):
        # Y - O == psi-cleaned value (Eq. 21 rearranged): the cleaned
        # tensor stays within k*sigma of the prediction.
        rng = np.random.default_rng(1)
        y = rng.normal(scale=10.0, size=(5, 5))
        yhat = rng.normal(size=(5, 5))
        sigma = np.full((5, 5), 0.5)
        mask = np.ones((5, 5), dtype=bool)
        out = estimate_outliers(y, yhat, sigma, mask, k=2.0)
        cleaned = y - out
        assert np.all(np.abs(cleaned - yhat) <= 2.0 * sigma + 1e-9)


class TestUpdateErrorScale:
    def test_missing_entries_keep_scale(self):
        y = np.array([[5.0, 5.0]])
        yhat = np.zeros((1, 2))
        sigma = np.array([[1.0, 1.0]])
        mask = np.array([[True, False]])
        new = update_error_scale(y, yhat, sigma, mask, phi=0.5)
        assert new[0, 1] == pytest.approx(1.0)
        assert new[0, 0] != pytest.approx(1.0)

    def test_bounded_growth_under_huge_outlier(self):
        sigma = np.array([[1.0]])
        new = update_error_scale(
            np.array([[1e9]]),
            np.array([[0.0]]),
            sigma,
            np.ones((1, 1), dtype=bool),
            phi=0.01,
        )
        # rho saturates at ck=2.52: sigma^2 <= 0.01*2.52 + 0.99
        assert new[0, 0] <= np.sqrt(0.01 * 2.52 + 0.99) + 1e-12

    def test_shrinks_on_zero_residual(self):
        sigma = np.array([[2.0]])
        new = update_error_scale(
            np.array([[3.0]]),
            np.array([[3.0]]),
            sigma,
            np.ones((1, 1), dtype=bool),
            phi=0.5,
        )
        assert new[0, 0] == pytest.approx(2.0 * np.sqrt(0.5))

    def test_phi_zero_is_identity(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(3, 3))
        yhat = rng.normal(size=(3, 3))
        sigma = np.abs(rng.normal(size=(3, 3))) + 0.1
        mask = rng.random((3, 3)) > 0.5
        new = update_error_scale(y, yhat, sigma, mask, phi=0.0)
        np.testing.assert_allclose(new, sigma)

    def test_positive(self):
        rng = np.random.default_rng(3)
        y = rng.normal(scale=100, size=(4, 4))
        yhat = rng.normal(size=(4, 4))
        sigma = np.full((4, 4), 0.1)
        mask = np.ones((4, 4), dtype=bool)
        for _ in range(50):
            sigma = update_error_scale(y, yhat, sigma, mask, phi=0.1)
        assert np.all(sigma > 0)


# ----------------------------------------------------------------------
# The fused pass against the composed definitions.
#
# The reference keeps Eq. 21-22 as the paper writes them, composed from
# ``huber_psi`` and ``biweight_rho``.  The fused pass does the same
# arithmetic in the same order except for the cube of the biweight,
# ``t*t*t`` in place of ``t**3``, which can differ by one last place.
# So the outliers must match bit for bit, and each growth factor
# ``φ ρ(z) + 1 - φ`` (of order one) by at most 4 ulp of the dtype, ε.
# σ² is the product of the carried σ² and the growth factors of the
# steps observed at an entry, so the check on σ² propagates that bound:
# ``|Δσ²| <= 4 ε n ĝⁿ σ²`` for ``n`` observed steps, where ``ĝ`` bounds
# one factor.  σ itself is held to 4 ulp where it is well conditioned
# (φ = 0.01); at φ = 1 it is ``σ √ρ(z)``, whose relative error grows
# without bound as ``ρ(z) -> 0``, for the reference as much as for the
# fused pass.
# ----------------------------------------------------------------------


def composed_excess(residual, sigma):
    return residual - huber_psi(residual / sigma, K) * sigma


def composed_growth(residual, sigma, phi):
    return phi * biweight_rho(residual / sigma, K, CK) + (1.0 - phi)


def composed_single_scale(residual, sigma, mask, phi):
    rho = biweight_rho(residual / sigma, K, CK)
    updated = np.sqrt(phi * rho * sigma**2 + (1.0 - phi) * sigma**2)
    return np.where(mask, updated, sigma)


def composed_batch_scale(residual, sigma, mask, phi):
    growth = np.where(mask, composed_growth(residual, sigma, phi), 1.0)
    return sigma * np.sqrt(np.prod(growth, axis=0))


@st.composite
def robust_cases(draw):
    """Residuals, scales and masks; some residuals sit at exactly k σ."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    phi = draw(st.sampled_from([0.01, 1.0]))
    n_batch = draw(st.integers(1, 4))
    size = draw(st.integers(1, 6))
    sigma = draw(
        hnp.arrays(dtype, size, elements=st.floats(2.0**-10, 2.0**10, width=32))
    )
    z = draw(
        hnp.arrays(
            np.float64,
            (n_batch, size),
            elements=st.one_of(
                st.floats(-50.0, 50.0), st.sampled_from([-K, K])
            ),
        )
    )
    mask = draw(hnp.arrays(np.bool_, (n_batch, size)))
    # k σ is exact in binary, so |r / σ| == k exactly there.
    residual = (z * sigma).astype(dtype)
    # Missing cells may hold NaN; it must not reach any output.
    residual[~mask] = np.nan
    return dtype, phi, sigma, residual, mask


def _check(outliers, new_sigma, ref_outliers, ref_sigma, sigma, n_obs, phi):
    dtype = sigma.dtype
    assert outliers.dtype == dtype
    assert new_sigma.dtype == dtype
    np.testing.assert_array_equal(outliers, ref_outliers)
    eps = float(np.finfo(dtype).eps)
    g_max = max(1.0, 1.0 - phi + phi * CK)
    wide = sigma.astype(np.float64)
    bound = 4.0 * eps * n_obs * g_max**n_obs * wide**2
    diff = np.abs(
        new_sigma.astype(np.float64) ** 2 - ref_sigma.astype(np.float64) ** 2
    )
    assert np.all(diff <= bound), (diff, bound)
    if phi < 1.0:
        np.testing.assert_array_max_ulp(new_sigma, ref_sigma, maxulp=4)


class TestFusedPassMatchesComposedDefinitions:
    @settings(max_examples=150, deadline=None)
    @given(robust_cases())
    def test_robust_step(self, case):
        dtype, phi, sigma, residual, mask = case
        r, m = residual[0], mask[0]
        outliers, new_sigma = robust_step(
            r, np.zeros_like(r), sigma, m, k=K, phi=phi, ck=CK
        )
        _check(
            outliers,
            new_sigma,
            np.where(m, composed_excess(r, sigma), 0.0),
            composed_single_scale(r, sigma, m, phi),
            sigma,
            m.astype(int),
            phi,
        )

    @settings(max_examples=150, deadline=None)
    @given(robust_cases())
    def test_robust_step_batch_at_one_slice(self, case):
        # A batch of one (the sparse form of Sofia.step) against the
        # single-slice definitions of Eq. 21-22.
        dtype, phi, sigma, residual, mask = case
        r, m = residual[:1], mask[:1]
        coords = np.nonzero(m)
        outliers, new_sigma = robust_step_batch_at(
            coords,
            r[coords],
            np.zeros_like(r[coords]),
            sigma,
            k=K,
            phi=phi,
            ck=CK,
        )
        _check(
            outliers,
            new_sigma,
            composed_excess(r[0], sigma)[coords[1:]],
            composed_single_scale(r[0], sigma, m[0], phi),
            sigma,
            m[0].astype(int),
            phi,
        )

    @settings(max_examples=150, deadline=None)
    @given(robust_cases())
    def test_robust_step_batch(self, case):
        dtype, phi, sigma, residual, mask = case
        outliers, new_sigma = robust_step_batch(
            residual, np.zeros_like(residual), sigma, mask,
            k=K, phi=phi, ck=CK,
        )
        _check(
            outliers,
            new_sigma,
            np.where(mask, composed_excess(residual, sigma), 0.0),
            composed_batch_scale(residual, sigma, mask, phi),
            sigma,
            mask.sum(axis=0),
            phi,
        )

    @settings(max_examples=150, deadline=None)
    @given(robust_cases())
    def test_robust_step_batch_at(self, case):
        dtype, phi, sigma, residual, mask = case
        coords = np.nonzero(mask)
        outliers, new_sigma = robust_step_batch_at(
            coords,
            residual[coords],
            np.zeros_like(residual[coords]),
            sigma,
            k=K,
            phi=phi,
            ck=CK,
        )
        _check(
            outliers,
            new_sigma,
            composed_excess(residual, sigma)[coords],
            composed_batch_scale(residual, sigma, mask, phi),
            sigma,
            mask.sum(axis=0),
            phi,
        )

    def test_exactly_k_scales_is_not_an_outlier(self):
        for dtype in (np.float32, np.float64):
            sigma = np.array([0.3, 1.7, 250.0], dtype=dtype)
            residual = np.stack([K * sigma, -K * sigma])
            outliers, _ = robust_step_batch(
                residual,
                np.zeros_like(residual),
                sigma,
                np.ones(residual.shape, dtype=bool),
            )
            np.testing.assert_array_equal(outliers, 0.0)
