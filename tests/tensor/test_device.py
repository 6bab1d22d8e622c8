"""The array-module registry and the ``"xp"`` backend's degradation.

The optional-dependency policy must fail *loudly, not weirdly*: with
``array_api_compat``/torch absent, ``"numpy"`` keeps working through
the NumPy shim, any other module raises
:class:`~repro.exceptions.ConfigError` naming the missing piece, and
the ``use_array_module``/``use_backend`` context managers restore their
previous state even when the body (or the switch itself) raises.
Torch-specific tests are importorskip-guarded and run in the CI matrix
leg that installs torch-CPU.
"""

import importlib.util
import types

import numpy as np
import pytest

from repro.exceptions import ConfigError
from repro.tensor import device, kernels

HAVE_COMPAT = importlib.util.find_spec("array_api_compat") is not None
HAVE_TORCH = (
    HAVE_COMPAT and importlib.util.find_spec("torch") is not None
)


class TestArrayModuleRegistry:
    def test_numpy_is_always_available(self):
        assert "numpy" in device.available_array_modules()
        with device.use_array_module("numpy") as xp:
            assert xp.asarray([1.0, 2.0]).shape == (2,)

    def test_default_module_respects_env(self, monkeypatch):
        import os

        expected = os.environ.get(device.ARRAY_MODULE_ENV_VAR, "").strip()
        assert device.active_array_module_name() == (expected or "numpy")

    def test_unknown_module_raises_config_error_and_leaves_active(self):
        previous = device.active_array_module_name()
        with pytest.raises(ConfigError) as excinfo:
            device.set_array_module("definitely-not-an-array-module")
        assert device.active_array_module_name() == previous
        # The error names what to do about it, loudly.
        message = str(excinfo.value)
        assert "definitely-not-an-array-module" in message
        assert "array-api-compat" in message or "importable" in message

    @pytest.mark.skipif(
        HAVE_COMPAT, reason="array_api_compat installed; shim not in play"
    )
    def test_non_numpy_without_compat_degrades_loudly(self):
        previous = device.active_array_module_name()
        with pytest.raises(ConfigError, match="array-api-compat"):
            device.set_array_module("torch")
        assert device.active_array_module_name() == previous
        assert device.available_array_modules() == ["numpy"]

    @pytest.mark.skipif(
        not HAVE_COMPAT or HAVE_TORCH,
        reason="needs array_api_compat installed but torch absent",
    )
    def test_missing_torch_with_compat_degrades_loudly(self):
        with pytest.raises(ConfigError, match="torch"):
            device.set_array_module("torch")
        assert "torch" not in device.available_array_modules()

    def test_use_array_module_restores_on_raise(self):
        previous = device.active_array_module_name()
        with pytest.raises(RuntimeError, match="boom"):
            with device.use_array_module("numpy"):
                raise RuntimeError("boom")
        assert device.active_array_module_name() == previous

    def test_use_array_module_restores_over_inner_switch(self):
        previous = device.active_array_module_name()
        with device.use_array_module("numpy"):
            device.set_array_module("numpy")
        assert device.active_array_module_name() == previous

    def test_entering_unavailable_module_leaves_active_unchanged(self):
        previous = device.active_array_module_name()
        with pytest.raises(ConfigError):
            with device.use_array_module("definitely-not-a-module"):
                pass  # pragma: no cover - never entered
        assert device.active_array_module_name() == previous


class TestBoundaryConverters:
    def test_roundtrip_preserves_values_and_dtype(self):
        host = np.arange(6, dtype=np.float32).reshape(2, 3)
        dev = device.to_device(host)
        back = device.from_device(dev)
        assert isinstance(back, np.ndarray)
        assert back.dtype == np.float32
        np.testing.assert_array_equal(back, host)

    def test_to_device_casts_dtype(self):
        host = np.ones(4, dtype=np.float64)
        dev = device.to_device(host, dtype=np.float32)
        assert device.from_device(dev).dtype == np.float32

    def test_from_device_passes_numpy_through(self):
        host = np.ones(3)
        assert device.from_device(host) is host


class TestXpBackendRegistration:
    def test_xp_backend_always_registered(self):
        # The NumPy shim keeps "xp" usable with zero optional deps.
        assert "xp" in kernels.available_backends()
        backend = kernels._BACKENDS["xp"]
        assert backend.to_device is device.to_device
        assert backend.from_device is device.from_device
        assert backend.keeps_dense_steps

    def test_set_backend_error_lists_xp(self):
        with pytest.raises(ConfigError, match="xp"):
            kernels.set_backend("nope-not-a-backend")

    def test_use_backend_xp_restores_on_raise(self):
        previous = kernels.active_backend().name
        with pytest.raises(RuntimeError, match="boom"):
            with kernels.use_backend("xp"):
                assert kernels.active_backend().name == "xp"
                raise RuntimeError("boom")
        assert kernels.active_backend().name == previous

    def test_dispatched_to_device_is_identity_for_cpu_backends(self):
        arr = np.ones((2, 2))
        with kernels.use_backend("batched"):
            assert kernels.to_device(arr) is arr
            assert kernels.from_device(arr) is arr

    def test_xp_outputs_follow_host_inputs(self):
        rng = np.random.default_rng(0)
        factors = [rng.normal(size=(s, 2)) for s in (3, 4)]
        with kernels.use_backend("xp"):
            out = kernels.kruskal_reconstruct_rows(
                factors, rng.normal(size=(2, 2))
            )
        assert isinstance(out, np.ndarray)

    def test_xp_writes_in_place_updates_back_through_a_copying_module(
        self, monkeypatch
    ):
        # A device module's asarray copies host arrays; the boundary must
        # write the RLS updates of that copy back into the caller's
        # arrays, exactly as the NumPy binding updates them directly.
        copying = types.SimpleNamespace(
            **{
                **vars(np),
                "asarray": lambda x, dtype=None, copy=None: np.array(
                    x, dtype=dtype, copy=True
                ),
            }
        )
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 4, size=12)
        regressors = rng.normal(size=(12, 2))
        targets = rng.normal(size=12)
        factor = rng.normal(size=(4, 2))
        cov = np.tile(5.0 * np.eye(2), (4, 1, 1))
        factor_xp, cov_xp = factor.copy(), cov.copy()
        with kernels.use_backend("batched"):
            kernels.rls_update_rows(
                factor, cov, rows, regressors, targets, 0.9
            )
        monkeypatch.setattr(device, "get_array_module", lambda: copying)
        with kernels.use_backend("xp"):
            kernels.rls_update_rows(
                factor_xp, cov_xp, rows, regressors, targets, 0.9
            )
        np.testing.assert_array_equal(factor_xp, factor)
        np.testing.assert_array_equal(cov_xp, cov)


@pytest.mark.skipif(not HAVE_TORCH, reason="torch not installed")
class TestTorchModule:
    def test_torch_listed_and_selectable(self):
        assert "torch" in device.available_array_modules()
        with device.use_array_module("torch") as xp:
            t = xp.asarray(np.ones(3))
            assert not isinstance(t, np.ndarray)
            back = device.from_device(t)
            assert isinstance(back, np.ndarray)

    def test_xp_kernels_match_reference_on_torch(self):
        rng = np.random.default_rng(1)
        factors = [rng.normal(size=(s, 3)) for s in (5, 4, 6)]
        mask = rng.random((5, 4, 6)) < 0.4
        coords = np.nonzero(mask)
        values = rng.normal(size=coords[0].size)
        with device.use_array_module("torch"):
            with kernels.use_backend("xp"):
                got_b, got_c = kernels.accumulate_normal_equations(
                    coords, values, factors, 1
                )
        with kernels.use_backend("reference"):
            exp_b, exp_c = kernels.accumulate_normal_equations(
                coords, values, factors, 1
            )
        assert isinstance(got_b, np.ndarray)  # host in, host out
        np.testing.assert_allclose(got_b, exp_b, atol=1e-10)
        np.testing.assert_allclose(got_c, exp_c, atol=1e-10)

    def test_device_native_inputs_stay_on_device(self):
        import torch

        rng = np.random.default_rng(2)
        with device.use_array_module("torch"):
            factors = [
                device.to_device(rng.normal(size=(s, 2))) for s in (3, 4)
            ]
            weights = device.to_device(rng.normal(size=(5, 2)))
            with kernels.use_backend("xp"):
                out = kernels.kruskal_reconstruct_rows(factors, weights)
        assert isinstance(out, torch.Tensor)
