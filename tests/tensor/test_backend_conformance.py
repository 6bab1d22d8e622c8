"""Drive the cross-backend conformance harness over every backend.

The case matrix lives in :mod:`tests.tensor.backend_conformance`; this
file only parameterizes it over :func:`kernels.available_backends` and
the dtype axis, so registering a new backend automatically subjects it
to the whole suite in both float64 and float32.
"""

import numpy as np
import pytest

from repro.tensor import kernels
from tests.tensor.backend_conformance import (
    DTYPES,
    backends_under_test,
    iter_conformance_cases,
)

_CASES = iter_conformance_cases()


@pytest.mark.parametrize("backend", backends_under_test())
@pytest.mark.parametrize("dtype", DTYPES, ids=[np.dtype(d).name for d in DTYPES])
@pytest.mark.parametrize(
    "kernel,case_id,check",
    _CASES,
    ids=[f"{kernel}-{case_id}" for kernel, case_id, _ in _CASES],
)
def test_backend_matches_reference(backend, dtype, kernel, case_id, check):
    check(backend, dtype)


def test_all_shipped_backends_enrolled():
    assert {"auto", "batched", "sparse", "xp"} <= set(backends_under_test())
    assert "reference" not in backends_under_test()


def test_dtype_axis_covers_both_precisions():
    assert {np.dtype(d) for d in DTYPES} == {
        np.dtype(np.float64),
        np.dtype(np.float32),
    }


def test_every_kernel_covered():
    covered = {kernel for kernel, _, _ in _CASES}
    assert covered == {
        "solve_rows",
        "accumulate_normal_equations",
        "temporal_sweep",
        "mttkrp",
        "kruskal_reconstruct_rows",
        "rls_update_rows",
    }


def test_newly_registered_backend_is_picked_up():
    """The harness enrolls third-party backends with no new test code."""
    clone = kernels._BACKENDS["batched"]
    probe = kernels.KernelBackend(
        name="conformance-probe",
        solve_rows=clone.solve_rows,
        accumulate_normal_equations=clone.accumulate_normal_equations,
        temporal_sweep=clone.temporal_sweep,
        mttkrp=clone.mttkrp,
        rls_update_rows=clone.rls_update_rows,
        kruskal_reconstruct_rows=clone.kruskal_reconstruct_rows,
    )
    kernels.register_backend(probe)
    try:
        assert "conformance-probe" in backends_under_test()
        kernel, case_id, check = iter_conformance_cases()[0]
        for dtype in DTYPES:
            check("conformance-probe", dtype)
    finally:
        kernels._BACKENDS.pop("conformance-probe")


def test_density_sweep_straddles_auto_threshold():
    from tests.tensor.backend_conformance import DENSITIES

    assert any(d < kernels.AUTO_DENSITY_THRESHOLD for d in DENSITIES if d)
    assert kernels.AUTO_DENSITY_THRESHOLD in DENSITIES
    assert any(d > kernels.AUTO_DENSITY_THRESHOLD for d in DENSITIES)
    assert 0.0 in DENSITIES and 1.0 in DENSITIES


def test_harness_cases_detect_a_broken_backend():
    """A backend whose accumulation drops entries must fail the suite."""

    def broken_accumulate(coords, values, factors, mode):
        big_b, big_c = kernels._BACKENDS[
            "batched"
        ].accumulate_normal_equations(coords, values, factors, mode)
        return big_b, np.zeros_like(big_c)

    clone = kernels._BACKENDS["batched"]
    kernels.register_backend(
        kernels.KernelBackend(
            name="broken-probe",
            solve_rows=clone.solve_rows,
            accumulate_normal_equations=broken_accumulate,
            temporal_sweep=clone.temporal_sweep,
            mttkrp=clone.mttkrp,
            rls_update_rows=clone.rls_update_rows,
            kruskal_reconstruct_rows=clone.kruskal_reconstruct_rows,
        )
    )
    try:
        checks = [
            check
            for kernel, case_id, check in iter_conformance_cases()
            if kernel == "accumulate_normal_equations"
            and "density_0.5" in case_id
        ]
        assert checks
        with pytest.raises(AssertionError):
            for check in checks:
                check("broken-probe", np.float64)
    finally:
        kernels._BACKENDS.pop("broken-probe")


def test_dtype_axis_detects_a_float64_upcasting_backend():
    """A backend that silently upcasts float32 inputs must fail.

    This is the latent-bug class the dtype axis exists for: a kernel
    sprinkled with ``np.asarray(..., dtype=np.float64)`` passes every
    float64-only parity test and only the float32 sweep exposes it.
    """

    def upcasting_mttkrp(tensor, factors, mode, weights=None):
        return kernels._BACKENDS["batched"].mttkrp(
            np.asarray(tensor, dtype=np.float64),
            [None if f is None else np.asarray(f, dtype=np.float64)
             for f in factors],
            mode,
            weights,
        )

    clone = kernels._BACKENDS["batched"]
    kernels.register_backend(
        kernels.KernelBackend(
            name="upcast-probe",
            solve_rows=clone.solve_rows,
            accumulate_normal_equations=clone.accumulate_normal_equations,
            temporal_sweep=clone.temporal_sweep,
            mttkrp=upcasting_mttkrp,
            rls_update_rows=clone.rls_update_rows,
            kruskal_reconstruct_rows=clone.kruskal_reconstruct_rows,
        )
    )
    try:
        checks = [
            check
            for kernel, case_id, check in iter_conformance_cases()
            if kernel == "mttkrp" and "density_0.5" in case_id
        ]
        assert checks
        for check in checks:  # float64 runs stay green...
            check("upcast-probe", np.float64)
        with pytest.raises(AssertionError, match="preserve"):
            for check in checks:  # ...only the float32 axis trips
                check("upcast-probe", np.float32)
    finally:
        kernels._BACKENDS.pop("upcast-probe")


def _copied(value):
    """A deep copy of a kernel argument (arrays inside tuples/lists too)."""
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, (list, tuple)):
        return type(value)(_copied(item) for item in value)
    return value


def _assert_bit_identical(got, expected):
    if isinstance(expected, tuple):
        assert isinstance(got, tuple) and len(got) == len(expected)
        for part, want in zip(got, expected):
            _assert_bit_identical(part, want)
        return
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes(), "xp and batched differ"


def _lockstep(kernel):
    """Run ``kernel`` on "xp" and "batched" and demand identical bits.

    ``rls_update_rows`` works in place, so its updated ``factor`` and
    ``cov`` are compared instead of the (absent) return value.
    """
    xp_kernel = getattr(kernels._BACKENDS["xp"], kernel)
    batched_kernel = getattr(kernels._BACKENDS["batched"], kernel)

    def run(*args, **kwargs):
        twin = _copied(args)
        got = xp_kernel(*args, **kwargs)
        expected = batched_kernel(*twin, **kwargs)
        if kernel == "rls_update_rows":
            _assert_bit_identical(tuple(args[:2]), tuple(twin[:2]))
        else:
            _assert_bit_identical(got, expected)
        return got

    return run


@pytest.mark.parametrize("dtype", DTYPES, ids=[np.dtype(d).name for d in DTYPES])
@pytest.mark.parametrize("kernel", sorted({kernel for kernel, _, _ in _CASES}))
def test_xp_on_numpy_is_bit_identical_to_batched(kernel, dtype):
    """One dense body: "xp" on the NumPy module *is* "batched".

    Every conformance case of ``kernel`` runs through a probe whose
    kernels call both backends on the same inputs and require equal
    bits.
    """
    from repro.tensor import device

    probe = kernels.KernelBackend(
        name="xp-batched-lockstep",
        **{name: _lockstep(name) for name, _, _ in _CASES},
    )
    checks = [check for name, _, check in _CASES if name == kernel]
    assert checks
    kernels.register_backend(probe)
    try:
        with device.use_array_module("numpy"):
            for check in checks:
                check(probe.name, dtype)
    finally:
        kernels._BACKENDS.pop(probe.name)
