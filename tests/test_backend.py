"""Kernel table of the numpy backend."""

from cgbound.backend import active_backend, kernels

KERNEL_NAMES = {
    "mrelu",
    "ball_project",
    "tikhonov_primal",
    "tikhonov_woodbury",
    "datafit_grad",
    "cgnet_step",
    "drcgnet_vstep",
}


def test_active_backend_is_known():
    assert active_backend() == "numpy"
    assert set(kernels) == KERNEL_NAMES
