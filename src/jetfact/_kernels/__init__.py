"""Sparse monomial kernels; the implementation lives in kernel_py."""

from .kernel_py import (
    lc_add,
    lc_derive,
    lc_mul,
    lc_scale,
    mono_derive,
    mono_mul,
    mono_weight,
)

BACKEND = "python"

__all__ = [
    "BACKEND",
    "lc_add",
    "lc_derive",
    "lc_mul",
    "lc_scale",
    "mono_derive",
    "mono_mul",
    "mono_weight",
]
