"""The one bound within which two evaluations of the same quantity agree.

An operation on stacked operands and the single call at each row, or a numpy
kernel and a longhand or pointwise reference, may round differently: numpy's
ufuncs (cosh, arcsinh, arctan2, ...) and Python's math differ in the last
bits, and so do reassociated sums. The bound is set by the Lorentz model,
whose exp and log cancel digits far from the origin: at distance r they
round to about e^(2r) eps relative, 7e-13 at the r = 4 the tests reach.
"""

import numpy as np

RTOL = 1e-12
ATOL = 1e-15


def assert_agree(got, want, err_msg=""):
    """got and want have one shape and agree to RTOL, with an ATOL floor."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape, (got.shape, want.shape, err_msg)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL, err_msg=err_msg)
