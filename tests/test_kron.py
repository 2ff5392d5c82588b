"""``_kron`` against ``np.kron``, bit for bit, on drawn operands."""

from __future__ import annotations

import numpy as np
import pytest

from qdil.operator_core import _kron, tensor

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

# Bounded so that no product overflows: inf·0 makes NaNs of either sign.
ENTRIES = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])


@st.composite
def operands(draw):
    """``(a, b)``: ``a`` a matrix or a stack of two, each real or complex."""
    n0, n1, m0, m1 = (draw(st.integers(1, 3)) for _ in range(4))

    def operand(shape):
        re = draw(hnp.arrays(np.float64, shape, elements=ENTRIES))
        if draw(st.booleans()):
            return re
        z = np.empty(shape, dtype=complex)  # keeps the signs of both parts
        z.real, z.imag = re, draw(hnp.arrays(np.float64, shape,
                                             elements=ENTRIES))
        return z

    stack = draw(st.sampled_from([(), (2,)]))
    return operand((*stack, n0, n1)), operand((m0, m1))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))


@hypothesis.settings(deadline=None)
@hypothesis.given(operands())
# one entry each, whose imaginary product underflows to a signed zero
@hypothesis.example((np.array([[-1.85194834e-97 + 0j]]),
                     np.array([[4.68495456e-296j]])))
def test_kron_matches_numpy_kron_bit_for_bit(ab):
    a, b = ab
    assert_same_bits(_kron(a, b), np.kron(a, b))
    if a.ndim == 2:
        assert_same_bits(tensor(a, b), np.kron(a.astype(complex),
                                               b.astype(complex)))
