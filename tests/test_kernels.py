import numpy as np
import pytest

import cxho
from cxho import _kernels
from helpers import hermite_table_former


def test_backend_reported():
    assert cxho.BACKEND == "numpy"


def test_hermite_table_low_orders():
    z = np.array([0.0, 1.0, 1 + 1j, -0.5 + 0.25j], dtype=complex)
    table = _kernels.hermite_table(4, z)
    np.testing.assert_allclose(table[0], np.ones(4))
    np.testing.assert_allclose(table[1], 2 * z)
    np.testing.assert_allclose(table[2], 4 * z**2 - 2)
    np.testing.assert_allclose(table[3], 8 * z**3 - 12 * z)


@pytest.mark.parametrize("n_max", [1, 2, 3, 17, 64, 128])
def test_hermite_table_is_the_former_recurrence_bit_for_bit(n_max):
    # complex nodes of moduli 1e-3 to 1e3 and on the axes, where the rows
    # reach inf and nan from n ~ 100 (|z| = 1e3) and n ~ 2 (|z| = 1e200)
    rng = np.random.default_rng(n_max)
    z = np.concatenate([
        np.exp(rng.uniform(-7, 7, 120) + 1j * rng.uniform(-np.pi, np.pi, 120)),
        [0.0, -0.0, 1.0, -1j, 1e3 + 1e3j, -1e200, 1e200j, 30.0 - 0.5j]])
    with np.errstate(all="ignore"):
        got = _kernels.hermite_table(n_max, z)
        want = hermite_table_former(n_max, z)
    if n_max == 128:
        assert not np.isfinite(want).all()
    assert got.shape == want.shape == (n_max, z.size)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_poly_gauss_eval_matches_direct():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    scale, shift = 0.7 - 0.2j, 0.1 + 0.05j
    got = _kernels.poly_gauss_eval(coeffs, scale, shift, z)
    w = z - shift
    expected = sum(c * w**k for k, c in enumerate(coeffs)) * np.exp(-0.5 * scale * w * w)
    np.testing.assert_allclose(got, expected, rtol=1e-13)
