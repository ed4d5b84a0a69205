import numpy as np

from cxho import _kernels


def test_backend_reported():
    assert _kernels.BACKEND == "numpy"


def test_hermite_table_low_orders():
    z = np.array([0.0, 1.0, 1 + 1j, -0.5 + 0.25j], dtype=complex)
    table = _kernels.hermite_table(4, z)
    np.testing.assert_allclose(table[0], np.ones(4))
    np.testing.assert_allclose(table[1], 2 * z)
    np.testing.assert_allclose(table[2], 4 * z**2 - 2)
    np.testing.assert_allclose(table[3], 8 * z**3 - 12 * z)


def test_poly_gauss_eval_matches_direct():
    rng = np.random.default_rng(0)
    coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    scale, shift = 0.7 - 0.2j, 0.1 + 0.05j
    got = _kernels.poly_gauss_eval(coeffs, scale, shift, z)
    w = z - shift
    expected = sum(c * w**k for k, c in enumerate(coeffs)) * np.exp(-0.5 * scale * w * w)
    np.testing.assert_allclose(got, expected, rtol=1e-13)
