from __future__ import annotations

import numpy as np
import pytest

from qdil.operator_core import (
    CheckReport,
    Tolerance,
    basis_vector,
    compress_by_state,
    dagger,
    hermitize,
    is_density_matrix,
    is_hermitian,
    is_isometry,
    is_projection,
    is_psd,
    is_pvm,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    matrix_units,
    norm_within,
    proj,
    psd_factorize,
    pvm_within,
    random_density,
    random_ginibre,
    random_psd,
    random_unitary,
    require_state,
    spectral_norm,
    sqrt_psd,
    tensor,
    unvec,
    vec,
)


def test_tolerance_defaults():
    tol = Tolerance()
    assert tol.abs == 1e-9
    assert tol.psd_slack == 1e-10


def test_check_report_is_truthy_iff_ok():
    assert CheckReport(True, 0.0, {})
    assert not CheckReport(False, 1.0, {})


def test_vec_is_row_major():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(a), np.array([1, 2, 3, 4], dtype=complex))


def test_unvec_inverts_vec():
    rng = np.random.default_rng(11)
    a = random_ginibre(rng, 3, 5)
    assert np.allclose(unvec(vec(a), 3, 5), a)


def test_dagger_is_conjugate_transpose():
    a = np.array([[1 + 2j, 3], [0, -1j]])
    assert np.allclose(dagger(a), a.conj().T)


def test_spectral_norm_of_diagonal():
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


def test_hermitize_symmetrizes():
    a = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    h = hermitize(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, np.array([[1.0, 1.0], [1.0, 3.0]]))


def test_tensor_matches_kron():
    rng = np.random.default_rng(2)
    a = random_ginibre(rng, 2)
    b = random_ginibre(rng, 3)
    assert np.allclose(tensor(a, b), np.kron(a, b))


def test_matrix_units_span_and_shape():
    units = list(matrix_units(3))
    assert len(units) == 9
    total = sum(e for i, j, e in units if i == j)
    assert np.allclose(total, np.eye(3))
    i, j, e = units[1]
    assert (i, j) == (0, 1)
    assert e[0, 1] == 1.0 and np.count_nonzero(e) == 1


def test_basis_vector_and_proj():
    e1 = basis_vector(4, 1)
    assert e1.shape == (4,)
    p = proj(e1)
    assert np.allclose(p @ p, p)
    assert np.trace(p) == pytest.approx(1.0)


def test_compress_by_state_on_product_operator():
    """On A ⊗ B the state compression gives tr(σB)·A."""
    rng = np.random.default_rng(5)
    a = random_ginibre(rng, 3)
    b = random_ginibre(rng, 2)
    sigma = random_density(rng, 2)
    got = compress_by_state(np.kron(a, b), sigma, 3, 2)
    assert np.allclose(got, np.trace(sigma @ b) * a)


def test_compress_by_state_rejects_bad_sigma():
    with pytest.raises(ValueError):
        compress_by_state(np.eye(4), np.eye(2), 2, 2)


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(7)
    a = random_psd(rng, 5)
    r = sqrt_psd(a)
    assert np.allclose(r @ r, a)
    assert np.allclose(r, r.conj().T)


def test_sqrt_psd_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_psd_factorize_reproduces_blocks():
    """Factors of an n-by-n block Gram satisfy Λi† Λj = G_ij."""
    rng = np.random.default_rng(13)
    n, block, r = 4, 2, 5
    raw = [random_ginibre(rng, r, block) for _ in range(n)]
    g = np.block([[dagger(x) @ y for y in raw] for x in raw])
    factors = psd_factorize(g, block)
    assert all(f.shape == (r, block) for f in factors)
    for i, x in enumerate(factors):
        for j, y in enumerate(factors):
            assert np.allclose(dagger(x) @ y,
                               g[i * block:(i + 1) * block,
                                 j * block:(j + 1) * block])


def test_psd_factorize_minimal_rank():
    # Rank-1 Gram of 3 scalar blocks factors through C^1.
    v = np.array([1.0, 2.0, -1.0])
    g = np.outer(v, v)
    factors = psd_factorize(g, 1)
    assert all(f.shape == (1, 1) for f in factors)


def test_psd_factorize_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_factorize(np.diag([1.0, -1.0]), 1)


def test_predicates_on_known_matrices():
    assert is_hermitian(np.diag([1.0, 2.0]))
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_psd(np.diag([0.0, 3.0]))
    assert not is_psd(np.diag([1.0, -1.0]))
    assert is_projection(np.diag([1.0, 0.0]))
    assert not is_projection(np.diag([0.5, 0.0]))


def test_is_unitary_and_isometry():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 4)
    assert is_unitary(u)
    assert is_isometry(u[:, :2])
    assert not is_unitary(2 * u)


def test_is_pvm_detects_incomplete_family():
    p0 = np.diag([1.0, 0.0, 0.0])
    p1 = np.diag([0.0, 1.0, 0.0])
    p2 = np.diag([0.0, 0.0, 1.0])
    assert is_pvm([p0, p1, p2])
    assert not is_pvm([p0, p1])
    assert not is_pvm([p0, p0, p2])


def test_is_density_matrix():
    assert is_density_matrix(np.diag([0.25, 0.75]))
    assert not is_density_matrix(np.diag([0.5, 0.75]))
    assert not is_density_matrix(np.diag([1.5, -0.5]))


def test_require_state_raises_with_name():
    with pytest.raises(ValueError, match="sigma"):
        require_state(np.diag([2.0, -1.0]), what="sigma")


def test_random_draws_are_seeded():
    a = random_unitary(np.random.default_rng(42), 3)
    b = random_unitary(np.random.default_rng(42), 3)
    assert np.array_equal(a, b)
    rho = random_density(np.random.default_rng(0), 4)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert is_psd(rho)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(9)
    a = random_ginibre(rng, 2, 3)
    encoded = matrix_to_json(a)
    assert np.allclose(matrix_from_json(encoded), a)


def test_matrix_json_accepts_bare_reals():
    got = matrix_from_json([[1, 0], [0, -2.5]])
    assert np.allclose(got, np.diag([1.0, -2.5]))


def test_matrix_json_rejects_ragged_input():
    with pytest.raises(ValueError):
        matrix_from_json([[1, 2], [3]])


def test_matrix_json_of_non_contiguous_slice():
    t = np.arange(16, dtype=complex).reshape(2, 2, 2, 2)
    sliced = t[:, :, 0, 1]
    assert np.allclose(matrix_from_json(matrix_to_json(sliced)), sliced)


@pytest.mark.parametrize("n", [2, 5])
def test_norm_within_accepts_below_bound_when_frobenius_exceeds(n):
    bound = 1e-7
    m = 0.9 * bound * np.eye(n)
    assert np.linalg.norm(m) > bound
    assert norm_within(m, bound)
    assert norm_within(np.stack([m, -m, 0 * m]), bound)


def test_norm_within_rejects_just_above_bound():
    bound = 1e-7
    m = np.diag([1.01 * bound, 0.5 * bound, 0.0])
    assert not norm_within(m, bound)
    stack = np.stack([0.9 * bound * np.eye(3), m])
    assert not norm_within(stack, bound)
    assert spectral_norm(stack) == pytest.approx(1.01 * bound)


def test_norm_within_matches_spectral_norm_on_random_stacks():
    rng = np.random.default_rng(12)
    for _ in range(200):
        stack = random_ginibre(rng, 4, 4 * 3).reshape(4, 3, 4).transpose(1, 0, 2)
        bound = float(rng.uniform(0.5, 3.0))
        exact = max(spectral_norm(m) for m in stack)
        assert norm_within(stack, bound) == (exact <= bound)
        assert norm_within(stack[0], bound) == (spectral_norm(stack[0]) <= bound)


def test_norm_within_rejects_non_finite_entries():
    m = np.eye(2)
    m[0, 1] = np.nan
    assert not norm_within(m, 1e9)
    assert not norm_within(np.stack([np.eye(2), m]), 1e9)


def test_pvm_within_agrees_with_is_pvm():
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0, 1.0]).astype(complex)
    for family, bound in [([p, q], 1e-12), ([p, q + 1e-6 * np.eye(3)], 1e-7),
                          ([p, q + 1e-6 * np.eye(3)], 1e-5), ([p, p], 0.5)]:
        assert pvm_within(family, bound) == (is_pvm(family).residual <= bound)
