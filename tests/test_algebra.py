from __future__ import annotations

import numpy as np
import pytest

import qdil.algebra
from qdil.algebra import (
    FiniteVonNeumannAlgebra,
    algebra_from_generators,
    algebra_from_json,
    algebra_to_json,
    commutant,
    conditional_expectation,
    contains,
    diagonal_algebra,
    full_algebra,
    scalar_algebra,
    tensor_with_full,
)
from qdil.operator_core import random_ginibre, random_unitary, spectral_norm

SX = np.array([[0, 1], [1, 0]], dtype=complex)


@pytest.mark.parametrize("w, unitary, formed", [
    (np.eye(3), True, False),
    (np.eye(3) + 0j, True, False),
    (random_unitary(np.random.default_rng(8), 3), True, True),
    (np.diag([1.0, 1.0, 1.0 + 1e-6]), False, True),
    (2 * np.eye(3), False, True),
])
def test_basis_change_unitarity_is_formed_unless_exactly_identity(
        monkeypatch, w, unitary, formed):
    defects = []
    real = qdil.algebra._unitary_defects
    monkeypatch.setattr(qdil.algebra, "_unitary_defects",
                        lambda m: defects.append(m) or real(m))
    if unitary:
        FiniteVonNeumannAlgebra(3, ((3, 1),), w)
    else:
        with pytest.raises(ValueError, match="basis_change is not unitary"):
            FiniteVonNeumannAlgebra(3, ((3, 1),), w)
    assert bool(defects) == formed
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_standard_algebras_have_expected_blocks():
    assert full_algebra(3).blocks == ((3, 1),)
    assert scalar_algebra(3).blocks == ((1, 3),)
    assert diagonal_algebra(3).blocks == ((1, 1), (1, 1), (1, 1))
    assert full_algebra(3).is_full
    assert not diagonal_algebra(3).is_full


def test_linear_dimension_counts_block_squares():
    assert full_algebra(4).linear_dimension() == 16
    assert diagonal_algebra(4).linear_dimension() == 4
    assert scalar_algebra(4).linear_dimension() == 1


def test_basis_is_orthogonal_and_complete():
    alg = diagonal_algebra(3)
    basis = alg.basis()
    assert len(basis) == 3
    for b in basis:
        assert contains(alg, b)


def test_basis_is_built_once_read_only_and_equal_to_a_fresh_build(
        monkeypatch):
    w = random_unitary(np.random.default_rng(7), 5)
    alg = FiniteVonNeumannAlgebra(5, ((1, 2), (3, 1)), w)
    fresh = FiniteVonNeumannAlgebra(5, alg.blocks, w.copy()).basis()
    built = []
    dagger = qdil.algebra.dagger
    monkeypatch.setattr(qdil.algebra, "dagger",
                        lambda a: built.append(np.shape(a)) or dagger(a))
    first, second = alg.basis(), alg.basis()
    assert built == [(5, 5)]  # one conjugation of one stack, on first use
    assert len(first) == alg.linear_dimension() == 10
    for b, again, new in zip(first, second, fresh):
        assert np.shares_memory(b, again) and np.array_equal(b, new)
        with pytest.raises(ValueError):
            b[0, 0] = 1.0
    # The units e_ab ⊗ 1_m, block by block in row-major order.
    units = [alg.member([u, np.zeros((3, 3))]) for u in np.eye(1)[None]] + [
        alg.member([np.zeros((1, 1)), u]) for u in np.eye(9).reshape(9, 3, 3)]
    for b, unit in zip(first, units):
        assert np.abs(b - unit).max() <= 1e-15


@pytest.mark.parametrize("seed", [None, 11])
def test_conditional_expectation_on_all_of_b_h_is_the_identity(seed):
    """On B(H), in the standard basis or a random one, the conditional
    expectation returns a copy of its input, bit for bit, and membership
    has residual 0."""
    alg = (full_algebra(3) if seed is None else FiniteVonNeumannAlgebra(
        3, ((3, 1),), random_unitary(np.random.default_rng(seed), 3)))
    rng = np.random.default_rng(29)
    for x in (random_ginibre(rng, 3),
              random_ginibre(rng, 12, 3).reshape(4, 3, 3)):
        out = conditional_expectation(alg, x)
        assert np.array_equal(out, x) and not np.shares_memory(out, x)
        assert contains(alg, x).residual == 0.0


def test_contains_on_diagonal_algebra():
    alg = diagonal_algebra(2)
    assert contains(alg, SZ)
    assert not contains(alg, SX)


def test_conditional_expectation_onto_diagonal():
    alg = diagonal_algebra(2)
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(conditional_expectation(alg, x), np.diag([1.0, 4.0]))


def test_conditional_expectation_is_idempotent_and_unital():
    rng = np.random.default_rng(21)
    alg = diagonal_algebra(4)
    x = random_ginibre(rng, 4)
    ex = conditional_expectation(alg, x)
    assert contains(alg, ex)
    assert np.allclose(conditional_expectation(alg, ex), ex)
    assert np.allclose(conditional_expectation(alg, np.eye(4)), np.eye(4))


def test_conditional_expectation_bimodule_property():
    """E(a x b) = a E(x) b for a, b in the algebra."""
    rng = np.random.default_rng(22)
    alg = diagonal_algebra(3)
    a = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    b = np.diag(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    x = random_ginibre(rng, 3)
    lhs = conditional_expectation(alg, a @ x @ b)
    rhs = a @ conditional_expectation(alg, x) @ b
    assert np.allclose(lhs, rhs)


def test_commutant_of_standard_algebras():
    assert commutant(full_algebra(3)).blocks == ((1, 3),)
    assert commutant(scalar_algebra(3)).blocks == ((3, 1),)
    d = commutant(diagonal_algebra(2))
    assert contains(d, SZ)
    assert not contains(d, SX)


def test_double_commutant_recovers_membership():
    rng = np.random.default_rng(30)
    alg = algebra_from_generators([SX], 2)
    dc = commutant(commutant(alg))
    x = random_ginibre(rng, 2)
    inside = conditional_expectation(alg, x)
    assert contains(dc, inside)
    assert contains(alg, conditional_expectation(dc, inside))


def test_algebra_from_generators_diagonal():
    alg = algebra_from_generators([SZ], 2)
    assert sorted(alg.blocks) == [(1, 1), (1, 1)]
    assert contains(alg, SZ)
    assert not contains(alg, SX)


def test_algebra_from_generators_with_multiplicity():
    """σx⊗1 and σz⊗1 generate M2 ⊗ 1, one block of multiplicity 2."""
    gens = [np.kron(SX, np.eye(2)), np.kron(SZ, np.eye(2))]
    alg = algebra_from_generators(gens, 4)
    assert alg.blocks == ((2, 2),)
    assert contains(alg, np.kron(SX, np.eye(2)))
    assert not contains(alg, np.kron(np.eye(2), SX))


def test_algebra_from_generators_mixed_blocks():
    # diag(1,2,0,0) splits off two scalar summands; the corner matrix
    # unit e23 generates all of M2 on the remaining two dimensions.
    corner_unit = np.zeros((4, 4), dtype=complex)
    corner_unit[2, 3] = 1.0
    gens = [np.diag([1.0, 2.0, 0.0, 0.0]), corner_unit]
    alg = algebra_from_generators(gens, 4)
    assert sorted(alg.blocks) == [(1, 1), (1, 1), (2, 1)]
    for g in gens:
        assert contains(alg, g)


def test_algebra_from_generators_commutative_corner():
    """A single symmetry on a corner stays commutative: four scalar blocks."""
    gens = [np.diag([1.0, 2.0, 0.0, 0.0]),
            np.kron(np.diag([0.0, 1.0]), SX)]
    alg = algebra_from_generators(gens, 4)
    assert alg.blocks == ((1, 1),) * 4
    for g in gens:
        assert contains(alg, g)


def test_algebra_contains_its_generators_after_rotation():
    rng = np.random.default_rng(33)
    u = random_unitary(rng, 3)
    g = u @ np.diag([1.0, 1.0, -1.0]) @ u.conj().T
    alg = algebra_from_generators([g], 3)
    assert contains(alg, g)
    assert contains(alg, np.eye(3))


def test_tensor_with_full_membership():
    alg = tensor_with_full(diagonal_algebra(2), 2)
    assert alg.dim_h == 4
    assert contains(alg, np.kron(SZ, SX))
    assert not contains(alg, np.kron(SX, np.eye(2)))


def test_member_assembles_block_operators():
    alg = diagonal_algebra(2)
    m = alg.member([np.array([[2.0]]), np.array([[3.0]])])
    assert np.allclose(m, np.diag([2.0, 3.0]))


def test_algebra_json_round_trip():
    rng = np.random.default_rng(40)
    u = random_unitary(rng, 3)
    g = u @ np.diag([1.0, 1.0, -1.0]) @ u.conj().T
    alg = algebra_from_generators([g], 3)
    back = algebra_from_json(algebra_to_json(alg))
    assert back.blocks == alg.blocks
    # Same subspace: membership of a generic element is preserved.
    x = conditional_expectation(alg, random_ginibre(rng, 3))
    assert contains(back, x)


def test_conditional_expectation_is_contraction():
    rng = np.random.default_rng(44)
    alg = diagonal_algebra(5)
    x = random_ginibre(rng, 5)
    assert spectral_norm(conditional_expectation(alg, x)) <= \
        spectral_norm(x) + 1e-12
