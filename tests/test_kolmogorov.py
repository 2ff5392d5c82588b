from __future__ import annotations

import numpy as np
import pytest

from qdil.kolmogorov import (
    KolmogorovDecomposition,
    NotEquivalent,
    OperatorKernel,
    gram_matrix,
    is_positive_definite,
    kernel_from_factors,
    kernel_from_json,
    kernel_to_json,
    minimal_decomposition,
    unitary_equivalence,
)
from qdil.operator_core import dagger, is_unitary, random_ginibre, spectral_norm


def planted_kernel(rng, labels, dim_h, dim_l):
    factors = {c: random_ginibre(rng, dim_l, dim_h) for c in labels}
    return kernel_from_factors(labels, factors, dim_h), factors


def test_kernel_fills_adjoint_entries():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    k = OperatorKernel(("x", "y"), 2,
                       {("x", "x"): np.eye(2), ("y", "y"): np.eye(2),
                        ("x", "y"): a})
    assert np.allclose(k.entry("y", "x"), dagger(a))


def test_kernel_rejects_inconsistent_pair():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        OperatorKernel(("x", "y"), 2,
                       {("x", "y"): a, ("y", "x"): a})


def test_gram_matrix_layout():
    """Gram blocks follow label order: block (i,j) is K(c_i, c_j)."""
    rng = np.random.default_rng(60)
    k, factors = planted_kernel(rng, ("a", "b"), 2, 3)
    g = gram_matrix(k)
    assert g.shape == (4, 4)
    assert np.allclose(g[:2, 2:], dagger(factors["a"]) @ factors["b"])


def test_planted_kernel_is_positive_definite():
    rng = np.random.default_rng(61)
    k, _ = planted_kernel(rng, ("a", "b", "c"), 2, 4)
    ok, min_eig = is_positive_definite(k)
    assert ok
    assert min_eig > -1e-12


def test_indefinite_kernel_is_detected():
    k = OperatorKernel(("x", "y"), 1,
                       {("x", "x"): np.array([[1.0]]),
                        ("y", "y"): np.array([[1.0]]),
                        ("x", "y"): np.array([[2.0]])})
    ok, min_eig = is_positive_definite(k)
    assert not ok
    assert min_eig < -0.5
    with pytest.raises(ValueError):
        minimal_decomposition(k)


def test_minimal_decomposition_reconstructs_kernel():
    rng = np.random.default_rng(62)
    k, _ = planted_kernel(rng, ("a", "b", "c"), 2, 3)
    dec = minimal_decomposition(k)
    for c1 in k.labels:
        for c2 in k.labels:
            rec = dagger(dec.factors[c1]) @ dec.factors[c2]
            assert np.allclose(rec, k.entry(c1, c2))


def test_minimal_decomposition_recovers_planted_dimension():
    rng = np.random.default_rng(63)
    # 3 factors of height 4 on C^2 stack to a rank-4 block row.
    k, _ = planted_kernel(rng, ("a", "b", "c"), 2, 4)
    dec = minimal_decomposition(k)
    assert dec.dim_l == 4


def test_rank_deficient_kernel_compresses():
    rng = np.random.default_rng(64)
    lam = random_ginibre(rng, 5, 2)
    factors = {c: lam for c in ("a", "b")}
    k = kernel_from_factors(("a", "b"), factors, 2)
    dec = minimal_decomposition(k)
    assert dec.dim_l == 2


def test_unitary_equivalence_of_two_minimal_decompositions():
    rng = np.random.default_rng(65)
    k, _ = planted_kernel(rng, ("a", "b", "c"), 3, 5)
    dec1 = minimal_decomposition(k)
    # Rotate by a random unitary: still minimal, still reconstructs.
    from qdil.operator_core import random_unitary
    u0 = random_unitary(rng, dec1.dim_l)
    dec2 = KolmogorovDecomposition(
        dec1.labels, dec1.dim_h, dec1.dim_l,
        {c: u0 @ f for c, f in dec1.factors.items()})
    u = unitary_equivalence(dec1, dec2, k)
    assert not isinstance(u, NotEquivalent)
    assert is_unitary(u)
    worst = max(spectral_norm(u @ dec1.factors[c] - dec2.factors[c])
                for c in k.labels)
    assert worst <= 1e-9


def test_unitary_equivalence_rejects_padded_decomposition():
    """A zero-padded (non-minimal) factor family is a caller error."""
    rng = np.random.default_rng(66)
    k, _ = planted_kernel(rng, ("a", "b"), 2, 3)
    dec = minimal_decomposition(k)
    padded = KolmogorovDecomposition(
        dec.labels, dec.dim_h, dec.dim_l + 1,
        {c: np.vstack([f, np.zeros((1, 2))]) for c, f in dec.factors.items()})
    with pytest.raises(ValueError, match="not minimal"):
        unitary_equivalence(dec, padded, k)


def test_permuted_index_order_gives_equivalent_decomposition():
    """Reordering the index set permutes Gram blocks but not the span."""
    rng = np.random.default_rng(67)
    labels = ("a", "b", "c")
    k, factors = planted_kernel(rng, labels, 2, 3)
    perm = ("c", "a", "b")
    k_perm = kernel_from_factors(perm, factors, 2)
    dec = minimal_decomposition(k)
    dec_perm = minimal_decomposition(k_perm)
    assert dec.dim_l == dec_perm.dim_l
    # Compare on the original order by re-wrapping the permuted factors.
    dec_back = KolmogorovDecomposition(
        labels, 2, dec_perm.dim_l, {c: dec_perm.factors[c] for c in labels})
    u = unitary_equivalence(dec, dec_back, k)
    assert not isinstance(u, NotEquivalent)


def test_kernel_json_round_trip():
    rng = np.random.default_rng(68)
    k, _ = planted_kernel(rng, ("a", "b"), 2, 3)
    back = kernel_from_json(kernel_to_json(k))
    assert back.labels == k.labels
    for c1 in k.labels:
        for c2 in k.labels:
            assert np.allclose(back.entry(c1, c2), k.entry(c1, c2))


@pytest.mark.parametrize("key,value", [
    ("dim", 2.7), ("dim", "2"), ("dim", True), ("labels", "ab"),
    ("labels", [1, 2]), ("entries", [1]),
], ids=["dim-float", "dim-string", "dim-bool", "labels-string",
        "labels-ints", "entries-list"])
def test_kernel_loader_rejects_malformed_fields(key, value):
    rng = np.random.default_rng(69)
    k, _ = planted_kernel(rng, ("a", "b"), 2, 3)
    data = {**kernel_to_json(k), key: value}
    with pytest.raises(ValueError, match=f"kernel JSON '{key}'"):
        kernel_from_json(data)


def test_minimal_decomposition_decomposes_the_gram_matrix_once(monkeypatch):
    rng = np.random.default_rng(67)
    k, _ = planted_kernel(rng, ("a", "b", "c"), 2, 3)
    shapes = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    minimal_decomposition(k)
    assert shapes == [(6, 6)]


def test_unitary_equivalence_assembles_the_gram_matrix_once(monkeypatch):
    import qdil.kolmogorov

    rng = np.random.default_rng(68)
    k, _ = planted_kernel(rng, ("a", "b", "c"), 2, 3)
    dec = minimal_decomposition(k)
    calls = []

    def counting(kernel):
        calls.append(kernel)
        return gram_matrix(kernel)

    monkeypatch.setattr(qdil.kolmogorov, "gram_matrix", counting)
    assert not isinstance(unitary_equivalence(dec, dec, k), NotEquivalent)
    assert len(calls) == 1
