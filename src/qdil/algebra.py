"""Finite-dimensional von Neumann algebras as block direct sums.

An algebra on ``C^dimH`` is described by ``blocks = [(n_1, m_1), ...]``
with ``Σ n_i·m_i = dimH`` and a unitary ``basis_change`` W: an operator
``x`` is a member iff ``W† x W`` is block diagonal with the i-th block of
the form ``A_i ⊗ 1_{m_i}`` for some ``A_i`` in ``M_{n_i}``.

This normal form makes membership and the (trace-preserving) conditional
expectation exact orthogonal projections rather than iterative
procedures. A best-effort generator-based constructor is provided for
convenience.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator_core import (
    DEFAULT_TOL,
    CheckReport,
    Tolerance,
    _json_dim,
    _json_object,
    dagger,
    hermitize,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    matrix_units,
    spectral_norm,
)

__all__ = [
    "FiniteVonNeumannAlgebra",
    "full_algebra",
    "scalar_algebra",
    "diagonal_algebra",
    "contains",
    "conditional_expectation",
    "commutant",
    "tensor_with_full",
    "algebra_from_generators",
    "algebra_to_json",
    "algebra_from_json",
]


@dataclass(frozen=True)
class FiniteVonNeumannAlgebra:
    """A *-subalgebra ``⊕ M_{n_i} ⊗ 1_{m_i}`` of ``B(C^dimH)``."""

    dim_h: int
    blocks: tuple[tuple[int, int], ...]
    basis_change: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        blocks = tuple((int(n), int(m)) for n, m in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if any(n <= 0 or m <= 0 for n, m in blocks):
            raise ValueError("block dimensions must be positive")
        if sum(n * m for n, m in blocks) != self.dim_h:
            raise ValueError("block dimensions do not sum to dimH")
        w = np.asarray(self.basis_change, dtype=complex)
        if w.shape != (self.dim_h, self.dim_h):
            raise ValueError("basis_change has the wrong shape")
        if not is_unitary(w).ok:
            raise ValueError("basis_change is not unitary")
        object.__setattr__(self, "basis_change", w)

    @property
    def is_full(self) -> bool:
        return self.blocks == ((self.dim_h, 1),)

    def linear_dimension(self) -> int:
        return sum(n * n for n, _ in self.blocks)

    def basis(self) -> list[np.ndarray]:
        """An orthogonal basis of the algebra as a linear space.

        Returns the images of the per-block matrix units
        ``e_ab ⊗ 1_{m_i}`` in the standard basis. The identity is in the
        span; members are exactly the linear combinations.
        """
        w = self.basis_change
        out = []
        offset = 0
        for n, m in self.blocks:
            for _, _, unit in matrix_units(n):
                blk = np.zeros((self.dim_h, self.dim_h), dtype=complex)
                blk[offset:offset + n * m, offset:offset + n * m] = \
                    np.kron(unit, np.eye(m))
                out.append(w @ blk @ dagger(w))
            offset += n * m
        return out

    def member(self, block_ops: list[np.ndarray]) -> np.ndarray:
        """Assemble a member from per-block ``n_i``-square components."""
        if len(block_ops) != len(self.blocks):
            raise ValueError("one component per block required")
        w = self.basis_change
        y = np.zeros((self.dim_h, self.dim_h), dtype=complex)
        offset = 0
        for (n, m), a in zip(self.blocks, block_ops):
            am = np.asarray(a, dtype=complex)
            if am.shape != (n, n):
                raise ValueError(f"block component has shape {am.shape}, "
                                 f"expected {(n, n)}")
            y[offset:offset + n * m, offset:offset + n * m] = \
                np.kron(am, np.eye(m))
            offset += n * m
        return w @ y @ dagger(w)


def full_algebra(dim_h: int) -> FiniteVonNeumannAlgebra:
    """All of ``B(C^dimH)``."""
    return FiniteVonNeumannAlgebra(dim_h, ((dim_h, 1),), np.eye(dim_h))


def scalar_algebra(dim_h: int) -> FiniteVonNeumannAlgebra:
    """The scalars ``C·1``."""
    return FiniteVonNeumannAlgebra(dim_h, ((1, dim_h),), np.eye(dim_h))


def diagonal_algebra(dim_h: int) -> FiniteVonNeumannAlgebra:
    """The diagonal matrices in the standard basis."""
    return FiniteVonNeumannAlgebra(dim_h, tuple((1, 1) for _ in range(dim_h)),
                                   np.eye(dim_h))


def conditional_expectation(alg: FiniteVonNeumannAlgebra, x) -> np.ndarray:
    """The trace-preserving conditional expectation onto the algebra.

    Realized blockwise as the normalized partial trace over the
    multiplicity legs; it is unital, positive, idempotent, and
    bimodular over the algebra, and coincides with the orthogonal
    projection onto the algebra in the Hilbert-Schmidt inner product.
    ``x`` is an operator or a stack of operators, mapped one by one.
    """
    xm = np.asarray(x, dtype=complex)
    if xm.ndim > 3 or xm.shape[-2:] != (alg.dim_h, alg.dim_h):
        raise ValueError(f"operator has shape {xm.shape}, "
                         f"expected {(alg.dim_h, alg.dim_h)}")
    w = alg.basis_change
    y = dagger(w) @ xm @ w
    out = np.zeros_like(y)
    offset = 0
    for n, m in alg.blocks:
        sl = slice(offset, offset + n * m)
        t = y[..., sl, sl].reshape(*y.shape[:-2], n, m, n, m)
        a = np.einsum("...acbc->...ab", t) / m
        out[..., sl, sl] = np.kron(a, np.eye(m))
        offset += n * m
    return w @ out @ dagger(w)


def contains(alg: FiniteVonNeumannAlgebra, x,
             tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Membership test: distance from ``x`` to the algebra, in spectral norm.

    For a stack of operators the residual is the largest distance.
    """
    xm = np.asarray(x, dtype=complex)
    res = spectral_norm(xm - conditional_expectation(alg, xm))
    return CheckReport(res <= tol.abs, float(res), {})


def _swap_matrix(dim_a: int, dim_b: int) -> np.ndarray:
    """Unitary ``C^a ⊗ C^b → C^b ⊗ C^a`` with ``u ⊗ v ↦ v ⊗ u``."""
    s = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for i in range(dim_a):
        for j in range(dim_b):
            s[j * dim_a + i, i * dim_b + j] = 1.0
    return s


def commutant(alg: FiniteVonNeumannAlgebra) -> FiniteVonNeumannAlgebra:
    """The commutant, with factor and multiplicity roles swapped."""
    swaps = []
    for n, m in alg.blocks:
        # members of the commutant look like 1_n ⊗ B on the block, which is
        # the swap-conjugated B ⊗ 1_n
        swaps.append(_swap_matrix(m, n))
    big = np.zeros((alg.dim_h, alg.dim_h), dtype=complex)
    offset = 0
    for (n, m), s in zip(alg.blocks, swaps):
        big[offset:offset + n * m, offset:offset + n * m] = s
        offset += n * m
    return FiniteVonNeumannAlgebra(
        alg.dim_h,
        tuple((m, n) for n, m in alg.blocks),
        alg.basis_change @ big,
    )


def tensor_with_full(alg: FiniteVonNeumannAlgebra, dim_k: int
                     ) -> FiniteVonNeumannAlgebra:
    """The algebra ``𝓜 ⊗ B(C^dimK)`` inside ``B(H ⊗ K)``.

    Blocks ``(n_i, m_i)`` become ``(n_i·dimK, m_i)``; the basis change
    composes the original one (on the H leg) with the per-block leg
    reordering ``(a, c, k) ↦ (a, k, c)``.
    """
    d = alg.dim_h * dim_k
    perm = np.zeros((d, d), dtype=complex)
    offset = 0
    for n, m in alg.blocks:
        for a in range(n):
            for c in range(m):
                for k in range(dim_k):
                    old = (offset + a * m + c) * dim_k + k
                    new = offset * dim_k + a * (dim_k * m) + k * m + c
                    perm[old, new] = 1.0
        offset += n * m
    return FiniteVonNeumannAlgebra(
        d,
        tuple((n * dim_k, m) for n, m in alg.blocks),
        np.kron(alg.basis_change, np.eye(dim_k)) @ perm,
    )


def _orth_columns(vectors: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Orthonormal basis of the column span, rank-truncated by SVD."""
    if vectors.size == 0:
        return np.zeros((vectors.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    scale = s[0] if s.size else 0.0
    r = int(np.sum(s > tol.abs * (1 + scale) * 100))
    return u[:, :r]


def _null_space(a: np.ndarray, tol: Tolerance) -> np.ndarray:
    if a.size == 0:
        return np.eye(a.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(a)
    scale = s[0] if s.size else 0.0
    r = int(np.sum(s > tol.abs * (1 + scale) * 100))
    return vh[r:].conj().T


def _commutant_space(ops: list[np.ndarray], dim: int, tol: Tolerance
                     ) -> np.ndarray:
    """Basis (as columns of vectorized matrices) of {X : [g, X] = 0 ∀g}."""
    rows = []
    eye = np.eye(dim)
    for g in ops:
        # vec(gX - Xg) = (g ⊗ I - I ⊗ g^T) vec(X), row-major vec
        rows.append(np.kron(g, eye) - np.kron(eye, g.T))
    return _null_space(np.vstack(rows), tol)


def algebra_from_generators(gens: list[np.ndarray], dim_h: int,
                            tol: Tolerance = DEFAULT_TOL
                            ) -> FiniteVonNeumannAlgebra:
    """Best-effort construction of the algebra generated by ``gens``.

    Closes the generator set (with adjoints and the identity) under
    multiplication, then recovers the block decomposition from generic
    elements of the center and the commutant. Degenerate random choices
    are re-drawn from a fixed seed, but genuinely ill-conditioned inputs
    may need a looser tolerance.
    """
    gens = [np.asarray(g, dtype=complex) for g in gens]
    if any(g.shape != (dim_h, dim_h) for g in gens):
        raise ValueError("generator dimensions do not match dimH")
    ops = [np.eye(dim_h, dtype=complex)]
    for g in gens:
        ops.append(g)
        ops.append(dagger(g))

    def span_basis(mats: list[np.ndarray]) -> np.ndarray:
        stacked = np.stack([m.reshape(-1) for m in mats], axis=1)
        return _orth_columns(stacked, tol)

    basis = span_basis(ops)
    while True:
        mats = [basis[:, i].reshape(dim_h, dim_h) for i in range(basis.shape[1])]
        products = [a @ b for a in mats for b in mats]
        new_basis = span_basis(mats + products)
        if new_basis.shape[1] == basis.shape[1]:
            basis = new_basis
            break
        basis = new_basis

    alg_mats = [basis[:, i].reshape(dim_h, dim_h) for i in range(basis.shape[1])]
    comm = _commutant_space(alg_mats, dim_h, tol)
    comm_mats = [comm[:, i].reshape(dim_h, dim_h) for i in range(comm.shape[1])]

    # Center = elements commuting with both the algebra and its commutant:
    # its generic Hermitian element splits H into the isotypic components.
    center = _commutant_space(alg_mats + comm_mats, dim_h, tol)
    rng = np.random.default_rng(20260819)
    coeffs = rng.standard_normal(center.shape[1])
    z = sum(c * center[:, i].reshape(dim_h, dim_h)
            for i, c in enumerate(coeffs))
    z = hermitize(z)
    w_eigs, w_vecs = np.linalg.eigh(z)

    def clusters(eigs: np.ndarray) -> list[list[int]]:
        """Indices of ``eigs`` grouped into runs of near-equal values."""
        groups: list[list[int]] = []
        for idx in np.argsort(eigs):
            if groups and abs(eigs[idx] - eigs[groups[-1][-1]]) < 1e-6 * (
                    1 + abs(eigs[idx])):
                groups[-1].append(idx)
            else:
                groups.append([idx])
        return groups

    # Cluster eigenvalues to find the central projections.
    groups = clusters(w_eigs)

    blocks: list[tuple[int, int]] = []
    columns: list[np.ndarray] = []
    for grp in groups:
        iso = w_vecs[:, grp]  # ONB of an isotypic component, dim d_i
        d_i = iso.shape[1]
        # Compress algebra and commutant to the component.
        alg_c = [dagger(iso) @ m @ iso for m in alg_mats]
        alg_c_basis = _orth_columns(
            np.stack([m.reshape(-1) for m in alg_c], axis=1), tol)
        n_sq = alg_c_basis.shape[1]
        n = int(round(np.sqrt(n_sq)))
        if n * n != n_sq or d_i % n != 0:
            raise ValueError("generator closure did not produce a clean "
                             "block structure; loosen the tolerance")
        m_i = d_i // n
        comm_c = [dagger(iso) @ c @ iso for c in comm_mats]
        # Generic Hermitian commutant element: its eigenspaces are the
        # multiplicity sheets, each carrying an irreducible copy.
        cz = hermitize(sum(r * c for r, c in zip(
            rng.standard_normal(len(comm_c)), comm_c)))
        ce, cv = np.linalg.eigh(cz)
        sheets = clusters(ce)
        if len(sheets) != m_i or any(len(s) != n for s in sheets):
            raise ValueError("degenerate commutant sample; loosen the "
                             "tolerance or permute generators")
        sheet_bases = [cv[:, s] for s in sheets]
        # Align sheet q to sheet 0 through a generic commutant element:
        # the compressed map intertwines the irreducible action, so its
        # polar part is the canonical unitary identification.
        zgen = sum(r * c for r, c in zip(
            rng.standard_normal(len(comm_c)) + 1j * rng.standard_normal(
                len(comm_c)), comm_c))
        aligned = [sheet_bases[0]]
        for q in range(1, m_i):
            blockmap = dagger(sheet_bases[q]) @ zgen @ sheet_bases[0]
            uu, _, vv = np.linalg.svd(blockmap)
            aligned.append(sheet_bases[q] @ (uu @ vv))
        # Basis ordered (k, q) row-major -> the component acts as M_n ⊗ 1_m.
        for k in range(n):
            for q in range(m_i):
                columns.append(iso @ aligned[q][:, k])
        blocks.append((n, m_i))

    w = np.stack(columns, axis=1)
    # Polish to an exact unitary.
    uu, _, vv = np.linalg.svd(w)
    return FiniteVonNeumannAlgebra(dim_h, tuple(blocks), uu @ vv)


def algebra_to_json(alg: FiniteVonNeumannAlgebra) -> dict:
    return {
        "dim": alg.dim_h,
        "blocks": [[n, m] for n, m in alg.blocks],
        "basis_change": matrix_to_json(alg.basis_change),
    }


def algebra_from_json(data) -> FiniteVonNeumannAlgebra:
    _json_object(data, "algebra JSON", ("dim", "blocks", "basis_change"))
    dim = _json_dim(data["dim"], "algebra JSON 'dim'")
    blocks = tuple((_json_dim(n, "algebra JSON 'blocks' entry"),
                    _json_dim(m, "algebra JSON 'blocks' entry"))
                   for n, m in data["blocks"])
    return FiniteVonNeumannAlgebra(dim, blocks,
                                   matrix_from_json(data["basis_change"]))


def _json_algebra(data: dict, dim: int) -> FiniteVonNeumannAlgebra:
    """The algebra of a document's ``algebra`` entry; if empty, all of B(H)."""
    return (algebra_from_json(data["algebra"]) if data.get("algebra")
            else full_algebra(dim))
