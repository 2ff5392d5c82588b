"""Operator-valued kernels and minimal Kolmogorov decompositions.

A kernel assigns to each ordered pair of index labels an operator on
``C^dimH``, Hermitian-symmetric across the diagonal. Positive
definiteness is certified on the assembled block Gram matrix; the
minimal decomposition ``K(c,c') = Λ(c)* Λ(c')`` comes from its PSD
factorization, and minimal decompositions of the same kernel are related
by an explicit unitary (solved as a Procrustes problem on the spanning
columns, then verified).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator_core import (
    DEFAULT_TOL,
    Tolerance,
    _json_dim,
    _json_labels,
    _json_object,
    dagger,
    matrix_from_json,
    matrix_to_json,
    psd_factorize,
    spectral_norm,
)

__all__ = [
    "OperatorKernel",
    "KolmogorovDecomposition",
    "NotEquivalent",
    "gram_matrix",
    "is_positive_definite",
    "minimal_decomposition",
    "unitary_equivalence",
    "kernel_from_factors",
    "kernel_to_json",
    "kernel_from_json",
]


@dataclass(frozen=True)
class OperatorKernel:
    """A Hermitian-symmetric kernel on a finite ordered index set.

    ``entries`` may supply any subset of ordered pairs whose union with
    its adjoint transpose covers all pairs; missing transposes are
    filled in as adjoints, and supplying both halves inconsistently is
    an error.
    """

    labels: tuple[str, ...]
    dim_h: int
    entries: dict[tuple[str, str], np.ndarray] = field(repr=False)
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self) -> None:
        labels = tuple(str(c) for c in self.labels)
        if not labels or len(set(labels)) != len(labels):
            raise ValueError("index labels must be nonempty and distinct")
        object.__setattr__(self, "labels", labels)
        full: dict[tuple[str, str], np.ndarray] = {}
        for (c1, c2), m in self.entries.items():
            mm = np.asarray(m, dtype=complex)
            if mm.shape != (self.dim_h, self.dim_h):
                raise ValueError(f"entry ({c1},{c2}) has shape {mm.shape}")
            if c1 not in labels or c2 not in labels:
                raise ValueError(f"entry ({c1},{c2}) uses unknown labels")
            full[(str(c1), str(c2))] = mm
        for c1 in labels:
            for c2 in labels:
                if (c1, c2) in full and (c2, c1) in full:
                    res = spectral_norm(full[(c1, c2)] - dagger(full[(c2, c1)]))
                    if res > self.tol.bound("strict",
                                            spectral_norm(full[(c1, c2)])):
                        raise ValueError(
                            f"kernel is not Hermitian at ({c1},{c2}): "
                            f"residual {res:.3e}")
                elif (c2, c1) in full:
                    full[(c1, c2)] = dagger(full[(c2, c1)])
                elif (c1, c2) not in full:
                    raise ValueError(f"kernel entry ({c1},{c2}) is missing")
        object.__setattr__(self, "entries", full)

    def entry(self, c1: str, c2: str) -> np.ndarray:
        return self.entries[(c1, c2)]


@dataclass(frozen=True)
class KolmogorovDecomposition:
    """Factors ``Λ(c)`` (dimL × dimH) with ``Λ(c)* Λ(c') = K(c,c')``."""

    labels: tuple[str, ...]
    dim_h: int
    dim_l: int
    factors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self) -> None:
        for c in self.labels:
            f = np.asarray(self.factors[c], dtype=complex)
            if f.shape != (self.dim_l, self.dim_h):
                raise ValueError(f"factor for '{c}' has shape {f.shape}")

    def stacked(self) -> np.ndarray:
        """All factors side by side, in label order (dimL × n·dimH)."""
        return np.hstack([self.factors[c] for c in self.labels])


@dataclass(frozen=True)
class NotEquivalent:
    """Negative result of a unitary-equivalence check."""

    reason: str
    worst_residual: float

    def __bool__(self) -> bool:
        return False


def gram_matrix(k: OperatorKernel) -> np.ndarray:
    """The block Gram matrix, blocks ordered by the kernel's label order."""
    return np.block([[k.entry(c1, c2) for c2 in k.labels] for c1 in k.labels])


def is_positive_definite(k: OperatorKernel, tol: Tolerance = DEFAULT_TOL
                         ) -> tuple[bool, float]:
    g = gram_matrix(k)
    vals = np.linalg.eigvalsh((g + dagger(g)) / 2)
    min_eig = float(vals.min()) if vals.size else 0.0
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    return min_eig >= -tol.bound("psd", scale), min_eig


def minimal_decomposition(k: OperatorKernel, tol: Tolerance = DEFAULT_TOL
                          ) -> KolmogorovDecomposition:
    """Minimal factorization of a positive-definite kernel.

    :func:`psd_factorize` rejects a kernel that is not positive definite;
    its bound is never looser than :func:`is_positive_definite`'s.
    """
    factors = psd_factorize(gram_matrix(k), k.dim_h, tol)
    dim_l = factors[0].shape[0]
    return KolmogorovDecomposition(
        k.labels, k.dim_h, dim_l,
        {c: f for c, f in zip(k.labels, factors)})


def _numerical_rank(a: np.ndarray, tol: Tolerance) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    scale = float(s[0]) if s.size else 0.0
    return int(np.sum(s > tol.bound("strict", scale)))


def unitary_equivalence(d1: KolmogorovDecomposition,
                        d2: KolmogorovDecomposition,
                        k: OperatorKernel,
                        tol: Tolerance = DEFAULT_TOL):
    """The unitary ``U`` with ``U Λ1(c) = Λ2(c)``, or :class:`NotEquivalent`.

    Both inputs must be minimal decompositions of ``k``; non-minimality
    or reconstruction failure is a caller error, while a dimension
    mismatch between two otherwise valid minimal decompositions returns
    :class:`NotEquivalent`.
    """
    if d1.labels != k.labels or d2.labels != k.labels:
        raise ValueError("decomposition labels do not match the kernel")
    bound = tol.bound("loose", spectral_norm(gram_matrix(k)))
    for d, name in ((d1, "first"), (d2, "second")):
        x = d.stacked()
        if _numerical_rank(x, tol) != d.dim_l:
            raise ValueError(f"{name} decomposition is not minimal")
        worst = max(spectral_norm(dagger(d.factors[c1]) @ d.factors[c2]
                                  - k.entry(c1, c2))
                    for c1 in d.labels for c2 in d.labels)
        if worst > bound:
            raise ValueError(
                f"{name} decomposition does not reconstruct the kernel "
                f"(residual {worst:.3e})")
    if d1.dim_l != d2.dim_l:
        return NotEquivalent(
            reason=f"dimension mismatch: {d1.dim_l} vs {d2.dim_l}",
            worst_residual=float(abs(d1.dim_l - d2.dim_l)))
    x1, x2 = d1.stacked(), d2.stacked()
    # Procrustes: maximize Re tr(U* X2 X1*) over unitaries.
    m = x2 @ dagger(x1)
    uu, _, vv = np.linalg.svd(m)
    u = uu @ vv
    worst = max(spectral_norm(u @ d1.factors[c] - d2.factors[c])
                for c in d1.labels)
    if worst > bound:
        return NotEquivalent(reason="no intertwining unitary found",
                             worst_residual=float(worst))
    return u


def kernel_from_factors(labels, factors: dict[str, np.ndarray], dim_h: int,
                        tol: Tolerance = DEFAULT_TOL) -> OperatorKernel:
    """Build the (automatically positive-definite) kernel ``Λ(c)* Λ(c')``."""
    labels = tuple(labels)
    entries = {(c1, c2): dagger(factors[c1]) @ factors[c2]
               for c1 in labels for c2 in labels}
    return OperatorKernel(labels, dim_h, entries, tol)


def kernel_to_json(k: OperatorKernel) -> dict:
    entries = {f"{c1}|{c2}": matrix_to_json(k.entry(c1, c2))
               for i, c1 in enumerate(k.labels) for c2 in k.labels[i:]}
    return {"dim": k.dim_h, "labels": list(k.labels), "entries": entries}


def kernel_from_json(data) -> OperatorKernel:
    _json_object(data, "kernel JSON", ("dim", "labels", "entries"))
    dim = _json_dim(data["dim"], "kernel JSON 'dim'")
    labels = _json_labels(data["labels"], "kernel JSON 'labels'")
    entries = {}
    for key, m in _json_object(data["entries"],
                               "kernel JSON 'entries'").items():
        parts = key.split("|")
        if len(parts) != 2:
            raise ValueError(f"bad kernel entry key {key!r}, expected 'c|c2'")
        entries[(parts[0], parts[1])] = matrix_from_json(m)
    return OperatorKernel(labels, dim, entries)
