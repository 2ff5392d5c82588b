"""Dense complex linear-algebra primitives shared by every other module.

Everything here works on plain ``numpy.ndarray`` values with ``complex``
dtype. Matrices are immutable by convention: no function mutates its
arguments, and constructed arrays are returned without aliasing inputs.

Conventions
-----------
* ``vec``/``unvec`` are row-major (C order), matching ``numpy.reshape``.
* Residuals are measured in spectral norm unless noted.
* Complex scalars serialize to JSON as two-element ``[re, im]`` arrays.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "CheckReport",
    "tensor",
    "dagger",
    "hermitize",
    "spectral_norm",
    "norm_within",
    "vec",
    "unvec",
    "matrix_units",
    "basis_vector",
    "proj",
    "compress_by_state",
    "sqrt_psd",
    "psd_factorize",
    "is_hermitian",
    "is_psd",
    "is_unitary",
    "is_isometry",
    "is_projection",
    "is_pvm",
    "pvm_within",
    "is_density_matrix",
    "require_state",
    "random_unitary",
    "random_psd",
    "random_density",
    "random_ginibre",
    "matrix_to_json",
    "matrix_from_json",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances used across the package.

    ``abs`` is an operator-norm tolerance for residuals and equality
    checks; ``psd_slack`` is an eigenvalue tolerance below which small
    negative eigenvalues of nominally PSD matrices are forgiven (and
    clamped to zero where a factorization needs them). Both are finite:
    an infinite tolerance would pass every check. Checks read their
    bounds through :meth:`bound`, never from the fields directly.
    """

    abs: float = 1e-9
    psd_slack: float = 1e-10

    # kind -> (field, factor) of the bound ``field · (1 + size) · factor``
    _KINDS: ClassVar[dict[str, tuple[str, int]]] = {
        "strict": ("abs", 1),  # structural residuals, numerical ranks
        "trace": ("abs", 10),  # the trace of a density matrix
        "loose": ("abs", 100),  # values derived through a construction
        "psd": ("psd_slack", 1),  # negative eigenvalues forgiven
    }

    def __post_init__(self) -> None:
        if not all(math.isfinite(t) and t > 0
                   for t in (self.abs, self.psd_slack)):
            raise ValueError("tolerances must be positive and finite")

    def bound(self, kind: str, size: float = 0) -> float:
        """The bound of a ``kind`` of check on a quantity of scale ``size``.

        ``size`` is a norm or a dimension, 0 for an unscaled bound. The
        product is taken left to right, as the expressions it replaced
        were, so bounds are the same bit for bit. ``"floor"`` is
        ``max(abs, 1e-12)``, the eigenvalue and pseudo-inverse cut-off.
        """
        if kind == "floor":
            return max(self.abs, 1e-12)
        name, factor = self._KINDS[kind]
        return getattr(self, name) * (1 + size) * factor

    def __le__(self, other: Tolerance) -> bool:
        """Whether each field is at most ``other``'s (a partial order)."""
        return self.abs <= other.abs and self.psd_slack <= other.psd_slack

    @staticmethod
    def of(validate: bool | Tolerance) -> Tolerance:
        """The tolerance a ``validate`` field names: DEFAULT_TOL for True."""
        return validate if isinstance(validate, Tolerance) else DEFAULT_TOL


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a structural check: a verdict plus residual norms."""

    ok: bool
    residual: float
    detail: dict

    def __bool__(self) -> bool:
        return self.ok


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _square(a) -> np.ndarray:
    m = _as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)``, bit for bit, for a matrix or stack ``a``."""
    (n0, n1), (m0, m1) = a.shape[-2:], b.shape
    # ``b`` at the rank of the expanded ``a``, as ``np.kron`` has it: with
    # fewer axes, a one-entry product takes another NumPy loop, whose
    # underflowed zero can carry the other sign.
    b = b.reshape((1,) * (a.ndim - 1) + (m0, 1, m1))
    return (a[..., :, None, :, None] * b).reshape(
        *a.shape[:-2], n0 * m0, n1 * m1)


def tensor(a, b) -> np.ndarray:
    """Kronecker product ``a ⊗ b``."""
    return _kron(_as_matrix(a), _as_matrix(b))


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hermitize(a) -> np.ndarray:
    """Hermitian part ``(a + a*)/2``."""
    m = _square(a)
    return (m + m.conj().T) / 2


def spectral_norm(a) -> float:
    """Operator (2-)norm, the largest over a stack; 0.0 if all zero."""
    m = np.asarray(a)
    if not m.any():
        return 0.0
    if m.ndim > 2:
        return float(np.linalg.norm(m, 2, axis=(-2, -1)).max())
    return float(np.linalg.norm(m, 2))


_EPS = float(np.finfo(float).eps)

# ‖x‖₂ ≤ ‖x‖_F holds exactly, but both norms are computed with relative
# rounding errors of order dim·eps; a Frobenius norm this close to a
# bound is left to the exact norm, so the verdict is always its verdict.
_FROBENIUS_MARGIN = 1 - 1e-10


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a complex stack, in one pass."""
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(
        len(stack), -1).view(float)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def norm_within(a, bound: float) -> bool:
    """Whether ``‖x‖₂ ≤ bound`` for a matrix, or for every matrix of a stack.

    The Frobenius norm is never smaller than the spectral norm, so a
    Frobenius norm within the bound accepts without an SVD; the exact
    :func:`spectral_norm` is computed only for the matrices whose
    Frobenius norm exceeds the bound, and a whole stack within the bound
    is accepted with one reduction. Accept/reject verdicts are those of
    the exact spectral norm, and a non-finite entry rejects. Callers
    that report a residual compute it with :func:`spectral_norm`.
    """
    m = np.asarray(a)
    if m.size == 0:
        return True
    cut = bound * _FROBENIUS_MARGIN
    if np.linalg.norm(m.reshape(-1)) <= cut:
        return True
    if m.ndim > 2:
        m = m.reshape(-1, *m.shape[-2:])
        m = m[~(np.linalg.norm(m, axis=(1, 2)) <= cut)]
    return bool(np.isfinite(m).all()) and spectral_norm(m) <= bound


# Each structural invariant is stated once, by a ``_*_defects`` generator of
# the matrices that vanish when it holds. Reports and gates take them one at
# a time: each defect is dropped before the next is formed.


def _within(defects, bound: float) -> bool:
    """Whether every matrix or stack in ``defects`` is within ``bound``."""
    return all(map(functools.partial(norm_within, bound=bound), defects))


def _require_within(defects, bound: float, what: str) -> None:
    """The gate: raise ``ValueError("<what> (residual r)")`` unless within.

    ``defects`` (a matrix, a stack, or an iterable of them) go through
    :func:`norm_within` one at a time. ``r``, their exact residual, needs
    the norms from the first one outside the bound on only.
    """
    if isinstance(defects, np.ndarray):
        defects = (defects,)
    defects = iter(defects)
    for d in defects:
        if not norm_within(d, bound):
            res = max(map(spectral_norm, itertools.chain((d,), defects)))
            raise ValueError(f"{what} (residual {res:.3e})")
        del d


def _report(defects, bound: float) -> CheckReport:
    """The exact spectral residual of ``defects`` against ``bound``."""
    res = max(map(spectral_norm, defects))
    return CheckReport(res <= bound, res, {})


def _hermitian_defects(a):
    m = _square(a)
    yield m - m.conj().T


def _unitary_defects(a):
    m = _square(a)
    eye = np.eye(m.shape[0])
    yield m.conj().T @ m - eye
    yield m @ m.conj().T - eye


def _isometry_defects(a):
    m = _as_matrix(a)
    yield m.conj().T @ m - np.eye(m.shape[1])


def _projection_defects(a):
    m = _square(a)
    yield m @ m - m
    yield from _hermitian_defects(m)


def _pvm_defects(family):
    """Each member's two projection defects, each pair's product, ``Σ E − 1``."""
    mats = _pvm_members(family)
    for m in mats:
        yield from _projection_defects(m)
    for a, b in itertools.combinations(mats, 2):
        yield a @ b
    yield sum(mats) - np.eye(mats[0].shape[0])


def vec(a) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(a, dtype=complex).reshape(-1)


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape(rows, cols)


def matrix_units(dim: int) -> Iterable[tuple[int, int, np.ndarray]]:
    """Yield ``(i, j, e_ij)`` over the matrix units of ``M_dim``."""
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            yield i, j, e


def basis_vector(dim: int, i: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[i] = 1.0
    return v


def proj(v) -> np.ndarray:
    """Rank-one projection ``|v><v| / <v,v>``."""
    w = np.asarray(v, dtype=complex).reshape(-1)
    n2 = float(np.vdot(w, w).real)
    if n2 <= 0:
        raise ValueError("cannot project onto the zero vector")
    return np.outer(w, w.conj()) / n2


def compress_by_state(x, sigma, dim_h: int, dim_k: int,
                      tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Partial expectation ``(id ⊗ σ) X`` of an operator on ``H ⊗ K``.

    Returns the unique ``Y`` on ``H`` with ``tr(ρ Y) = tr((ρ ⊗ σ) X)``
    for every ``ρ``. For a product ``X = A ⊗ B`` this is ``tr(σB)·A``.
    """
    xm = _square(x)
    if xm.shape[0] != dim_h * dim_k:
        raise ValueError(
            f"operator has dimension {xm.shape[0]}, expected {dim_h * dim_k}")
    require_state(sigma, tol, what="sigma")
    sm = _square(sigma)
    if sm.shape[0] != dim_k:
        raise ValueError(f"sigma has dimension {sm.shape[0]}, expected {dim_k}")
    x4 = xm.reshape(dim_h, dim_k, dim_h, dim_k)
    # Y[a,b] = sum_{k,l} sigma[k,l] X[(a,l),(b,k)]
    return np.einsum("kl,albk->ab", sm, x4)


def sqrt_psd(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """PSD square root of a PSD matrix.

    Eigenvalues in ``[-psd_slack, 0)`` are clamped to zero; anything more
    negative, or a non-Hermitian input, is an error.
    """
    m = _square(a)
    _require_within(_hermitian_defects(m),
                    tol.bound("strict", spectral_norm(m)),
                    "matrix is not Hermitian")
    w, u = np.linalg.eigh(hermitize(m))
    if w.size and w.min() < -tol.bound("psd"):
        raise ValueError(
            f"matrix has negative eigenvalue {w.min():.3e} beyond psd_slack")
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def psd_factorize(g, block: int, tol: Tolerance = DEFAULT_TOL
                  ) -> list[np.ndarray]:
    """Factor a PSD block Gram matrix into ``Λ_i`` with ``Λ_i* Λ_j = G_ij``.

    ``g`` is an ``(n·block)``-square matrix read as ``n × n`` blocks of
    size ``block``. The factors share the minimal codomain dimension
    ``r`` = numerical rank of ``g`` (eigenvalues above
    ``tol.abs · (1 + ||g||)``); eigenvalues in ``[-psd_slack, 0)`` are
    clamped to zero first.
    """
    gm = _square(g)
    if block <= 0 or gm.shape[0] % block != 0:
        raise ValueError(f"block size {block} does not divide {gm.shape[0]}")
    _require_within(_hermitian_defects(gm),
                    tol.bound("strict", spectral_norm(gm)),
                    "Gram matrix is not Hermitian")
    w, u = np.linalg.eigh(hermitize(gm))
    scale = float(w[-1]) if w.size else 0.0
    if w.size and w.min() < -tol.bound("psd", abs(scale)):
        raise ValueError(
            f"Gram matrix has negative eigenvalue {w.min():.3e}: "
            "kernel is not positive definite")
    w = np.clip(w, 0.0, None)
    keep = np.nonzero(w > tol.bound("strict", abs(scale)))[0]
    # Descending eigenvalue order keeps factor rows stable under reruns.
    keep = keep[np.argsort(w[keep])[::-1]]
    f = (np.sqrt(w[keep])[:, None] * u[:, keep].conj().T)
    n = gm.shape[0] // block
    return [np.ascontiguousarray(f[:, i * block:(i + 1) * block])
            for i in range(n)]


def is_hermitian(a, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    m = _square(a)
    return _report(_hermitian_defects(m), tol.bound("strict", spectral_norm(m)))


def is_psd(a, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    m = _square(a)
    herm = is_hermitian(m, tol)
    if not herm.ok:
        return CheckReport(False, herm.residual, {"hermitian": False})
    w = np.linalg.eigvalsh(hermitize(m))
    min_eig = float(w.min()) if w.size else 0.0
    return CheckReport(min_eig >= -tol.bound("psd"), max(0.0, -min_eig),
                       {"min_eigenvalue": min_eig})


def is_unitary(u, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    return _report(_unitary_defects(u), tol.bound("strict"))


def is_isometry(v, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    return _report(_isometry_defects(v), tol.bound("strict"))


def is_projection(p, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    return _report(_projection_defects(p), tol.bound("strict"))


def _pvm_members(family) -> list[np.ndarray]:
    if isinstance(family, Mapping):
        family = family.values()
    mats = [_square(m) for m in family]
    if not mats:
        raise ValueError("empty PVM family")
    dim = mats[0].shape[0]
    if any(m.shape[0] != dim for m in mats):
        raise ValueError("PVM elements live on different spaces")
    return mats


def is_pvm(family, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    """Check that a family of matrices is a projection-valued measure.

    ``family`` is a sequence or mapping of square matrices on a common
    space. Reports per-element projection residuals, mutual
    orthogonality, and the completeness residual ``||Σ E - I||``.
    """
    mats = _pvm_members(family)
    norms = list(map(spectral_norm, _pvm_defects(mats)))
    detail = {
        "projection_residual": max(norms[:2 * len(mats)]),
        "orthogonality_residual": max(norms[2 * len(mats):-1], default=0.0),
        "completeness_residual": norms[-1],
    }
    res = max(detail.values())
    return CheckReport(res <= tol.bound("strict"), res, detail)


def pvm_within(family, bound: float) -> bool:
    """Whether :func:`is_pvm`'s residual is at most ``bound``.

    Every defect goes through :func:`norm_within`, one member or one
    pair at a time, so no more than :func:`is_pvm` is held in memory.
    """
    return _within(_pvm_defects(family), bound)


def is_density_matrix(rho, tol: Tolerance = DEFAULT_TOL) -> CheckReport:
    m = _square(rho)
    psd = is_psd(m, tol)
    trace_res = abs(complex(np.trace(m)) - 1.0)
    ok = psd.ok and trace_res <= tol.bound("trace")
    return CheckReport(ok, max(psd.residual, trace_res),
                       {"trace": complex(np.trace(m)).real, **psd.detail})


def require_state(rho, tol: Tolerance = DEFAULT_TOL, what: str = "rho"
                  ) -> np.ndarray:
    """Return ``rho`` as an array, raising if it is not a density matrix."""
    m = _square(rho)
    rep = is_density_matrix(m, tol)
    if not rep.ok:
        raise ValueError(f"{what} is not a density matrix "
                         f"(residual {rep.residual:.3e}, detail {rep.detail})")
    return m


def random_ginibre(rng: np.random.Generator, rows: int, cols: int | None = None
                   ) -> np.ndarray:
    cols = rows if cols is None else cols
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a Ginibre matrix."""
    q, r = np.linalg.qr(random_ginibre(rng, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_psd(rng: np.random.Generator, dim: int, rank: int | None = None
               ) -> np.ndarray:
    c = random_ginibre(rng, dim, rank if rank is not None else dim)
    return c @ c.conj().T


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    p = random_psd(rng, dim)
    return p / np.trace(p).real


def matrix_to_json(a) -> list:
    """Encode a matrix or a stack of matrices as nested ``[re, im]`` pairs."""
    m = np.asarray(a, dtype=complex)
    _as_matrix(m.reshape(-1, m.shape[-1]) if m.ndim > 2 else m)  # validates
    return np.stack([m.real, m.imag], -1).tolist()


def _json_object(data, what: str, keys=()) -> dict:
    """``data``, which must be a JSON object holding every key in ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} is missing '{key}'")
    return data


def _json_dim(value, name: str) -> int:
    """``value``, which must be a JSON integer of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer")
    return value


def _json_labels(value, name: str) -> tuple[str, ...]:
    """``value``, which must be a JSON array of strings."""
    if not (isinstance(value, list) and all(isinstance(s, str) for s in value)):
        raise ValueError(f"{name} must be an array of strings")
    return tuple(value)


def matrix_from_json(data) -> np.ndarray:
    """Decode the :func:`matrix_to_json` encoding.

    Bare numbers are also accepted in place of ``[re, im]`` pairs so that
    hand-written real matrices stay readable. JSON ``true``/``false`` are
    not numbers here, although Python's ``bool`` is an ``int``.
    """
    if not isinstance(data, list) or not data:
        raise ValueError("matrix JSON must be a nonempty list of rows")
    rows = []
    width = None
    try:
        for row in data:
            if not isinstance(row, list):
                raise ValueError("matrix JSON rows must be lists")
            entries = []
            for z in row:
                re, im = z if isinstance(z, list) and len(z) == 2 else (z, 0)
                if not (isinstance(re, (int, float))
                        and isinstance(im, (int, float))
                        and not isinstance(re, bool)
                        and not isinstance(im, bool)):
                    raise ValueError(f"bad complex entry in matrix JSON: {z!r}")
                entries.append(complex(re, im))
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError("ragged matrix JSON")
            rows.append(entries)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("matrix JSON entries must be finite") from None
    m = np.array(rows, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix JSON entries must be finite")
    return m
