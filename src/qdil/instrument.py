"""CP instruments over finite outcome sets.

An instrument assigns to each outcome atom a completely positive map,
given by a Kraus family; events are subsets of atoms and maps add over
them. Both directions are available: `apply_dual` is the Heisenberg
(operator) side, `apply_predual` the Schrödinger (state) side, related by
``tr(I(Δ)ρ · M) = tr(ρ · I(M,Δ))``.

A map-level constructor (`instrument_from_choi`) admits non-CP data so
that `verify_cp` has something real to reject; such objects carry
``validate=False`` and are quarantined from the dilation constructions,
which call :meth:`CPInstrument.require_valid` first.
"""

from __future__ import annotations

import bisect
import itertools
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FiniteVonNeumannAlgebra,
    _json_algebra,
    algebra_to_json,
    contains,
    full_algebra,
)
from .operator_core import (
    DEFAULT_TOL,
    Tolerance,
    _EPS,
    _json_dim,
    _json_labels,
    _json_object,
    dagger,
    hermitize,
    is_hermitian,
    matrix_from_json,
    matrix_to_json,
    matrix_units,
    norm_within,
    require_state,
    spectral_norm,
)

__all__ = [
    "IN",
    "OutcomeSpace",
    "Indefinite",
    "INDEFINITE",
    "CPInstrument",
    "instrument_from_choi",
    "luders_instrument",
    "apply_dual",
    "apply_predual",
    "outcome_probability",
    "posterior_state",
    "verify_cp",
    "CPReport",
    "is_weakly_repeatable",
    "is_repeatable",
    "coarse_grain",
    "atom_branches",
    "sample_trajectory",
    "sample_first_steps",
    "choi_of_kraus",
    "choi_of_dual",
    "choi_of_dual_tensor",
    "kraus_from_dual_choi",
    "instrument_from_duals",
    "instrument_to_json",
    "instrument_from_json",
]

# The input letter of time words; no outcome may carry this label.
IN = "in"


@dataclass(frozen=True)
class OutcomeSpace:
    """A finite outcome set; events are subsets of the atom labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        labels = tuple(str(s) for s in self.labels)
        if not labels:
            raise ValueError("outcome space needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be distinct")
        if IN in labels:
            raise ValueError(f"outcome label {IN!r} is reserved for the "
                             "input letter")
        object.__setattr__(self, "labels", labels)

    def event(self, ev) -> tuple[str, ...]:
        """Normalize an event to a tuple of known atoms, in label order.

        Accepts a single label, an iterable of labels, or None/"S" for
        the full space.
        """
        if ev is None:
            return self.labels
        if isinstance(ev, str):
            if ev == "S" and "S" not in self.labels:
                return self.labels
            members = {ev}
        else:
            members = {str(s) for s in ev}
        unknown = members - set(self.labels)
        if unknown:
            raise ValueError(f"unknown outcome label(s): {sorted(unknown)}")
        return tuple(s for s in self.labels if s in members)


class Indefinite:
    """Marker for the posterior state after a probability-zero event."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Indefinite"


INDEFINITE = Indefinite()


@dataclass(frozen=True)
class CPInstrument:
    """A discrete instrument: per-atom Kraus families on ``C^dimH``.

    The dual (Heisenberg) action of the atom ``s`` is
    ``M ↦ Σ_j w_{s,j} K_{s,j}* M K_{s,j}``. ``kraus[s]`` is stored as a
    complex ``(r, dimH, dimH)`` stack (``r = 0`` for a null atom; a list of
    matrices is accepted). Its float ``(r,)`` weights are one except for the
    map-level (maybe non-CP) diagnostics of :func:`instrument_from_choi`.
    ``validate`` is True (default tolerance), False or the Tolerance checked.
    """

    dim_h: int
    algebra: FiniteVonNeumannAlgebra
    outcomes: OutcomeSpace
    kraus: dict[str, np.ndarray] = field(repr=False)
    weights: dict[str, np.ndarray] | None = field(default=None, repr=False)
    validate: bool | Tolerance = True

    def __post_init__(self) -> None:
        if self.algebra.dim_h != self.dim_h:
            raise ValueError("algebra dimension does not match dimH")
        for what, data in (("Kraus data", self.kraus),
                           ("weights", self.weights or {})):
            extra = set(data) - set(self.outcomes.labels)
            if extra:
                raise ValueError(f"{what} for unknown outcomes: "
                                 f"{sorted(extra)}")
        kraus = {s: _kraus_stack(self.kraus.get(s, ()), self.dim_h,
                                 f"Kraus data for '{s}'")
                 for s in self.outcomes.labels}
        object.__setattr__(self, "kraus", kraus)
        if self.weights is not None:
            weights = {s: np.asarray(self.weights.get(s, ()), dtype=float)
                       for s in self.outcomes.labels}
            for s, w in weights.items():
                if w.shape != (len(kraus[s]),):
                    raise ValueError(f"weight count mismatch for '{s}'")
            object.__setattr__(self, "weights", weights)
        if self.validate:
            _require_cp(self, Tolerance.of(self.validate))

    def atom_weights(self, s: str) -> np.ndarray:
        if self.weights is None:
            return np.ones(len(self.kraus[s]))
        return self.weights[s]

    def require_valid(self, tol: Tolerance = DEFAULT_TOL) -> None:
        """Raise unless CP, complete and algebra-closed; a check recorded in
        ``validate`` at a tolerance ``<= tol`` stands (bounds grow with it)."""
        if not (self.validate and Tolerance.of(self.validate) <= tol):
            _require_cp(self, tol)


def _kraus_stack(ops, dim: int, what: str = "Kraus data") -> np.ndarray:
    """``ops`` as a complex ``(r, dim, dim)`` stack; raise on another shape."""
    try:
        stack = np.asarray(ops, dtype=complex)
    except ValueError:
        raise ValueError(f"{what} is not an array of matrices") from None
    if stack.size == 0:
        stack = stack.reshape(0, dim, dim)
    if stack.ndim != 3 or stack.shape[1:] != (dim, dim):
        raise ValueError(f"{what} has shape {stack.shape}, expected "
                         f"(r, {dim}, {dim})")
    return stack


def _kraus_of_eigenvectors(vals: np.ndarray, vecs: np.ndarray, dim: int
                           ) -> np.ndarray:
    """The stack ``K_n = sqrt(|λ_n|) · reshape(w_n).T`` of Choi eigenpairs.

    ``J(ρ ↦ KρK*) = z z*`` with ``z[(i, a)] = K[a, i]``; the columns of
    ``vecs`` are the ``w_n``.
    """
    return (np.sqrt(np.abs(vals))[:, None, None]
            * vecs.T.reshape(-1, dim, dim)).transpose(0, 2, 1)


def instrument_from_choi(dim_h: int, outcomes: OutcomeSpace,
                         chois: dict[str, np.ndarray],
                         algebra: FiniteVonNeumannAlgebra | None = None,
                         tol: Tolerance = DEFAULT_TOL) -> CPInstrument:
    """Map-level constructor from per-atom Choi matrices of the preduals.

    The Choi convention is ``J(T) = Σ_ij e_ij ⊗ T(e_ij)``. Negative Choi
    eigenvalues are admitted (they produce negative weights), so this is
    the route for building non-CP counterexamples; the result carries
    ``validate=False``.
    """
    algebra = algebra if algebra is not None else full_algebra(dim_h)
    kraus, weights = {}, {}
    for s in outcomes.labels:
        j = np.asarray(chois[s], dtype=complex)
        if j.shape != (dim_h * dim_h, dim_h * dim_h):
            raise ValueError(f"Choi matrix for '{s}' has shape {j.shape}")
        if not is_hermitian(j, tol).ok:
            raise ValueError(f"Choi matrix for '{s}' is not Hermitian")
        vals, vecs = np.linalg.eigh(hermitize(j))
        scale = max(abs(float(vals[0])), abs(float(vals[-1]))) if vals.size else 0.0
        keep = np.abs(vals) > tol.bound("strict", scale)
        kraus[s] = _kraus_of_eigenvectors(vals[keep], vecs[:, keep], dim_h)
        weights[s] = np.sign(vals[keep])
    return CPInstrument(dim_h, algebra, outcomes, kraus, weights,
                        validate=False)


def luders_instrument(projections: list[np.ndarray],
                      labels: list[str] | None = None,
                      algebra: FiniteVonNeumannAlgebra | None = None,
                      tol: Tolerance = DEFAULT_TOL) -> CPInstrument:
    """The Lüders instrument ``M ↦ Σ_{i∈Δ} P_i M P_i``, checked at ``tol``."""
    projs = [np.asarray(p, dtype=complex) for p in projections]
    dim_h = projs[0].shape[0]
    labels = labels if labels is not None else [str(i) for i in range(len(projs))]
    outcomes = OutcomeSpace(tuple(labels))
    algebra = algebra if algebra is not None else full_algebra(dim_h)
    kraus = {s: [p] for s, p in zip(outcomes.labels, projs)}
    return CPInstrument(dim_h, algebra, outcomes, kraus, validate=tol)


def _kraus_sum(inst: CPInstrument, atoms, x: np.ndarray, dual: bool
               ) -> np.ndarray:
    """``Σ_{s∈atoms} Σ_j w K* x K`` if ``dual``, else ``Σ w K x K*``.

    ``x`` is a matrix or a stack of matrices, each mapped on its own.
    """
    out = np.zeros(x.shape, dtype=complex)
    for s in atoms:
        ks = inst.kraus[s]
        for j in range(len(ks)):
            k = ks[j]
            term = dagger(k) @ x @ k if dual else k @ x @ dagger(k)
            out += term if inst.weights is None else inst.weights[s][j] * term
    return out


def apply_dual(inst: CPInstrument, m, event) -> np.ndarray:
    """Heisenberg action ``I(m, Δ) = Σ_{s∈Δ} Σ_j w K* m K``.

    ``m`` is an operator or a stack of operators, mapped one by one.
    """
    mm = np.asarray(m, dtype=complex)
    if mm.ndim > 3 or mm.shape[-2:] != (inst.dim_h, inst.dim_h):
        raise ValueError(f"operator has shape {mm.shape}")
    return _kraus_sum(inst, inst.outcomes.event(event), mm, dual=True)


def apply_predual(inst: CPInstrument, rho, event,
                  tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Schrödinger action: the subnormalized post-measurement state."""
    rm = require_state(rho, tol)
    if rm.shape != (inst.dim_h, inst.dim_h):
        raise ValueError(f"state has shape {rm.shape}")
    return _kraus_sum(inst, inst.outcomes.event(event), rm, dual=False)


def outcome_probability(inst: CPInstrument, rho, event,
                        tol: Tolerance = DEFAULT_TOL) -> float:
    return float(np.trace(apply_predual(inst, rho, event, tol)).real)


def posterior_state(inst: CPInstrument, rho, event,
                    tol: Tolerance = DEFAULT_TOL):
    """Normalized posterior, or INDEFINITE for a probability-zero event."""
    sub = apply_predual(inst, rho, event, tol)
    p = float(np.trace(sub).real)
    if p <= tol.bound("strict"):
        return INDEFINITE
    return sub / p


def choi_of_dual_tensor(dual: np.ndarray) -> np.ndarray:
    """Choi matrix ``Σ_ij e_ij ⊗ T(e_ij)`` of the PREDUAL of a dual map.

    ``dual[a, b, i, j]`` is ``D(e_ij)[a, b]`` for the Heisenberg map
    ``D``; the predual ``T`` is read off through
    ``T(e_ij)[a,b] = D(e_ba)[j,i]``, so the returned matrix is PSD
    exactly when the map pair is CP.
    """
    dim = dual.shape[0]
    # J[(i,a),(j,b)] = T(e_ij)[a,b] = D(e_ba)[j,i]
    return np.einsum("jiba->iajb", dual).reshape(dim * dim, dim * dim)


def choi_of_dual(apply_fn, dim: int) -> np.ndarray:
    """:func:`choi_of_dual_tensor` of the Heisenberg map ``apply_fn``."""
    dual = np.stack([apply_fn(e) for _, _, e in matrix_units(dim)], -1)
    return choi_of_dual_tensor(dual.reshape(dim, dim, dim, dim))


def choi_of_kraus(kraus, dim: int, weights=None) -> np.ndarray:
    """:func:`choi_of_dual` of ``M ↦ Σ_j w_j K_j* M K_j``, from Kraus data.

    It is ``Σ_j w_j z_j z_j*`` with ``z_j = vec(K_jᵀ)``; ``kraus`` is an
    ``(r, dim, dim)`` stack or a list of matrices, and the weights
    default to one.
    """
    ks = _kraus_stack(kraus, dim)
    w = np.ones(len(ks)) if weights is None else np.asarray(weights, dtype=float)
    z = ks.transpose(0, 2, 1).reshape(len(ks), dim * dim)
    return (z.T * w) @ z.conj()


def kraus_from_dual_choi(j: np.ndarray, dim: int,
                         tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Kraus stack of the map whose predual Choi (PSD) is ``j``.

    Inverts the convention of :func:`choi_of_dual`: eigenvectors ``w``
    with eigenvalue ``λ`` give ``K = sqrt(λ) · reshape(w).T``, each
    ``w`` phased so that its first coordinate above 1e-12 is real
    positive.
    """
    vals, vecs = np.linalg.eigh(hermitize(np.asarray(j, dtype=complex)))
    scale = float(vals[-1]) if vals.size else 0.0
    if vals.size and vals.min() < -tol.bound("psd", abs(scale)):
        raise ValueError(
            f"Choi matrix has negative eigenvalue {vals.min():.3e}")
    return _kept_kraus(vals, vecs, dim, tol)


def _kept_kraus(vals: np.ndarray, vecs: np.ndarray, dim: int,
                tol: Tolerance) -> np.ndarray:
    """The Kraus stack of the Choi eigenpairs above ``strict(λ_max)``.

    ``vals`` ascend, as ``eigh`` gives them; each kept eigenvector is
    phased so that its first coordinate above 1e-12 is real positive.
    """
    scale = float(vals[-1]) if vals.size else 0.0
    keep = vals > tol.bound("strict", abs(scale))
    cols = vecs[:, keep]
    lead = cols[np.argmax(np.abs(cols) > 1e-12, axis=0),
                np.arange(cols.shape[1])]
    return _kraus_of_eigenvectors(vals[keep], cols * (abs(lead) / lead), dim)


def _minimal_kraus(kraus, dim: int, tol: Tolerance = DEFAULT_TOL
                   ) -> np.ndarray:
    """``kraus_from_dual_choi(choi_of_kraus(kraus, dim), dim, tol)``, by SVD.

    The Choi matrix ``Σ_j z_j z_j*`` (see :func:`choi_of_kraus`) is
    ``Z Z*`` for the ``dim² × r`` stack ``Z`` of the ``z_j``: its
    eigenvectors are Z's left singular vectors, its eigenvalues the
    squared singular values. Taken in ascending order, they go through
    the same cut-off and phase rule, so the family is the same, with one
    SVD of ``Z`` in place of the Choi matrix and its ``eigh``.
    """
    ks = _kraus_stack(kraus, dim)
    if not len(ks):
        return ks
    z = ks.transpose(0, 2, 1).reshape(len(ks), dim * dim).T
    left, sv, _ = np.linalg.svd(z, full_matrices=False)
    return _kept_kraus((sv * sv)[::-1], left[:, ::-1], dim, tol)


def instrument_from_duals(dim_h: int, algebra: FiniteVonNeumannAlgebra,
                          outcomes: OutcomeSpace, duals: dict[str, np.ndarray],
                          tol: Tolerance = DEFAULT_TOL) -> CPInstrument:
    """The instrument whose atom ``s`` has the dual tensor ``duals[s]``.

    Tensors follow :func:`choi_of_dual_tensor`; Kraus families come from
    :func:`kraus_from_dual_choi`. The result is checked by
    :func:`verify_cp` at ``tol``, which also rejects a dual image that
    leaves the algebra (a closure violation).
    """
    kraus = {s: kraus_from_dual_choi(choi_of_dual_tensor(duals[s]), dim_h, tol)
             for s in outcomes.labels}
    return CPInstrument(dim_h, algebra, outcomes, kraus, validate=tol)


@dataclass(frozen=True)
class CPReport:
    cp_ok: bool
    min_choi_eigenvalue: float
    choi_eigenvalues: dict[str, float]
    complete_ok: bool
    completeness_residual: float
    algebra_residual: float
    algebra_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.cp_ok and self.complete_ok and self.algebra_ok

    def require_ok(self) -> None:
        """Raise :meth:`CPInstrument.require_valid`'s error unless ``ok``."""
        if not self.cp_ok:
            raise ValueError(
                "instrument is not completely positive "
                f"(min Choi eigenvalue {self.min_choi_eigenvalue:.3e})")
        if not self.complete_ok:
            raise ValueError(
                "instrument is not complete "
                f"(residual {self.completeness_residual:.3e})")
        if not self.algebra_ok:
            raise ValueError(
                "instrument maps do not preserve the algebra "
                f"(residual {self.algebra_residual:.3e})")


def verify_cp(inst: CPInstrument, tol: Tolerance = DEFAULT_TOL) -> CPReport:
    """Recompute each atom's Choi matrix from the map action and certify PSD.

    Also reports the completeness residual ``||I(1,S) - 1||`` and the
    worst algebra-membership residual of the dual maps on a basis of the
    algebra, 0.0 without computing it on a full algebra.
    """
    per_atom: dict[str, float] = {}
    for s in inst.outcomes.labels:
        j = choi_of_kraus(inst.kraus[s], inst.dim_h, inst.atom_weights(s))
        vals = np.linalg.eigvalsh(hermitize(j))
        per_atom[s] = float(vals.min()) if vals.size else 0.0
    min_eig = min(per_atom.values())
    eye = np.eye(inst.dim_h)
    comp_res = spectral_norm(apply_dual(inst, eye, None) - eye)
    alg_res = 0.0  # every dual map lands in a full algebra
    if not inst.algebra.is_full:
        basis = np.stack(inst.algebra.basis())
        alg_res = max(contains(inst.algebra, apply_dual(inst, basis, (s,)),
                               tol).residual for s in inst.outcomes.labels)
    return CPReport(
        cp_ok=min_eig >= -tol.bound("psd"),
        min_choi_eigenvalue=min_eig,
        choi_eigenvalues=per_atom,
        complete_ok=comp_res <= tol.bound("strict"),
        completeness_residual=float(comp_res),
        algebra_residual=float(alg_res),
        algebra_ok=alg_res <= tol.bound("strict"),
    )


def _kraus_mass(inst: CPInstrument, s: str) -> float:
    """``Σ_j |w_j|·‖K_j‖_F²`` over atom ``s``'s Kraus operators."""
    ks = inst.kraus[s]
    if inst.weights is None:
        return float(np.vdot(ks, ks).real)
    return float(np.abs(inst.weights[s]) @ np.einsum(
        "jab,jab->j", ks.conj(), ks).real)


def _require_cp(inst: CPInstrument, tol: Tolerance) -> None:
    """``verify_cp(inst, tol).require_ok()``, or acceptance by bounds: with
    weights None or nonnegative each Choi matrix ``Σ w z z*`` is PSD, and
    rounding moves its computed least eigenvalue by at most ``32(n + r)·
    eps·Σ w‖z‖²`` (n = dimH², r operators). When that is within half of
    ``psd``, the completeness defect passes :func:`norm_within` (Frobenius
    first) and the algebra is full, nothing is left to check."""
    if inst.algebra.is_full and (inst.weights is None or all(
            (w >= 0).all() for w in inst.weights.values())):
        worst = max((inst.dim_h ** 2 + len(inst.kraus[s]))
                    * _kraus_mass(inst, s) for s in inst.outcomes.labels)
        eye = np.eye(inst.dim_h)
        if 32 * _EPS * worst <= tol.bound("psd") / 2 and norm_within(
                apply_dual(inst, eye, None) - eye, tol.bound("strict")):
            return
    verify_cp(inst, tol).require_ok()


def _repeatability(inst: CPInstrument, x: np.ndarray, step, tol: Tolerance
                   ) -> tuple[bool, float]:
    """The worst ``‖step(step(x, s), t) − δ_st·step(x, s)‖`` over atoms."""
    worst = 0.0
    for s in inst.outcomes.labels:
        first = step(x, s)
        for t in inst.outcomes.labels:
            rest = step(first, t) - (first if s == t else 0.0)
            worst = max(worst, spectral_norm(rest))
    return worst <= tol.bound("loose"), float(worst)


def is_weakly_repeatable(inst: CPInstrument, tol: Tolerance = DEFAULT_TOL
                         ) -> tuple[bool, float]:
    """Check ``I(I(1,Δ2),Δ1) = I(1,Δ2∩Δ1)`` over all atom pairs.

    Both sides are biadditive over disjoint events, so atom pairs decide
    the general identity.
    """
    return _repeatability(inst, np.eye(inst.dim_h),
                          lambda x, s: apply_dual(inst, x, (s,)), tol)


def is_repeatable(inst: CPInstrument, tol: Tolerance = DEFAULT_TOL
                  ) -> tuple[bool, float]:
    """Map-level repeatability ``I(Δ2)I(Δ1) = I(Δ2∩Δ1)`` on a basis."""
    units = np.eye(inst.dim_h ** 2).reshape(-1, inst.dim_h, inst.dim_h)
    return _repeatability(inst, units, lambda x, s: _kraus_sum(
        inst, (s,), x, dual=False), tol)


def coarse_grain(inst: CPInstrument, generating_events: list,
                 anchor: dict | None = None) -> CPInstrument:
    """Coarse-grain onto the maximal partition generated by the events.

    Atoms are grouped by their membership signature across the generating
    events; each cell's combined map is moved onto one representative atom
    (the caller's anchor, or the cell's lexicographically first label). The
    result agrees with ``inst`` on every event of the generated σ-field and
    is checked as ``inst`` was, at the same tolerance.
    """
    events = [inst.outcomes.event(ev) for ev in generating_events]
    cells: dict[tuple[bool, ...], list[str]] = {}  # in order of first atom
    for s in inst.outcomes.labels:
        cells.setdefault(tuple(s in ev for ev in events), []).append(s)
    anchor = dict(anchor) if anchor else {}
    new_kraus, new_weights = {}, {}
    for cell in cells.values():
        rep = anchor.get(tuple(cell), anchor.get(frozenset(cell), min(cell)))
        if rep not in cell:
            raise ValueError(f"anchor '{rep}' does not belong to its cell {cell}")
        new_kraus[rep] = np.concatenate([inst.kraus[s] for s in cell])
        new_weights[rep] = np.concatenate([inst.atom_weights(s) for s in cell])
    return CPInstrument(inst.dim_h, inst.algebra, inst.outcomes, new_kraus,
                        new_weights if inst.weights is not None else None,
                        validate=inst.validate)


def _kraus_stacks(inst: CPInstrument):
    """The Kraus stack padded with zeros to ``(max_r, atoms)``, its adjoints
    and weights: uneven atoms cost ``max_r · atoms`` products, not ``Σ r``."""
    ops = [(inst.kraus[s], inst.atom_weights(s)) for s in inst.outcomes.labels]
    shape = (max(len(w) for _, w in ops), len(ops), inst.dim_h, inst.dim_h)
    ks, w = np.zeros(shape, complex), np.zeros((*shape[:2], 1, 1))
    for i, (k, wk) in enumerate(ops):
        ks[:len(k), i], w[:len(k), i, 0, 0] = k, wk
    return ks, ks.conj().swapaxes(2, 3), None if inst.weights is None else w


def atom_branches(inst: CPInstrument, rho: np.ndarray, stacks=None):
    """Each atom's branch ``Σ_j w_j K_j ρ K_j*`` of ``rho``, summed from +0 in
    Kraus order as `_kraus_sum` sums it, its trace and normalized weight."""
    ks, kd, w = stacks or _kraus_stacks(inst)
    terms = ks @ rho @ kd if w is None else w * (ks @ rho @ kd)
    branches = sum(terms, np.zeros(terms.shape[1:], complex))
    traces = branches.trace(axis1=1, axis2=2).real
    probs = np.maximum(traces, 0.0)
    if not 0 < (total := probs.sum()) < np.inf:
        raise ValueError(f"outcome probabilities sum to {total}")
    return branches, traces.tolist(), (probs / total).tolist()


def sample_trajectory(inst: CPInstrument, rho0, steps: int, seed: int,
                      tol: Tolerance = DEFAULT_TOL
                      ) -> list[tuple[str, np.ndarray]]:
    """Sequential Davies-Lewis sampling: outcome then posterior, repeated.

    Deterministic under the seed; probability-zero atoms are never
    drawn, so the posterior is always definite.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return _trajectory(inst, require_state(rho0, tol), steps, seed)[0]


def _trajectory(inst: CPInstrument, rho: np.ndarray, steps: int, seed: int):
    """:func:`sample_trajectory` from a checked state, and the first step's
    traces and outcome probabilities (see :func:`atom_branches`)."""
    rng = np.random.default_rng(seed)
    stacks = _kraus_stacks(inst)
    out, first = [], None
    for _ in range(steps):
        branches, traces, probs = atom_branches(inst, rho, stacks)
        first = first or (traces, probs)
        # `rng.choice(len(probs), p=probs)` by its own steps: the same draw
        cdf = list(itertools.accumulate(probs))
        idx = bisect.bisect_right([c / cdf[-1] for c in cdf], rng.random())
        rho = branches[idx] / traces[idx]
        out.append((inst.outcomes.labels[idx], rho))
    return out, first


def sample_first_steps(inst: CPInstrument, rho0, n: int, seed: int
                       ) -> dict[str, int]:
    """Counts of ``n`` independent first-step outcomes from ``rho0``."""
    if n < 1:
        raise ValueError("need at least one sample")
    _, _, probs = atom_branches(inst, require_state(rho0))
    counts = np.random.default_rng(seed).multinomial(n, probs)
    return {s: int(c) for s, c in zip(inst.outcomes.labels, counts)}


def _json_outcomes(data: dict, what: str) -> OutcomeSpace:
    """The outcome space of ``data["outcomes"]``, an array of strings."""
    return OutcomeSpace(_json_labels(data["outcomes"],
                                     f"{what} JSON 'outcomes'"))


def instrument_to_json(inst: CPInstrument) -> dict:
    data = {
        "dim": inst.dim_h,
        "outcomes": list(inst.outcomes.labels),
        "kraus": {s: matrix_to_json(inst.kraus[s])
                  for s in inst.outcomes.labels},
        "algebra": algebra_to_json(inst.algebra),
    }
    if inst.weights is not None:
        data["weights"] = {s: ws.tolist() for s, ws in inst.weights.items()}
    return data


def instrument_from_json(data, validate: bool = True) -> CPInstrument:
    _json_object(data, "instrument JSON", ("dim", "outcomes", "kraus"))
    dim = _json_dim(data["dim"], "instrument JSON 'dim'")
    outcomes = _json_outcomes(data, "instrument")
    kraus = {s: [matrix_from_json(k) for k in ops] for s, ops in
             _json_object(data["kraus"], "instrument JSON 'kraus'").items()}
    algebra = _json_algebra(data, dim)
    weights = _json_object(data.get("weights", {}), "instrument JSON 'weights'")
    for s, ws in weights.items():
        if not (isinstance(ws, list) and all(
                (isinstance(w, float) or type(w) is int)
                and abs(w) <= sys.float_info.max for w in ws)):
            raise ValueError(f"instrument JSON 'weights' of {s!r} must be an "
                             "array of finite numbers in the float range")
    return CPInstrument(dim, algebra, outcomes, kraus, weights or None,
                        validate=validate)
