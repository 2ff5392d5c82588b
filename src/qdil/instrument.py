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

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FiniteVonNeumannAlgebra,
    _json_algebra,
    algebra_to_json,
    conditional_expectation,
    contains,
    full_algebra,
)
from .operator_core import (
    DEFAULT_TOL,
    Tolerance,
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
    ``M ↦ Σ_j w_{s,j} K_{s,j}* M K_{s,j}``; the weights default to one
    and are only ever different for map-level (possibly non-CP)
    diagnostics built by :func:`instrument_from_choi`.
    """

    dim_h: int
    algebra: FiniteVonNeumannAlgebra
    outcomes: OutcomeSpace
    kraus: dict[str, list[np.ndarray]] = field(repr=False)
    weights: dict[str, list[float]] | None = field(default=None, repr=False)
    validate: bool = True

    def __post_init__(self) -> None:
        if self.algebra.dim_h != self.dim_h:
            raise ValueError("algebra dimension does not match dimH")
        kraus = {}
        for s in self.outcomes.labels:
            ops = [np.asarray(k, dtype=complex) for k in self.kraus.get(s, [])]
            for k in ops:
                if k.shape != (self.dim_h, self.dim_h):
                    raise ValueError(
                        f"Kraus operator for '{s}' has shape {k.shape}")
            kraus[s] = ops
        for what, data in (("Kraus data", self.kraus),
                           ("weights", self.weights or {})):
            extra = set(data) - set(self.outcomes.labels)
            if extra:
                raise ValueError(f"{what} for unknown outcomes: "
                                 f"{sorted(extra)}")
        object.__setattr__(self, "kraus", kraus)
        if self.weights is not None:
            for s in self.outcomes.labels:
                if len(self.weights.get(s, [])) != len(kraus[s]):
                    raise ValueError(f"weight count mismatch for '{s}'")
        if self.validate:
            self.require_valid()

    def atom_weights(self, s: str) -> list[float]:
        if self.weights is None:
            return [1.0] * len(self.kraus[s])
        return self.weights[s]

    def require_valid(self, tol: Tolerance = DEFAULT_TOL) -> None:
        """Raise unless the instrument is CP, complete, and algebra-closed."""
        verify_cp(self, tol).require_ok()


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
    kraus: dict[str, list[np.ndarray]] = {}
    weights: dict[str, list[float]] = {}
    for s in outcomes.labels:
        j = np.asarray(chois[s], dtype=complex)
        if j.shape != (dim_h * dim_h, dim_h * dim_h):
            raise ValueError(f"Choi matrix for '{s}' has shape {j.shape}")
        if not is_hermitian(j, tol).ok:
            raise ValueError(f"Choi matrix for '{s}' is not Hermitian")
        vals, vecs = np.linalg.eigh(hermitize(j))
        scale = max(abs(float(vals[0])), abs(float(vals[-1]))) if vals.size else 0.0
        ops, wts = [], []
        for lam, w in zip(vals, vecs.T):
            if abs(lam) <= tol.abs * (1 + scale):
                continue
            # J(ρ ↦ KρK*) = Σ z z* with z[(i,a)] = K[a,i]
            k = np.sqrt(abs(lam)) * w.reshape(dim_h, dim_h).T
            ops.append(k)
            wts.append(float(np.sign(lam)))
        kraus[s] = ops
        weights[s] = wts
    return CPInstrument(dim_h, algebra, outcomes, kraus, weights,
                        validate=False)


def luders_instrument(projections: list[np.ndarray],
                      labels: list[str] | None = None,
                      algebra: FiniteVonNeumannAlgebra | None = None
                      ) -> CPInstrument:
    """The projective-update instrument ``M ↦ Σ_{i∈Δ} P_i M P_i``."""
    projs = [np.asarray(p, dtype=complex) for p in projections]
    dim_h = projs[0].shape[0]
    labels = labels if labels is not None else [str(i) for i in range(len(projs))]
    outcomes = OutcomeSpace(tuple(labels))
    algebra = algebra if algebra is not None else full_algebra(dim_h)
    return CPInstrument(dim_h, algebra, outcomes,
                        {s: [p] for s, p in zip(outcomes.labels, projs)})


def _kraus_sum(inst: CPInstrument, atoms, x: np.ndarray, dual: bool
               ) -> np.ndarray:
    """``Σ_{s∈atoms} Σ_j w K* x K`` if ``dual``, else ``Σ w K x K*``."""
    out = np.zeros(x.shape, dtype=complex)
    for s in atoms:
        for w, k in zip(inst.atom_weights(s), inst.kraus[s]):
            left, right = (dagger(k), k) if dual else (k, dagger(k))
            out += w * (left @ x @ right)
    return out


def apply_dual(inst: CPInstrument, m, event) -> np.ndarray:
    """Heisenberg action ``I(m, Δ) = Σ_{s∈Δ} Σ_j w K* m K``."""
    mm = np.asarray(m, dtype=complex)
    if mm.shape != (inst.dim_h, inst.dim_h):
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
    if p <= tol.abs:
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
    dual = np.zeros((dim, dim, dim, dim), dtype=complex)
    for i, j, e in matrix_units(dim):
        dual[:, :, i, j] = apply_fn(e)
    return choi_of_dual_tensor(dual)


def choi_of_kraus(kraus, dim: int, weights=None) -> np.ndarray:
    """:func:`choi_of_dual` of ``M ↦ Σ_j w_j K_j* M K_j``, from Kraus data.

    It is ``Σ_j w_j z_j z_j*`` with ``z_j = vec(K_jᵀ)``; the weights
    default to one.
    """
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    if any(k.shape != (dim, dim) for k in ks):
        raise ValueError("Kraus operator has wrong shape")
    w = np.ones(len(ks)) if weights is None else np.asarray(weights, dtype=float)
    z = np.array([k.T.reshape(-1) for k in ks], dtype=complex).reshape(
        len(ks), dim * dim)
    return (z.T * w) @ z.conj()


def kraus_from_dual_choi(j: np.ndarray, dim: int,
                         tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Kraus family of the map whose predual Choi (PSD) is ``j``.

    Inverts the convention of :func:`choi_of_dual`: eigenvectors ``w``
    with eigenvalue ``λ`` give ``K = sqrt(λ) · reshape(w).T``.
    """
    vals, vecs = np.linalg.eigh(hermitize(np.asarray(j, dtype=complex)))
    scale = float(vals[-1]) if vals.size else 0.0
    if vals.size and vals.min() < -tol.psd_slack * (1 + abs(scale)):
        raise ValueError(
            f"Choi matrix has negative eigenvalue {vals.min():.3e}")
    out = []
    for lam, w in zip(vals, vecs.T):
        if lam <= tol.abs * (1 + abs(scale)):
            continue
        col = w.copy()
        # Deterministic phase: first nonzero coordinate real-positive.
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size:
            col = col * (abs(col[nz[0]]) / col[nz[0]])
        out.append(np.sqrt(lam) * col.reshape(dim, dim).T)
    return out


def instrument_from_duals(dim_h: int, algebra: FiniteVonNeumannAlgebra,
                          outcomes: OutcomeSpace, duals: dict[str, np.ndarray],
                          bound: float, tol: Tolerance = DEFAULT_TOL
                          ) -> CPInstrument:
    """The instrument whose atom ``s`` has the dual tensor ``duals[s]``.

    Tensors follow :func:`choi_of_dual_tensor`. Raises when a dual image
    of a basis element of the algebra leaves the algebra by more than
    ``bound`` (a closure violation); Kraus families come from
    :func:`kraus_from_dual_choi`.
    """
    basis = algebra.basis()
    kraus = {}
    for s in outcomes.labels:
        for b in basis:
            img = np.einsum("abij,ij->ab", duals[s], b)
            if not norm_within(img - conditional_expectation(algebra, img),
                               bound):
                res = contains(algebra, img, tol).residual
                raise ValueError(
                    f"closure violation at atom {s!r}: value outside the "
                    f"algebra (residual {res:.3e})")
        kraus[s] = kraus_from_dual_choi(choi_of_dual_tensor(duals[s]), dim_h,
                                        tol)
    inst = CPInstrument(dim_h, algebra, outcomes, kraus, validate=False)
    inst.require_valid(tol)
    return inst


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
    algebra.
    """
    per_atom: dict[str, float] = {}
    for s in inst.outcomes.labels:
        j = choi_of_kraus(inst.kraus[s], inst.dim_h, inst.atom_weights(s))
        vals = np.linalg.eigvalsh(hermitize(j))
        per_atom[s] = float(vals.min()) if vals.size else 0.0
    min_eig = min(per_atom.values())
    eye = np.eye(inst.dim_h)
    comp_res = spectral_norm(apply_dual(inst, eye, None) - eye)
    alg_res = 0.0
    for b in inst.algebra.basis():
        for s in inst.outcomes.labels:
            alg_res = max(alg_res,
                          contains(inst.algebra, apply_dual(inst, b, (s,)),
                                   tol).residual)
    return CPReport(
        cp_ok=min_eig >= -tol.psd_slack,
        min_choi_eigenvalue=min_eig,
        choi_eigenvalues=per_atom,
        complete_ok=comp_res <= tol.abs,
        completeness_residual=float(comp_res),
        algebra_residual=float(alg_res),
        algebra_ok=alg_res <= tol.abs,
    )


def is_weakly_repeatable(inst: CPInstrument, tol: Tolerance = DEFAULT_TOL
                         ) -> tuple[bool, float]:
    """Check ``I(I(1,Δ2),Δ1) = I(1,Δ2∩Δ1)`` over all atom pairs.

    Both sides are biadditive over disjoint events, so atom pairs decide
    the general identity.
    """
    eye = np.eye(inst.dim_h)
    worst = 0.0
    for s1 in inst.outcomes.labels:
        for s2 in inst.outcomes.labels:
            inner = apply_dual(inst, eye, (s2,))
            lhs = apply_dual(inst, inner, (s1,))
            rhs = inner if s1 == s2 else 0.0
            worst = max(worst, spectral_norm(lhs - rhs))
    return worst <= tol.abs * 100, float(worst)


def is_repeatable(inst: CPInstrument, tol: Tolerance = DEFAULT_TOL
                  ) -> tuple[bool, float]:
    """Map-level repeatability ``I(Δ2)I(Δ1) = I(Δ2∩Δ1)`` on a basis."""
    worst = 0.0
    for s1 in inst.outcomes.labels:
        for s2 in inst.outcomes.labels:
            for _, _, e in matrix_units(inst.dim_h):
                first = _kraus_sum(inst, (s1,), e, dual=False)
                lhs = _kraus_sum(inst, (s2,), first, dual=False)
                rhs = first if s1 == s2 else 0.0
                worst = max(worst, spectral_norm(lhs - rhs))
    return worst <= tol.abs * 100, float(worst)


def coarse_grain(inst: CPInstrument, generating_events: list,
                 anchor: dict | None = None) -> CPInstrument:
    """Coarse-grain onto the maximal partition generated by the events.

    Atoms are grouped by their membership signature across the
    generating events; each cell's combined map is moved onto a single
    representative atom (the caller-supplied anchor, or the
    lexicographically first label of the cell). The result agrees with
    the original instrument on every event in the generated σ-field.
    """
    events = [inst.outcomes.event(ev) for ev in generating_events]
    cells: dict[tuple[bool, ...], list[str]] = {}
    order: list[tuple[bool, ...]] = []
    for s in inst.outcomes.labels:
        sig = tuple(s in ev for ev in events)
        if sig not in cells:
            cells[sig] = []
            order.append(sig)
        cells[sig].append(s)
    anchor = dict(anchor) if anchor else {}
    new_kraus: dict[str, list[np.ndarray]] = {s: [] for s in inst.outcomes.labels}
    new_weights: dict[str, list[float]] = {s: [] for s in inst.outcomes.labels}
    for sig in order:
        cell = cells[sig]
        rep = anchor.get(tuple(cell), anchor.get(frozenset(cell), min(cell)))
        if rep not in cell:
            raise ValueError(f"anchor '{rep}' does not belong to its cell {cell}")
        for s in cell:
            new_kraus[rep].extend(inst.kraus[s])
            new_weights[rep].extend(inst.atom_weights(s))
    return CPInstrument(inst.dim_h, inst.algebra, inst.outcomes, new_kraus,
                        new_weights if inst.weights is not None else None,
                        validate=inst.validate)


def _atom_probabilities(inst: CPInstrument, rho: np.ndarray) -> np.ndarray:
    probs = np.array([
        float(np.trace(_kraus_sum(inst, (s,), rho, dual=False)).real)
        for s in inst.outcomes.labels])
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("all outcome probabilities vanish")
    return probs / total


def sample_trajectory(inst: CPInstrument, rho0, steps: int, seed: int
                      ) -> list[tuple[str, np.ndarray]]:
    """Sequential Davies-Lewis sampling: outcome then posterior, repeated.

    Deterministic under the seed; probability-zero atoms are never
    drawn, so the posterior is always definite.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rho = require_state(rho0)
    rng = np.random.default_rng(seed)
    labels = inst.outcomes.labels
    out = []
    for _ in range(steps):
        probs = _atom_probabilities(inst, rho)
        idx = int(rng.choice(len(labels), p=probs))
        s = labels[idx]
        sub = _kraus_sum(inst, (s,), rho, dual=False)
        rho = sub / np.trace(sub).real
        out.append((s, rho))
    return out


def sample_first_steps(inst: CPInstrument, rho0, n: int, seed: int
                       ) -> dict[str, int]:
    """Counts of ``n`` independent first-step outcomes from ``rho0``."""
    if n < 1:
        raise ValueError("need at least one sample")
    rho = require_state(rho0)
    probs = _atom_probabilities(inst, rho)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, probs)
    return {s: int(c) for s, c in zip(inst.outcomes.labels, counts)}


def _json_outcomes(data: dict, what: str) -> OutcomeSpace:
    """The outcome space of ``data["outcomes"]``, an array of strings."""
    return OutcomeSpace(_json_labels(data["outcomes"],
                                     f"{what} JSON 'outcomes'"))


def instrument_to_json(inst: CPInstrument) -> dict:
    data = {
        "dim": inst.dim_h,
        "outcomes": list(inst.outcomes.labels),
        "kraus": {s: [matrix_to_json(k) for k in inst.kraus[s]]
                  for s in inst.outcomes.labels},
        "algebra": algebra_to_json(inst.algebra),
    }
    if inst.weights is not None:
        data["weights"] = {s: list(map(float, ws))
                           for s, ws in inst.weights.items()}
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
                isinstance(w, (int, float)) and not isinstance(w, bool)
                for w in ws)):
            raise ValueError(f"instrument JSON 'weights' of {s!r} must be an "
                             "array of numbers")
    return CPInstrument(dim, algebra, outcomes, kraus,
                        {s: [float(w) for w in ws] for s, ws in weights.items()}
                        or None, validate=validate)
