"""Unitary dilations of CP instruments and measuring processes.

A measuring process is a quadruple (meter space, meter state, pointer
PVM, coupling unitary) whose compressed Heisenberg maps form a CP
instrument. This module builds them three ways: from a correlation
system (multiplicity splitting plus a block unitary), from Kraus
operators inside the algebra (an inner process on a small meter), and
through the conditional expectation when the Kraus operators live
outside the algebra (a faithful process). It also provides the reverse
direction (induced instruments, correlation values) and n-equivalence
checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FiniteVonNeumannAlgebra,
    _json_algebra,
    _swap_matrix,
    algebra_to_json,
    conditional_expectation,
    contains,
    full_algebra,
    tensor_with_full,
)
from .correlations import (
    IN,
    CorrelationSystem,
    PiMap,
    TimeWord,
    _transport,
    eval_W,
)
from .instrument import (
    CPInstrument,
    OutcomeSpace,
    _json_outcomes,
    apply_dual,
    choi_of_dual,
    choi_of_kraus,
    instrument_from_duals,
    kraus_from_dual_choi,
)
from .operator_core import (
    DEFAULT_TOL,
    Tolerance,
    _json_dim,
    _json_object,
    _require_within,
    basis_vector,
    compress_by_state,
    dagger,
    is_pvm,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    matrix_units,
    norm_within,
    proj,
    pvm_within,
    random_unitary,
    require_state,
    spectral_norm,
    sqrt_psd,
)

__all__ = [
    "MeasuringProcess",
    "InstrumentRepresentation",
    "MinimalStinespring",
    "minimal_stinespring",
    "instrument_representation",
    "multiplicity_split",
    "commutant_pvm_lift",
    "intertwiner_vector",
    "mp_from_correlations",
    "induced_instrument_mp",
    "correlations_of_mp",
    "system_of_mp",
    "EquivalenceReport",
    "n_equivalent",
    "halmos_unitary",
    "inner_mp_from_kraus",
    "inner_membership",
    "faithful_mp",
    "faithfulness_table",
    "mp_to_json",
    "mp_from_json",
]


# ---------------------------------------------------------------------------
# Measuring processes


@dataclass(frozen=True)
class MeasuringProcess:
    """Meter quadruple (sigma, e, u) over ``H ⊗ K`` with outcome atoms.

    ``u`` acts on ``H ⊗ K`` in kron order (system leg first), ``e`` maps
    each atom label to a projection on ``K``, and ``sigma`` is the meter
    state. Construction checks the unitary/PVM/state invariants; the
    algebra-closure invariant is checked where the induced instrument is
    actually built (`induced_instrument_mp`), since that is the same
    computation.
    """

    dim_h: int
    algebra: FiniteVonNeumannAlgebra
    outcomes: OutcomeSpace
    dim_k: int
    sigma: np.ndarray = field(repr=False)
    e: dict[str, np.ndarray] = field(repr=False)
    u: np.ndarray = field(repr=False)
    validate: bool = True

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=complex)
        u = np.asarray(self.u, dtype=complex)
        e = {s: np.asarray(p, dtype=complex) for s, p in self.e.items()}
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "e", e)
        if set(e) != set(self.outcomes.labels):
            raise ValueError("pointer PVM labels do not match the outcomes")
        n = self.dim_h * self.dim_k
        if u.shape != (n, n):
            raise ValueError(f"u has shape {u.shape}, expected {(n, n)}")
        if sigma.shape != (self.dim_k, self.dim_k):
            raise ValueError("sigma is not an operator on the meter space")
        if self.validate:
            self.require_valid()

    def require_valid(self, tol: Tolerance = DEFAULT_TOL) -> None:
        bound = tol.abs * 100
        eye = np.eye(len(self.u))
        if not (norm_within(dagger(self.u) @ self.u - eye, bound)
                and norm_within(self.u @ dagger(self.u) - eye, bound)):
            res = is_unitary(self.u, tol).residual
            raise ValueError(f"u is not unitary (residual {res:.3e})")
        if not pvm_within(self.e, bound):
            raise ValueError(f"e is not a PVM "
                             f"(residual {is_pvm(self.e, tol).residual:.3e})")
        require_state(self.sigma, tol, what="sigma")

    def pointer(self, event) -> np.ndarray:
        return sum((self.e[s] for s in self.outcomes.event(event)),
                   np.zeros((self.dim_k, self.dim_k), dtype=complex))

    def heisenberg(self, m, event) -> np.ndarray:
        """The compressed map ``(id ⊗ sigma)[u*(m ⊗ E(event))u]``."""
        m = np.asarray(m, dtype=complex)
        x = dagger(self.u) @ np.kron(m, self.pointer(event)) @ self.u
        return compress_by_state(x, self.sigma, self.dim_h, self.dim_k)

    def purified(self, tol: Tolerance = DEFAULT_TOL) -> "MeasuringProcess":
        """An equivalent process whose meter state is a vector state.

        The meter is enlarged to ``K ⊗ C^r`` (r = rank of sigma), the
        pointer projections and the coupling extend by the identity, and
        the state becomes the standard purification. Returns ``self``
        when sigma is already pure.
        """
        vals, vecs = np.linalg.eigh((self.sigma + dagger(self.sigma)) / 2)
        keep = vals > max(tol.abs, 1e-12)
        r = int(np.count_nonzero(keep))
        if r <= 1:
            return self
        p = vals[keep]
        phi = vecs[:, keep] * np.sqrt(p)[None, :]
        eta = phi.reshape(-1)  # index (k, i) row-major = K ⊗ C^r
        eye_r = np.eye(r)
        return MeasuringProcess(
            self.dim_h, self.algebra, self.outcomes, self.dim_k * r,
            proj(eta), {s: np.kron(self.e[s], eye_r) for s in self.e},
            np.kron(self.u, eye_r), validate=False)

    def state_vector(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """The meter state as a vector; requires sigma pure within tol."""
        vals, vecs = np.linalg.eigh((self.sigma + dagger(self.sigma)) / 2)
        if np.count_nonzero(vals > max(tol.abs, 1e-12)) != 1:
            raise ValueError("sigma is not a vector state")
        return vecs[:, -1] * np.sqrt(vals[-1])


def mp_to_json(mp: MeasuringProcess) -> dict:
    return {
        "dimH": mp.dim_h,
        "dimK": mp.dim_k,
        "sigma": matrix_to_json(mp.sigma),
        "pvm": {s: matrix_to_json(mp.e[s]) for s in mp.outcomes.labels},
        "u": matrix_to_json(mp.u),
        "outcomes": list(mp.outcomes.labels),
        "algebra": algebra_to_json(mp.algebra),
    }


def mp_from_json(data, validate: bool = True) -> MeasuringProcess:
    _json_object(data, "measuring-process JSON",
                 ("dimH", "dimK", "sigma", "pvm", "u", "outcomes"))
    pvm = _json_object(data["pvm"], "measuring-process JSON 'pvm'")
    dim_h = _json_dim(data["dimH"], "measuring-process JSON 'dimH'")
    dim_k = _json_dim(data["dimK"], "measuring-process JSON 'dimK'")
    outcomes = _json_outcomes(data, "measuring-process")
    return MeasuringProcess(
        dim_h, _json_algebra(data, dim_h), outcomes, dim_k,
        matrix_from_json(data["sigma"]),
        {s: matrix_from_json(p) for s, p in pvm.items()},
        matrix_from_json(data["u"]), validate=validate)


# ---------------------------------------------------------------------------
# Stinespring data


@dataclass(frozen=True)
class MinimalStinespring:
    """Minimal dilation ``Ψ(M) = v* (M ⊗ 1_rank) v`` of one CP map."""

    dim_h: int
    rank: int
    dim_k: int
    kraus: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def pi(self, m) -> np.ndarray:
        return np.kron(np.asarray(m, dtype=complex), np.eye(self.rank))


def minimal_stinespring(cp_map, dim_h: int, tol: Tolerance = DEFAULT_TOL
                        ) -> MinimalStinespring:
    """Minimal Stinespring data of a CP map in Heisenberg form.

    ``cp_map`` is either Kraus data, a stack or list of operators (the
    map being ``M ↦ Σ K*MK``), or the map's dual Choi matrix. The rank of
    the Choi matrix fixes the multiplicity, ``dimK' = dimH · rank``, and
    ``v = Σ_k kron(K_k, e_k)`` stacks the minimal Kraus family.
    """
    arr = np.asarray(cp_map, dtype=complex)
    square = arr.shape == (dim_h ** 2, dim_h ** 2)
    choi = arr if square else choi_of_kraus(arr, dim_h)
    kraus = kraus_from_dual_choi(choi, dim_h, tol)
    rank = len(kraus)
    v = kraus.transpose(1, 0, 2).reshape(dim_h * rank, dim_h)
    return MinimalStinespring(dim_h, rank, dim_h * rank, kraus, v)


@dataclass(frozen=True)
class InstrumentRepresentation:
    """Minimal triple ``(K, π₀, E₀, V)`` with ``I(M,Δ) = V*π₀(M)E₀(Δ)V``."""

    dim_h: int
    dim_k: int
    pi0: PiMap = field(repr=False)
    e0: dict[str, np.ndarray] = field(repr=False)
    v: np.ndarray = field(repr=False)
    ranks: dict[str, int] = field(repr=False, default_factory=dict)

    def require_valid(self, inst: CPInstrument, tol: Tolerance = DEFAULT_TOL
                      ) -> None:
        scale = tol.abs * (1 + self.dim_k)
        units = np.eye(self.dim_h ** 2).reshape(-1, self.dim_h, self.dim_h)
        # π₀ of every matrix unit, in the order of ``units``.
        images = np.moveaxis(self.pi0.tensor.reshape(
            self.dim_k, self.dim_k, -1), 2, 0)
        for s, e in self.e0.items():
            _require_within(images @ e - e @ images, scale,
                            f"π₀ does not commute with E₀({s!r})")
        labels = inst.outcomes.labels
        # blocks[u, a] = π₀(x_u) E₀(s_a) V for unit x_u and atom s_a.
        pointers = np.stack([self.e0[s] for s in labels])
        blocks = images[:, None] @ pointers @ self.v
        misfit = dagger(self.v) @ blocks - np.stack(
            [apply_dual(inst, units, (s,)) for s in labels], axis=1)
        _require_within(misfit, scale,
                        "representation does not reconstruct the instrument")
        stacked = blocks.transpose(2, 0, 1, 3).reshape(self.dim_k, -1)
        sv = np.linalg.svd(stacked, compute_uv=False)
        rank = int(np.count_nonzero(sv > tol.abs * (1 + (sv[0] if sv.size else 0))))
        if rank != self.dim_k:
            raise ValueError(f"representation is not minimal: span rank "
                             f"{rank} < dimK {self.dim_k}")


def instrument_representation(inst: CPInstrument,
                              tol: Tolerance = DEFAULT_TOL,
                              validate: bool = True
                              ) -> InstrumentRepresentation:
    """Direct sum of per-atom minimal Stinespring dilations.

    Zero-probability atoms contribute empty blocks. The input, unless
    ``validate=False``, and the result's invariants are verified.
    """
    if validate:
        inst.require_valid(tol)
    dim_h = inst.dim_h
    parts = {s: minimal_stinespring(
        choi_of_kraus(inst.kraus[s], dim_h, inst.atom_weights(s)),
        dim_h, tol) for s in inst.outcomes.labels}
    ranks = {s: parts[s].rank for s in inst.outcomes.labels}
    dim_k = dim_h * sum(ranks.values())

    tensor = np.zeros((dim_k, dim_k, dim_h, dim_h), dtype=complex)
    e0 = {}
    v = np.zeros((dim_k, dim_h), dtype=complex)
    offset = 0
    for s in inst.outcomes.labels:
        part = parts[s]
        size = part.dim_k
        sl = slice(offset, offset + size)
        if size:
            tensor[sl, sl] = _transport(np.eye(size), np.eye(size), part.rank)
            v[sl, :] = part.v
        p = np.zeros((dim_k, dim_k), dtype=complex)
        p[sl, sl] = np.eye(size)
        e0[s] = p
        offset += size
    rep = InstrumentRepresentation(dim_h, dim_k, PiMap(tensor), e0, v, ranks)
    rep.require_valid(inst, tol)
    return rep


# ---------------------------------------------------------------------------
# Splitting a representation of B(H) and reading off commutant data


def multiplicity_split(pi: PiMap, tol: Tolerance = DEFAULT_TOL
                       ) -> tuple[int, np.ndarray]:
    """Split a unital representation of B(H) as ``π(X) = U₁*(X ⊗ 1)U₁``.

    Returns ``(dimK, u1)`` with ``u1`` a unitary from the representation
    space onto ``H ⊗ C^dimK``. The unitary is assembled by propagating
    an orthonormal basis of the range of ``π(|0><0|)`` with the partial
    isometries ``π(|i><0|)``.
    """
    dim_l, dim_h = pi.dim_out, pi.dim_in
    if dim_l % dim_h != 0:
        raise ValueError(f"space of dimension {dim_l} admits no "
                         f"multiplicity split over dimension {dim_h}")
    dim_k = dim_l // dim_h
    p0 = pi.tensor[:, :, 0, 0]
    vals, vecs = np.linalg.eigh((p0 + dagger(p0)) / 2)
    sel = vals > 0.5
    if int(np.count_nonzero(sel)) != dim_k:
        raise ValueError("π is not a representation: π(|0><0|) has rank "
                         f"{int(np.count_nonzero(sel))}, expected {dim_k}")
    f = vecs[:, sel]
    # Column block i of w is π(|i><0|) f.
    w = (np.moveaxis(pi.tensor[:, :, :, 0], 2, 0) @ f).transpose(
        1, 0, 2).reshape(dim_l, dim_l)
    scale = tol.abs * (1 + dim_l) * 100
    _require_within(dagger(w) @ w - np.eye(dim_l), scale,
                    "π is not a representation: propagated basis is not "
                    "orthonormal")
    u1 = dagger(w)
    misfit = pi.tensor - _transport(w, u1, dim_k)
    _require_within(misfit.transpose(2, 3, 0, 1), scale,
                    "π is not a representation of the full matrix algebra")
    return dim_k, u1


def commutant_pvm_lift(pi_vals: dict[str, np.ndarray], u2: np.ndarray,
                       dim_h: int, tol: Tolerance = DEFAULT_TOL
                       ) -> dict[str, np.ndarray]:
    """Read a commutant PVM through a multiplicity split.

    Each projection must commute with ``u2*(X ⊗ 1)u2``; then
    ``u2 P u2*`` has the form ``1 ⊗ E₀`` and ``E₀`` is recovered by
    partial trace over the first leg. The recovered family is verified
    to be a PVM and to reproduce the inputs.
    """
    dim_l = u2.shape[0]
    if dim_l % dim_h != 0:
        raise ValueError("split dimensions do not divide")
    dim_k = dim_l // dim_h
    scale = tol.abs * (1 + dim_l) * 100
    # u2*(x ⊗ 1)u2 for every matrix unit x, as a stack.
    transported = _transport(dagger(u2), u2, dim_k).transpose(
        2, 3, 0, 1).reshape(-1, dim_l, dim_l)
    out = {}
    for s, p in pi_vals.items():
        p = np.asarray(p, dtype=complex)
        _require_within(p @ transported - transported @ p, scale,
                        f"projection {s!r} does not commute with the "
                        "transported algebra")
        t = (u2 @ p @ dagger(u2)).reshape(dim_h, dim_k, dim_h, dim_k)
        e0 = np.einsum("akal->kl", t) / dim_h
        _require_within(t.reshape(dim_l, dim_l) - np.kron(np.eye(dim_h), e0),
                        scale, f"transported projection {s!r} is not of the "
                        "form 1 ⊗ (·)")
        out[s] = e0
    if not pvm_within(out, scale):
        raise ValueError(f"lifted family is not a PVM "
                         f"(residual {is_pvm(out, tol).residual:.3e})")
    return out


def intertwiner_vector(v: np.ndarray, tol: Tolerance = DEFAULT_TOL
                       ) -> np.ndarray:
    """Extract η from an intertwining isometry ``V ξ = ξ ⊗ η``.

    The vector is read off the image of the first basis vector and
    re-phased so its first significant component is real positive; the
    product form is verified against the raw (un-phased) extraction, so
    the check is phase-free.
    """
    v = np.asarray(v, dtype=complex)
    dim_h = v.shape[1]
    if v.shape[0] % dim_h != 0:
        raise ValueError("isometry shape does not factor over the system")
    dim_l1 = v.shape[0] // dim_h
    scale = tol.abs * (1 + v.shape[0]) * 100
    for _, _, x in matrix_units(dim_h):
        _require_within(np.kron(x, np.eye(dim_l1)) @ v - v @ x, scale,
                        "V does not intertwine the system action")
    eta_raw = v[:dim_l1, 0].copy()
    _require_within(v - np.kron(np.eye(dim_h), eta_raw.reshape(-1, 1)),
                    scale, "V is not of the form ξ ↦ ξ ⊗ η")
    norm = np.linalg.norm(eta_raw)
    if abs(norm - 1.0) > scale:
        raise ValueError("extracted vector is not normalized")
    eta = eta_raw / norm
    mags = np.abs(eta)
    lead = int(np.argmax(mags >= mags.max() * 1e-6))
    phase = eta[lead] / abs(eta[lead])
    return eta * phase.conjugate()


# ---------------------------------------------------------------------------
# Correlation system -> measuring process


def mp_from_correlations(sys: CorrelationSystem,
                         tol: Tolerance = DEFAULT_TOL,
                         completion_seed: int | None = None
                         ) -> MeasuringProcess:
    """Build a measuring process reproducing a full-algebra system.

    Both the input letter map and the summed atom map are unital
    representations of B(H) on the same space, so their multiplicity
    splits share one multiplicity dimension. The meter is the tensor
    square of that multiplicity space; the coupling unitary acts as the
    transported change of splitting on the support of the meter state
    and as a fixed basis permutation between the (equal-dimensional)
    orthocomplements. ``completion_seed`` replaces that permutation with
    a seeded random unitary; any choice yields a 2-equivalent process.
    """
    if not sys.algebra.is_full:
        raise ValueError("construction requires the full matrix algebra")
    dim_h = sys.dim_h
    d1, u1 = multiplicity_split(sys.pi_in, tol)
    d2, u2 = multiplicity_split(sys.letter_map(sys.outcomes.labels), tol)
    if d1 != d2:
        raise ValueError("splitting dimensions disagree; the letter maps "
                         "do not act on a common space")
    e0 = commutant_pvm_lift(sys.atom_units(), u2, dim_h, tol)
    eta1 = intertwiner_vector(u1 @ sys.v, tol)
    eta2 = basis_vector(d2, 0)

    # Populated block: swap ∘ (U₂U₁* ⊗ |η₁><η₂|) maps H⊗L₁⊗L₂ into the
    # slice of the final space whose L₁ leg is η₁.
    swap = np.kron(np.eye(dim_h), _swap_matrix(d2, d1))
    uq = swap @ np.kron(u2 @ dagger(u1), np.outer(eta1, eta2.conj()))

    # Orthocomplement bases: initial = η₂-orthogonal meter directions,
    # final = η₁-orthogonal directions of the L₁ leg.
    q_comp, _ = np.linalg.qr(np.column_stack([eta1, np.eye(d1)]))
    eta1_perp = q_comp[:, 1:]
    eye_h = np.eye(dim_h)
    b_init = np.kron(np.kron(eye_h, np.eye(d1)), np.eye(d2)[:, 1:])
    b_final = np.kron(np.kron(eye_h, eta1_perp), np.eye(d2))
    if b_init.shape[1] != b_final.shape[1]:
        raise ValueError("orthocomplement dimensions disagree")
    if completion_seed is None:
        rot = np.eye(b_init.shape[1])
    else:
        rng = np.random.default_rng(completion_seed)
        rot = random_unitary(rng, b_init.shape[1])
    u = uq + b_final @ rot @ dagger(b_init)

    # The MeasuringProcess constructor below checks that u is unitary.
    dim_k = d1 * d2
    sigma = proj(np.kron(eta1, eta2))
    e = {s: np.kron(np.eye(d1), e0[s]) for s in sys.outcomes.labels}
    mp = MeasuringProcess(dim_h, sys.algebra, sys.outcomes, dim_k, sigma, e, u)

    # Spot check: the process reproduces the system's correlation values.
    rng = np.random.default_rng(7)
    diffs = []
    labels = list(sys.outcomes.labels)
    for _ in range(6):
        length = int(rng.integers(1, 3))
        letters = tuple(
            ([IN] + labels)[int(rng.integers(1 + len(labels)))]
            for _ in range(length))
        ms = [np.eye(dim_h) + 0.3 * np.diag(rng.standard_normal(dim_h))
              for _ in range(length)]
        lhs = correlations_of_mp(mp, TimeWord(letters), ms, tol)
        rhs = eval_W(sys, TimeWord(letters), ms, tol, check_membership=False)
        diffs.append(lhs - rhs)
    _require_within(np.stack(diffs), tol.abs * (1 + dim_h * dim_k) * 100,
                    "constructed process fails to reproduce the correlation "
                    "values")
    return mp


# ---------------------------------------------------------------------------
# Measuring process -> instrument / correlation data


def _purify(mp: MeasuringProcess, tol: Tolerance
            ) -> tuple[MeasuringProcess, np.ndarray]:
    """The purified process and its cyclic isometry ``ξ ↦ ξ ⊗ η``."""
    pure = mp.purified(tol)
    eta = pure.state_vector(tol)
    return pure, np.kron(np.eye(pure.dim_h), eta.reshape(-1, 1))


def _step(pure: MeasuringProcess, letter, m: np.ndarray, state: np.ndarray
          ) -> np.ndarray:
    """Apply one letter map of a purified process to columns in ``H ⊗ K``.

    The input letter acts as ``m ⊗ 1``; an outcome letter (atom or
    event) acts as ``U*(m ⊗ E)U``.
    """
    dim_h, dim_k = pure.dim_h, pure.dim_k
    if letter == IN:
        s3 = state.reshape(dim_h, dim_k, -1)
        return np.einsum("ij,jkb->ikb", m, s3).reshape(state.shape)
    e = pure.e[letter] if letter in pure.e else pure.pointer(letter)
    t3 = (pure.u @ state).reshape(dim_h, dim_k, -1)
    t2 = np.einsum("ij,kl,jlb->ikb", m, e, t3, optimize=True)
    # U* t2 without forming U*: conj(Uᵀ conj(t2)).
    return (pure.u.T @ t2.reshape(state.shape).conj()).conj()


def induced_instrument_mp(mp: MeasuringProcess, tol: Tolerance = DEFAULT_TOL
                          ) -> CPInstrument:
    """Extract the CP instrument ``M, Δ ↦ (id ⊗ σ)[U*(M ⊗ E(Δ))U]``.

    The meter state is purified first, so each atom's Heisenberg map is
    a single compression; Kraus families come from the Choi
    factorization of each map. Raises when a compressed value leaves the
    algebra (closure violation).
    """
    pure, iso = _purify(mp, tol)
    c = (pure.u @ iso).reshape(pure.dim_h, pure.dim_k, pure.dim_h)
    duals = {s: np.einsum("ika,kl,jlb->abij", c.conj(), pure.e[s], c,
                          optimize=True)
             for s in mp.outcomes.labels}
    return instrument_from_duals(mp.dim_h, mp.algebra, mp.outcomes, duals,
                                 tol.abs * (1 + mp.dim_h) * 100, tol)


def correlations_of_mp(mp: MeasuringProcess, t: TimeWord, ms,
                       tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Correlation value of a word, evaluated on the purified process.

    The letter maps (see :func:`_step`) push the cyclic isometry
    ``ξ ↦ ξ ⊗ η`` right to left, and its adjoint compresses the result.
    """
    letters = t.letters if isinstance(t, TimeWord) else TimeWord(t).letters
    ms = [np.asarray(m, dtype=complex) for m in ms]
    if len(ms) != len(letters):
        raise ValueError(f"{len(letters)} letters but {len(ms)} operators")
    pure, iso = _purify(mp, tol)
    state = iso
    for letter, m in zip(reversed(letters), reversed(ms)):
        state = _step(pure, letter, m, state)
    return dagger(iso) @ state


def system_of_mp(mp: MeasuringProcess, tol: Tolerance = DEFAULT_TOL
                 ) -> CorrelationSystem:
    """The correlation system carried by a measuring process.

    Uses the purified meter, so the representation space is
    ``H ⊗ K_pure`` and the cyclic isometry is ``ξ ↦ ξ ⊗ η``.
    """
    pure, v = _purify(mp, tol)
    dim_l = pure.dim_h * pure.dim_k
    eye_h, eye_l = np.eye(pure.dim_h), np.eye(dim_l)
    pi_in = PiMap(_transport(eye_l, eye_l, pure.dim_k))
    # u*(x ⊗ E_s)u = u*(x ⊗ 1) · (1 ⊗ E_s)u.
    pi_atom = {s: PiMap(_transport(dagger(pure.u),
                                   np.kron(eye_h, pure.e[s]) @ pure.u,
                                   pure.dim_k))
               for s in mp.outcomes.labels}
    return CorrelationSystem(mp.dim_h, mp.algebra, mp.outcomes, dim_l,
                             pi_in, pi_atom, v)


# ---------------------------------------------------------------------------
# n-equivalence


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of :func:`n_equivalent` for every order up to ``order``.

    ``order_residuals[k - 1]`` is the worst value difference over the
    words of length ≤ k; order k holds when it is at most ``bound``.
    """

    equivalent: bool
    worst_residual: float
    order: int
    order_residuals: tuple[float, ...]
    bound: float
    note: str = ""

    def __bool__(self) -> bool:
        return self.equivalent


def _order_note(n: int) -> str:
    return "statistical equivalence" if n == 2 else ""


def _gram_blocks(mp: MeasuringProcess, ops: np.ndarray, n: int,
                 tol: Tolerance):
    """Values of every word of length ≤ n, split as prefix · suffix.

    A word ``X_1···X_ℓ`` has the value
    ``⟨(X_1···X_a)* c, (X_{a+1}···X_ℓ) c⟩`` with ``c`` the cyclic
    isometry ``ξ ↦ ξ ⊗ η``. The prefix states
    ``(X_1···X_a)* c`` for a ≤ ⌊n/2⌋ are stacked into ``L`` (ordered by
    length); ``X(t, m)* = X(t, m*)`` since every pointer projection is
    Hermitian. Suffix words of length ≤ ⌈n/2⌉ are walked depth first,
    and each node yields ``(b, blocks)``: ``b`` the length of its
    children's suffixes and ``blocks[a][w, p]`` the dimH×dimH value of
    the p-th prefix of length a followed by child w. A child's values
    are ``L*(m ⊗ 1)s`` or ``(UL)*(m ⊗ E_t)(Us)`` for the parent state s,
    so leaf states are never formed; the root first yields its own
    values with ``b = 0``. Letters run over the input and the atoms,
    operators over ``ops``.
    """
    pure, c = _purify(mp, tol)
    dim_h, dim_k = pure.dim_h, pure.dim_k
    dim = dim_h * dim_k
    half = n // 2
    u = pure.u
    e = np.stack([pure.e[s] for s in mp.outcomes.labels])

    def children(ms, states):
        # Every letter map with every operator of ms, input letter first;
        # the atoms share one U·states and one U* multiply.
        cols = states.shape[1]
        s3 = states.reshape(dim_h, dim_k, cols)
        inp = np.einsum("mij,jkb->ikmb", ms, s3).reshape(dim, -1)
        y = (u @ states).reshape(dim_h, dim_k, cols)
        z = np.einsum("mij,tkl,jlb->iktmb", ms, e, y, optimize=True)
        atoms = (u.T @ z.reshape(dim, -1).conj()).conj()
        return np.concatenate([inp, atoms], axis=1)

    level, levels = c, [c]
    for _ in range(half):
        level = children(ops.conj().transpose(0, 2, 1), level)
        levels.append(level)
    lstack = np.concatenate(levels, axis=1)
    splits = np.cumsum([lv.shape[1] // dim_h for lv in levels])[:-1]
    # Conjugated prefix states before and after U, rows (i, column of L)
    # against the meter index k.
    frames = [f.conj().reshape(dim_h, dim_k, -1).transpose(0, 2, 1)
              .reshape(-1, dim_k) for f in (lstack, u @ lstack)]
    width = lstack.shape[1]

    def block(vals, cols):
        # (children, prefixes·dimH, cols) -> per prefix length
        # (children, prefixes, dimH, cols)
        return np.split(vals.reshape(len(vals), -1, dim_h, cols), splits,
                        axis=1)

    def child_blocks(s):
        # ⟨f_i, (m ⊗ E) w_j⟩ = Σ_k conj(f[i, k]) (E w)[j, k] m[i, j]: one
        # product over the meter leg, then the operators over (i, j).
        cols = s.shape[1]
        ws = (s.reshape(1, dim_h, dim_k, cols),
              e[:, None] @ (u @ s).reshape(dim_h, dim_k, cols))
        vals = []
        for f, w in zip(frames, ws):
            g = f @ w.transpose(2, 0, 1, 3).reshape(dim_k, -1)
            g = g.reshape(dim_h, width, len(w), dim_h, cols)
            vals.append(np.einsum("mij,iqtjb->tmqb", ops, g, optimize=True)
                        .reshape(-1, width, cols))
        return block(np.concatenate(vals), cols)

    def walk(s, depth):
        yield depth + 1, child_blocks(s)
        if depth + 1 < n - half:
            kids = children(ops, s).reshape(dim, -1, s.shape[1])
            for k in range(kids.shape[1]):
                yield from walk(kids[:, k], depth + 1)

    yield 0, block((lstack.conj().T @ c)[None], dim_h)
    yield from walk(c, 0)


def n_equivalent(mp1: MeasuringProcess, mp2: MeasuringProcess, n: int,
                 tol: Tolerance = DEFAULT_TOL) -> EquivalenceReport:
    """Compare correlation values of two processes up to word length n.

    By multilinearity it suffices to range the operator slots over a
    basis of the algebra and the letters over the input plus the atoms,
    which this does exhaustively (every word of length ≤ n). One pass
    answers every order 1..n: each word is a prefix of length ≤ ⌊n/2⌋
    against a suffix of length ≤ ⌈n/2⌉ (see :func:`_gram_blocks`), so
    the cost is about (choices)^⌈n/2⌉ state pushes and Gram blocks,
    choices = (1 + #atoms)·dim(algebra), where evaluating every word
    separately costs (choices)^n pushes. The two processes' suffix
    streams are compared as they are produced, so memory holds the
    prefix stacks and one node's children at a time. The order-2 check
    is statistical equivalence.
    """
    if n < 1:
        raise ValueError("order must be at least 1")
    if mp1.dim_h != mp2.dim_h:
        raise ValueError("system dimensions differ")
    if mp1.outcomes.labels != mp2.outcomes.labels:
        raise ValueError("outcome spaces differ")
    ops = np.stack(mp1.algebra.basis())
    by_length = np.zeros(n + 1)
    for (b, x1), (_, x2) in zip(_gram_blocks(mp1, ops, n, tol),
                                _gram_blocks(mp2, ops, n, tol)):
        for a, (y1, y2) in enumerate(zip(x1, x2)):
            if a + b:
                by_length[a + b] = max(by_length[a + b],
                                       np.abs(y1 - y2).max())
    residuals = tuple(float(r) for r in np.maximum.accumulate(by_length[1:]))
    bound = tol.abs * 100
    return EquivalenceReport(residuals[-1] <= bound, residuals[-1], n,
                             residuals, bound, _order_note(n))


# ---------------------------------------------------------------------------
# Inner and faithful processes


def halmos_unitary(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Block unitary of a partial isometry on an extra qubit leg.

    ``U = V⊗|0><0| + (1-VV*)⊗|0><1| + (1-V*V)⊗|1><0| - V*⊗|1><1|``;
    unitarity is an algebraic identity when ``V*V`` is a projection.
    """
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    if v.shape != (n, n):
        raise ValueError("partial isometry must be square")
    vvd = v @ dagger(v)
    vdv = dagger(v) @ v
    _require_within(vdv @ vdv - vdv, tol.abs * (1 + n) * 100,
                    "input is not a partial isometry")
    eye = np.eye(n)
    e00, e01, e10, e11 = (x for _, _, x in matrix_units(2))
    return (np.kron(v, e00) + np.kron(eye - vvd, e01)
            + np.kron(eye - vdv, e10) - np.kron(dagger(v), e11))


def inner_mp_from_kraus(inst: CPInstrument, tol: Tolerance = DEFAULT_TOL,
                        validate: bool = True) -> MeasuringProcess:
    """Measuring process with coupling inside ``𝓜 ⊗ B(K)``.

    Requires every Kraus operator to lie in the algebra. The meter is
    ``C^(N+2) ⊗ C^2`` for N total Kraus operators: one meter slot per
    Kraus operator, one for the initial state, one for the completeness
    defect (zero in the exact case, retained), and a qubit for the block
    unitary. Pointer projections group meter slots by atom; the initial
    slot joins the first atom and the defect slot the last, both with
    zero weight in the induced instrument.
    """
    if validate:
        inst.require_valid(tol)
    dim_h = inst.dim_h
    flat: list[tuple[str, np.ndarray]] = []
    for s in inst.outcomes.labels:
        for k, w in zip(inst.kraus[s], inst.atom_weights(s)):
            if w < 0:
                raise ValueError("instrument carries negative weights")
            kk = np.sqrt(w) * k
            rep = contains(inst.algebra, kk, tol)
            if rep.residual > tol.abs * (1 + dim_h) * 100:
                raise ValueError(
                    f"Kraus operator of atom {s!r} lies outside the algebra "
                    f"(residual {rep.residual:.3e}); a faithful process can "
                    "still be built through the conditional expectation")
            flat.append((s, kk))
    n_tot = len(flat)
    dim_m = n_tot + 2
    defect = np.eye(dim_h) - apply_dual(inst, np.eye(dim_h), None)
    vals = np.linalg.eigvalsh((defect + dagger(defect)) / 2)
    if vals.min() < -tol.psd_slack * (1 + abs(vals).max()) * 100:
        raise ValueError(f"completeness defect is not positive "
                         f"(min eigenvalue {vals.min():.3e})")
    l_op = sqrt_psd(defect, tol)

    # v_op = Σ_n kron(K_n, |n+1><0|), with L = l_op as the last K_n.
    v_op = np.zeros((dim_h, dim_m, dim_h, dim_m), dtype=complex)
    v_op[:, 1:, :, 0] = np.stack([k for _, k in flat] + [l_op], axis=1)
    u = halmos_unitary(v_op.reshape(dim_h * dim_m, -1), tol)
    dim_k = dim_m * 2

    labels = inst.outcomes.labels
    slot_atoms = [labels[0]] + [s for s, _ in flat] + [labels[-1]]
    e = {s: np.kron(np.diag([float(t == s) for t in slot_atoms]), np.eye(2))
         for s in labels}

    sigma = proj(np.kron(basis_vector(dim_m, 0), basis_vector(2, 0)))
    return MeasuringProcess(dim_h, inst.algebra, inst.outcomes, dim_k,
                            sigma, e, u)


def inner_membership(mp: MeasuringProcess, tol: Tolerance = DEFAULT_TOL):
    """Membership report of the coupling in ``𝓜 ⊗ B(K)``."""
    big = tensor_with_full(mp.algebra, mp.dim_k)
    return contains(big, mp.u, tol)


def faithful_mp(inst: CPInstrument, tol: Tolerance = DEFAULT_TOL,
                validate: bool = True) -> MeasuringProcess:
    """Measuring process with a pointer PVM faithful on non-null atoms.

    The instrument is first extended to all of B(H) by composing with
    the conditional expectation onto its algebra; the extension's
    minimal representation is split into ``H ⊗ L₁``, the pointer PVM is
    read off the commutant, and a block unitary on ``L₁ ⊗ C^2`` turns
    the split isometry into a coupling. The induced instrument agrees
    with the input on the algebra exactly, and on the identity for every
    event; an atom's pointer projection vanishes only if the atom has
    zero probability in every state.
    """
    if validate:
        inst.require_valid(tol)
    dim_h = inst.dim_h
    ext_kraus = {}
    for s in inst.outcomes.labels:
        choi = choi_of_dual(lambda x, s=s: apply_dual(
            inst, conditional_expectation(inst.algebra, x), (s,)), dim_h)
        ext_kraus[s] = kraus_from_dual_choi(choi, dim_h, tol)
    # instrument_representation checks the extension, at the caller's tol.
    extended = CPInstrument(dim_h, full_algebra(dim_h), inst.outcomes,
                            ext_kraus, validate=False)
    rep = instrument_representation(extended, tol)

    d1, u1 = multiplicity_split(rep.pi0, tol)
    e1 = commutant_pvm_lift(rep.e0, u1, dim_h, tol)
    v_tilde = u1 @ rep.v
    eta1 = basis_vector(d1, 0)
    w = v_tilde @ dagger(np.kron(np.eye(dim_h), eta1.reshape(-1, 1)))
    u = halmos_unitary(w, tol)

    dim_k = d1 * 2
    sigma = proj(np.kron(eta1, basis_vector(2, 0)))
    e = {s: np.kron(e1[s], np.eye(2)) for s in inst.outcomes.labels}
    return MeasuringProcess(dim_h, inst.algebra, inst.outcomes, dim_k,
                            sigma, e, u)


def faithfulness_table(mp: MeasuringProcess, inst: CPInstrument,
                       tol: Tolerance = DEFAULT_TOL) -> dict[str, dict]:
    """Per-atom faithfulness data: pointer support vs. atom probability."""
    out = {}
    eye = np.eye(inst.dim_h)
    for s in inst.outcomes.labels:
        e_norm = spectral_norm(mp.e[s])
        total = spectral_norm(apply_dual(inst, eye, (s,)))
        null_atom = total <= tol.abs * 100
        out[s] = {
            "pointer_nonzero": bool(e_norm > tol.abs * 100),
            "null_atom": bool(null_atom),
            "faithful": bool(null_atom or e_norm > tol.abs * 100),
        }
    return out
