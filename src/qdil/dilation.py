"""Unitary dilations of CP instruments and measuring processes.

A measuring process is a quadruple (meter space, meter state, pointer
PVM, coupling unitary) whose compressed Heisenberg maps form a CP
instrument. Every instrument reaches a process through its system
(``from_instrument``), on the meter ``C^(1+R)``, R the total minimal
Kraus rank: that system is built from its process and records it, so
the process is read off the record and checked there, where bounds
computed from the record may stand in for the exact checks. Any other
full-algebra system is dilated through its maps, with exact checks
only: its two multiplicity splits ``u1``, ``u2`` give the coupling
``u2 u1*``. The inner process is that of an instrument whose Kraus
operators lie in the algebra, read on all of B(H), so its coupling lies
in ``𝓜 ⊗ B(C^(1+R))``; the faithful process is that of the extension
through the conditional expectation. The reverse direction reads a
process through its correlation system (:func:`system_of_mp`), whose
letter maps ``Π_in(X) = X ⊗ 1`` and ``Π_s(X) = U*(X ⊗ E_s)U`` are stored
by their factors: induced instruments, correlation values and
n-equivalence all evaluate words through those maps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FiniteVonNeumannAlgebra,
    _json_algebra,
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
    _eval_words,
    _process_system,
    _transport,
    eval_W,
    from_instrument,
    induced_instrument,
)
from .instrument import (
    CPInstrument,
    OutcomeSpace,
    _json_outcomes,
    _kraus_mass,
    _minimal_kraus,
    apply_dual,
    choi_of_dual_tensor,
    choi_of_kraus,
    kraus_from_dual_choi,
)
from .operator_core import (
    DEFAULT_TOL,
    Tolerance,
    _EPS,
    _FROBENIUS_MARGIN,
    _frobenius,
    _json_dim,
    _isometry_defects,
    _json_object,
    _kron,
    _pvm_defects,
    _require_within,
    _unitary_defects,
    compress_by_state,
    dagger,
    matrix_from_json,
    matrix_to_json,
    matrix_units,
    proj,
    random_unitary,
    require_state,
    spectral_norm,
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
    "GramTooLarge",
    "n_equivalent",
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
    state. Construction checks the unitary/PVM/state invariants, at the
    default tolerance when ``validate`` is True, at ``validate`` when it
    is a :class:`Tolerance`, not at all when it is False; the
    algebra-closure invariant is checked where the induced instrument is
    actually built (`induced_instrument_mp`), since that is the same
    computation. :meth:`require_valid` runs the three exact checks. A
    process that :func:`mp_from_correlations` reads off a system's
    record is checked there instead (see :func:`_recorded_mp`) and
    carries ``validate=tol``, so a ``dataclasses.replace`` copy is
    checked in full.
    """

    dim_h: int
    algebra: FiniteVonNeumannAlgebra
    outcomes: OutcomeSpace
    dim_k: int
    sigma: np.ndarray = field(repr=False)
    e: dict[str, np.ndarray] = field(repr=False)
    u: np.ndarray = field(repr=False)
    validate: bool | Tolerance = True
    _purified: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        sigma, u = (np.asarray(x, dtype=complex) for x in (self.sigma, self.u))
        e = {s: np.asarray(p, dtype=complex) for s, p in self.e.items()}
        for name, value in (("sigma", sigma), ("u", u), ("e", e)):
            object.__setattr__(self, name, value)
        if self.algebra.dim_h != self.dim_h:
            raise ValueError("algebra dimension does not match dimH")
        if set(e) != set(self.outcomes.labels):
            raise ValueError("pointer PVM labels do not match the outcomes")
        for s, p in e.items():
            if p.shape != (self.dim_k,) * 2:
                raise ValueError(f"pointer projection {s!r} has shape "
                                 f"{p.shape}, expected {(self.dim_k,) * 2}")
        n = self.dim_h * self.dim_k
        if u.shape != (n, n):
            raise ValueError(f"u has shape {u.shape}, expected {(n, n)}")
        if sigma.shape != (self.dim_k, self.dim_k):
            raise ValueError("sigma is not an operator on the meter space")
        if self.validate:
            self.require_valid(Tolerance.of(self.validate))

    def require_valid(self, tol: Tolerance = DEFAULT_TOL) -> None:
        bound = tol.bound("loose")
        _require_within(_unitary_defects(self.u), bound, "u is not unitary")
        _require_within(_pvm_defects(self.e), bound, "e is not a PVM")
        require_state(self.sigma, tol, what="sigma")

    def pointer(self, event) -> np.ndarray:
        return sum((self.e[s] for s in self.outcomes.event(event)),
                   np.zeros((self.dim_k, self.dim_k), dtype=complex))

    def heisenberg(self, m, event) -> np.ndarray:
        """The compressed map ``(id ⊗ sigma)[u*(m ⊗ E(event))u]``."""
        m = np.asarray(m, dtype=complex)
        x = dagger(self.u) @ _kron(m, self.pointer(event)) @ self.u
        return compress_by_state(x, self.sigma, self.dim_h, self.dim_k)

    def _purification(self, tol: Tolerance
                      ) -> tuple["MeasuringProcess", np.ndarray | None]:
        """:meth:`purified` and its meter vector, from one ``eigh`` of sigma.

        The vector is ``None`` when sigma has no eigenvalue above the
        floor; for a mixed sigma it is the normalized purification.
        """
        if tol not in self._purified:  # once per tol; None is self: no cycle
            vals, vecs = np.linalg.eigh((self.sigma + dagger(self.sigma)) / 2)
            keep = vals > tol.bound("floor")
            r = int(np.count_nonzero(keep))
            pure, eta = None, vecs[:, -1] * np.sqrt(vals[-1]) if r else None
            if r > 1:
                phi = vecs[:, keep] * np.sqrt(vals[keep])[None, :]
                eta = phi.reshape(-1)  # index (k, i) row-major = K ⊗ C^r
                eye_r = np.eye(r)
                pure = MeasuringProcess(
                    self.dim_h, self.algebra, self.outcomes, self.dim_k * r,
                    proj(eta), {s: _kron(self.e[s], eye_r) for s in self.e},
                    _kron(self.u, eye_r), validate=False)
                eta = eta / np.linalg.norm(eta)
            self._purified[tol] = pure, eta
        pure, eta = self._purified[tol]
        return self if pure is None else pure, eta

    def purified(self, tol: Tolerance = DEFAULT_TOL) -> "MeasuringProcess":
        """An equivalent process whose meter state is a vector state.

        The meter is enlarged to ``K ⊗ C^r`` (r = rank of sigma), the
        pointer projections and the coupling extend by the identity, and
        the state becomes the standard purification. Returns ``self``
        when sigma is already pure.
        """
        return self._purification(tol)[0]


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
        return _kron(np.asarray(m, dtype=complex), np.eye(self.rank))


def minimal_stinespring(cp_map, dim_h: int, tol: Tolerance = DEFAULT_TOL
                        ) -> MinimalStinespring:
    """Minimal Stinespring data of a CP map in Heisenberg form.

    ``cp_map`` is either Kraus data, a stack or list of operators (the
    map being ``M ↦ Σ K*MK``), or the map's dual Choi matrix. The rank of
    the Choi matrix fixes the multiplicity, ``dimK' = dimH · rank``, and
    ``v = Σ_k kron(K_k, e_k)`` stacks the minimal Kraus family. Kraus
    data reach that family by one SVD of their stack
    (:func:`~qdil.instrument._minimal_kraus`), a Choi matrix by its
    ``eigh``; the two give the same family.
    """
    arr = np.asarray(cp_map, dtype=complex)
    if arr.shape == (dim_h ** 2, dim_h ** 2):
        kraus = kraus_from_dual_choi(arr, dim_h, tol)
    else:
        kraus = _minimal_kraus(arr, dim_h, tol)
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
        """Raise unless π₀ commutes with E₀, ``V*π₀(·)E₀(s)V`` is the
        instrument and the ``π₀(x)E₀(s)Vξ`` span K, each checked over
        every matrix unit; labels or shapes that do not fit ``inst``
        raise first."""
        dim_h, dim_k, labels = inst.dim_h, self.dim_k, inst.outcomes.labels
        if set(self.e0) != set(labels):
            raise ValueError("E₀ labels do not match the outcomes")
        shapes = {f"E₀({s!r})": (np.shape(e), (dim_k, dim_k))
                  for s, e in self.e0.items()}
        shapes["V"] = np.shape(self.v), (dim_k, self.dim_h)
        shapes["π₀"] = (self.pi0.dim_out, self.pi0.dim_in), (dim_k, dim_h)
        for name, (got, want) in shapes.items():
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")
        scale = tol.bound("strict", dim_k)
        units = np.eye(dim_h ** 2).reshape(-1, dim_h, dim_h)
        images = self.pi0.apply(units)  # π₀ of every matrix unit
        for s, e in self.e0.items():
            _require_within(images @ e - e @ images, scale,
                            f"π₀ does not commute with E₀({s!r})")
        # blocks[u, a] = π₀(x_u) E₀(s_a) V for unit x_u and atom s_a.
        pointers = np.stack([self.e0[s] for s in labels])
        blocks = images[:, None] @ pointers @ self.v
        _require_within(dagger(self.v) @ blocks - np.stack(
            [apply_dual(inst, units, (s,)) for s in labels], axis=1),
            scale, "representation does not reconstruct the instrument")
        stacked = blocks.transpose(2, 0, 1, 3).reshape(dim_k, -1)
        sv = np.linalg.svd(stacked, compute_uv=False)
        rank = int(np.count_nonzero(sv > tol.bound("strict", sv[0] if sv.size else 0)))
        if rank != dim_k:
            raise ValueError(f"representation is not minimal: span rank "
                             f"{rank} < dimK {dim_k}")


def _representation_certified(inst: CPInstrument, kraus: np.ndarray,
                              owner: np.ndarray, tol: Tolerance) -> bool:
    """Whether :meth:`InstrumentRepresentation.require_valid` accepts the
    representation :func:`instrument_representation` stacks from the SVD
    families ``kraus`` (operator m of atom ``owner[m]``), read off their
    spectra, for an instrument whose weights are nonnegative.

    π₀ = X ⊗ 1 commutes with E₀(s) = 1 ⊗ P_s exactly. Atom s's misfit
    ``V*π₀(·)E₀(s)V − I(·, s)`` is the map of the singular values its SVD
    dropped: a PSD Choi matrix whose trace, the atom's ``_kraus_mass``
    less its family's ``Σ‖K_m‖²_F``, bounds each ``‖misfit(e_ij)‖``. The
    span's Gram is ``1 ⊗ (⊕ G_s)``, G_s the Hilbert–Schmidt Gram of atom
    s's family, diagonal up to rounding since its singular vectors are
    orthonormal; so the exact SVD's singular values are the ``‖K_m‖_F``.
    Each figure allows for the rounding of the SVD and of the exact
    check's products, and clears at half of that check's bound.
    """
    labels = inst.outcomes.labels
    dim_k = inst.dim_h * len(kraus)
    fuzz = 16 * (dim_k + inst.dim_h ** 2) * _EPS
    squares = (np.abs(kraus) ** 2).sum(axis=(1, 2))
    kept = np.bincount(owner, squares, len(labels))
    mass = np.array([_kraus_mass(inst, s) for s in labels])
    slack = fuzz * squares.sum()
    low = math.sqrt(max(squares.min() - slack, 0.0))
    high = math.sqrt(squares.max() + slack)
    return bool((mass - kept + fuzz * (mass + kept)).max()
                <= tol.bound("strict", dim_k) / 2
                and low > 2 * tol.bound("strict", high)
                + 16 * dim_k * _EPS * high)


def instrument_representation(inst: CPInstrument,
                              tol: Tolerance = DEFAULT_TOL
                              ) -> InstrumentRepresentation:
    """Direct sum of per-atom minimal Stinespring dilations on
    ``K = H ⊗ C^R``, R the total minimal Kraus rank.

    The atoms' minimal Kraus families take consecutive meter indices in
    outcome order: ``Vξ = Σ_m K_m ξ ⊗ e_m``, π₀(X) = X ⊗ 1 is stored with
    identity factors, and ``E₀(s) = 1 ⊗ P_s``, P_s the diagonal projection
    onto atom s's indices (zero for a null atom). An atom's family comes
    from one SVD of its Kraus stack scaled by ``√w`` when its weights are
    nonnegative, else from its Choi matrix. The input is checked; the
    result is accepted from its SVD spectra by
    :func:`_representation_certified`, and otherwise, or on a negative
    weight, :meth:`InstrumentRepresentation.require_valid` decides.
    """
    inst.require_valid(tol)
    dim_h, labels = inst.dim_h, inst.outcomes.labels
    weights = {s: inst.atom_weights(s) for s in labels}
    parts = {s: minimal_stinespring(
        np.sqrt(w)[:, None, None] * inst.kraus[s] if np.all(w >= 0)
        else choi_of_kraus(inst.kraus[s], dim_h, w), dim_h, tol)
        for s, w in weights.items()}
    ranks = {s: parts[s].rank for s in labels}
    kraus = np.concatenate([parts[s].kraus for s in labels])
    r = len(kraus)
    if not r:
        raise ValueError(
            f"the rank cut-off strict(λ_max) = {tol.abs:.3g}·(1 + λ_max) "
            "drops every Kraus operator: no meter is left at this tolerance")
    owner = np.repeat(np.arange(len(labels)), list(ranks.values()))
    eye = np.eye(dim_h * r)
    e0 = {s: _kron(np.eye(dim_h), np.diag((owner == i).astype(complex)))
          for i, s in enumerate(labels)}
    v = kraus.transpose(1, 0, 2).reshape(dim_h * r, dim_h)
    rep = InstrumentRepresentation(dim_h, dim_h * r,
                                   PiMap.factored(eye, eye, r), e0, v, ranks)
    if not (all(np.all(w >= 0) for w in weights.values())
            and _representation_certified(inst, kraus, owner, tol)):
        rep.require_valid(inst, tol)
    return rep


# ---------------------------------------------------------------------------
# Splitting a representation of B(H) and reading off commutant data


def multiplicity_split(pi: PiMap, tol: Tolerance = DEFAULT_TOL
                       ) -> tuple[int, np.ndarray]:
    """Split a unital representation of B(H) as ``π(X) = U₁*(X ⊗ 1)U₁``.

    Returns ``(dimK, u1)`` with ``u1`` a unitary from the representation
    space onto ``H ⊗ C^dimK``, assembled by propagating an orthonormal
    basis of the range of ``π(|0><0|)`` with the partial isometries
    ``π(|i><0|)``; the basis and the split are checked at
    ``loose(dimL)``.
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
    scale = tol.bound("loose", dim_l)
    _require_within(_isometry_defects(w), scale,
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

    Each projection must commute with ``u2*(X ⊗ 1)u2`` for every matrix
    unit X; then ``t = u2 P u2*`` has the form ``1 ⊗ E₀`` and ``E₀`` is
    recovered by partial trace over the first leg. Each atom in turn is
    swept over the matrix units and checked for that form, then the
    recovered family is checked to be a PVM, each at ``loose(dimL)``.
    """
    dim_l = u2.shape[0]
    if dim_l % dim_h != 0:
        raise ValueError("split dimensions do not divide")
    dim_k = dim_l // dim_h
    scale = tol.bound("loose", dim_l)
    ps = np.stack([np.asarray(p, dtype=complex) for p in pi_vals.values()])
    # t = u2 p u2* read as 1 ⊗ E₀, E₀ its partial trace over the first leg.
    t = (u2 @ ps @ dagger(u2)).reshape(-1, dim_h, dim_k, dim_h, dim_k)
    e0s = np.einsum("nakal->nkl", t) / dim_h
    d = (t - np.eye(dim_h)[:, None, :, None] * e0s[:, None, :, None]
         ).reshape(-1, dim_l, dim_l)
    # u2*(x ⊗ 1)u2 for every matrix unit x, as a stack.
    transported = _transport(dagger(u2), u2, dim_k).transpose(
        2, 3, 0, 1).reshape(-1, dim_l, dim_l)
    for i, s in enumerate(pi_vals):
        _require_within(ps[i] @ transported - transported @ ps[i], scale,
                        f"projection {s!r} does not commute with the "
                        "transported algebra")
        _require_within(d[i], scale, f"transported projection {s!r} is not "
                        "of the form 1 ⊗ (·)")
    out = dict(zip(pi_vals, e0s))
    _require_within(_pvm_defects(out), scale, "lifted family is not a PVM")
    return out


def intertwiner_vector(v: np.ndarray, tol: Tolerance = DEFAULT_TOL
                       ) -> np.ndarray:
    """Extract η from an intertwining isometry ``V ξ = ξ ⊗ η``.

    The vector is read off the image of the first basis vector and
    re-phased so its first significant component is real positive. V
    must intertwine every matrix unit, and the product form is verified
    against the raw (un-phased) extraction, so the check is phase-free;
    each at ``loose(dimL)``.
    """
    v = np.asarray(v, dtype=complex)
    dim_h = v.shape[1]
    if v.shape[0] % dim_h != 0:
        raise ValueError("isometry shape does not factor over the system")
    dim_l1 = v.shape[0] // dim_h
    scale = tol.bound("loose", v.shape[0])
    for _, _, x in matrix_units(dim_h):
        _require_within(_kron(x, np.eye(dim_l1)) @ v - v @ x, scale,
                        "V does not intertwine the system action")
    eta_raw = v[:dim_l1, 0]
    _require_within(v - _kron(np.eye(dim_h), eta_raw.reshape(-1, 1)), scale,
                    "V is not of the form ξ ↦ ξ ⊗ η")
    norm = np.linalg.norm(eta_raw)
    if abs(norm - 1.0) > scale:
        raise ValueError("extracted vector is not normalized")
    eta = eta_raw / norm
    mags = np.abs(eta)
    lead = int(np.argmax(mags >= mags.max() * 1e-6))
    return eta * (eta[lead] / abs(eta[lead])).conjugate()


# ---------------------------------------------------------------------------
# Correlation system -> measuring process


def mp_from_correlations(sys: CorrelationSystem,
                         tol: Tolerance = DEFAULT_TOL,
                         completion_seed: int | None = None
                         ) -> MeasuringProcess:
    """Build a measuring process reproducing a full-algebra system.

    A system that :func:`_process_system` built from a process
    ``(U, E, η)``, as :func:`from_instrument` and :func:`system_of_mp`
    build theirs, records it, and the result is that process, checked by
    :func:`_recorded_mp`.

    Any other system (tensor-stored, loaded from JSON, rebuilt by
    :func:`from_kernel_table`, or a ``dataclasses.replace`` copy) is
    dilated through its maps. Both the input letter map and the summed
    atom map are unital representations of B(H) on the same space, so
    their multiplicity splits ``Π_in(X) = u1*(X ⊗ 1)u1`` and
    ``ΣΠ_s(X) = u2*(X ⊗ 1)u2`` share one multiplicity space C^d. In the
    frame of ``u1`` the system is the process with meter C^d, meter state
    η₁ (``u1 v ξ = ξ ⊗ η₁`` up to a phase), pointer PVM E₀
    (``u2 Π_s(1) u2* = 1 ⊗ E₀(s)``) and coupling ``U = u2 u1*``: ``u1``
    carries every letter map and ``v`` onto the process's, so the two
    are completely equivalent. The splits, the lift and η₁ are checked
    at ``loose(dimL)``, the process by
    :meth:`MeasuringProcess.require_valid` at ``loose``, and six random
    words, evaluated on both, must agree within ``loose(dimH·d)``; every
    one of these checks is exact.

    ``completion_seed`` multiplies U by ``1 ⊗ W`` for a seeded unitary W
    that fixes η, which no word can see; when d = 1 there is nothing to
    rotate.
    """
    if not sys.algebra.is_full:
        raise ValueError("construction requires the full matrix algebra")
    if "_process" in vars(sys):
        return _recorded_mp(sys, tol, completion_seed)
    d1, u1 = multiplicity_split(sys.pi_in, tol)
    d2, u2 = multiplicity_split(sys.letter_map(sys.outcomes.labels), tol)
    if d1 != d2:
        raise ValueError("splitting dimensions disagree; the letter maps "
                         "do not act on a common space")
    e0 = commutant_pvm_lift(sys.atom_units(), u2, sys.dim_h, tol)
    eta = intertwiner_vector(u1 @ sys.v, tol)
    u, _ = _completed(u2 @ dagger(u1), eta, sys.dim_h, completion_seed)
    mp = MeasuringProcess(sys.dim_h, sys.algebra, sys.outcomes, len(eta),
                          proj(eta), e0, u, validate=tol)
    _spot_check(sys, mp, tol)
    return mp


def _recorded_mp(sys: CorrelationSystem, tol: Tolerance,
                 completion_seed: int | None = None) -> MeasuringProcess:
    """:func:`mp_from_correlations` of a system that records its process
    ``(U, E, η)``: the process ``(U(1 ⊗ W), E, proj(η))``.

    It is checked here, at ``loose`` as
    :meth:`MeasuringProcess.require_valid` checks a process, and carries
    ``validate=tol``. U's unitarity is checked exactly. E's PVM check runs
    when the Frobenius norms of one stacked product of E
    (:func:`_pvm_frobenius`) do not clear it, σ's state check when
    proj(η)'s rounding floor or trace does not, and the six spot words
    when :func:`_record_spot_bound` is not within half of their bound.
    """
    u, e, eta = sys._process
    dim_h, d = sys.dim_h, len(eta)
    u, w = _completed(u, eta, dim_h, completion_seed)
    sigma = proj(eta)
    mp = MeasuringProcess(dim_h, sys.algebra, sys.outcomes, d, sigma, e, u,
                          validate=False)
    bound = tol.bound("loose")
    _require_within(_unitary_defects(mp.u), bound, "u is not unitary")
    pvm = _pvm_frobenius(np.stack([e[s] for s in sys.outcomes.labels]))
    if not pvm <= bound * _FROBENIUS_MARGIN:
        _require_within(_pvm_defects(mp.e), bound, "e is not a PVM")
    # proj(η) comes out Hermitian bit for bit, and rounding moves its
    # eigenvalues off {1, 0, …} by a few ulps; the floor allows for
    # eigvalsh's own error too.
    floor = math.inf if (sigma - dagger(sigma)).any() else 16 * (d + 1) * _EPS
    trace = abs(complex(np.trace(sigma)) - 1.0)
    if not (floor <= tol.bound("psd") / 2 and trace <= tol.bound("trace")):
        require_state(sigma, tol, what="sigma")
    object.__setattr__(mp, "validate", tol)
    _spot_check(sys, mp, tol, _record_spot_bound(mp, eta, pvm, w, tol))
    return mp


def _completed(u: np.ndarray, eta: np.ndarray, dim_h: int,
               completion_seed: int | None
               ) -> tuple[np.ndarray, np.ndarray | None]:
    """``(u·(1 ⊗ W), W)`` for the seeded unitary W that fixes ``eta``, or
    ``(u, None)`` without a seed or when d = 1."""
    d = len(eta)
    if completion_seed is None or d == 1:
        return u, None
    # W = |η><η| + P R P*, P an orthonormal basis of η^⊥.
    q, _ = np.linalg.qr(np.column_stack([eta, np.eye(d)]))
    perp = q[:, 1:]
    rot = random_unitary(np.random.default_rng(completion_seed), d - 1)
    w = proj(eta) + perp @ rot @ dagger(perp)
    return u @ _kron(np.eye(dim_h), w), w


def _spot_check(sys: CorrelationSystem, mp: MeasuringProcess,
                tol: Tolerance, spot: float = math.inf) -> None:
    """Raise unless ``mp`` reproduces the six spot words' values of
    ``sys`` within ``loose(dimH·d)``; the words run unless ``spot``, a
    bound on their residual, is within half of that."""
    bound = tol.bound("loose", mp.dim_h * mp.dim_k)
    if not spot <= bound / 2:
        words, _, _ = _spot_words(mp.dim_h, len(mp.outcomes.labels))
        _require_within(_spot_residuals(sys, mp, words, tol), bound,
                        "constructed process fails to reproduce the "
                        "correlation values")


def _pvm_frobenius(es: np.ndarray) -> float:
    """The largest Frobenius norm of a stacked family's PVM defects, from
    one stacked product: it gives every ``E_i E_j``, a superset of
    :func:`_pvm_defects`' pairs i < j, and on its diagonal ``E_i² − E_i``."""
    n, dim = es.shape[:2]
    prods = (es[:, None] @ es[None]).reshape(n * n, dim, dim)
    prods[::n + 1] -= es
    return float(_frobenius(np.concatenate([
        prods, es - es.conj().transpose(0, 2, 1),
        [es.sum(axis=0) - np.eye(dim)]])).max())


def _record_spot_bound(mp: MeasuringProcess, eta: np.ndarray, pvm: float,
                       w: np.ndarray | None, tol: Tolerance) -> float:
    """A bound on the spot residual of ``mp``, the process built from a
    system's record ``(U, E, η)`` and W (None without one), once ``mp``
    passed its check; ``pvm`` bounds E's PVM defects.

    Let ``J = 1 ⊗ W``. The process's atom maps are the system's
    conjugated by J, its input map ``X ⊗ 1`` is ``J*(X ⊗ 1)J`` up to
    ``X ⊗ (W*W − 1)``, and its system's v is ``1 ⊗ η′``, η′ the vector
    σ purifies to. So a word's values differ by at most
    ``A(‖W‖‖η′‖ + ‖η‖)(‖W‖δ + ζ)`` for ``δ = min_c ‖cη′ − η‖`` over
    phases c and ``ζ = ‖Wη − η‖``, A bounding the word's letter
    products: each letter is within ``x‖W‖²·max(1, ‖U‖²‖E_s‖)``, x the
    words' largest operator norm. ``‖U‖²`` is within ``(1 + loose)/(1 −
    ω)`` by the passed unitarity check, ω W's unitarity defect in
    Frobenius norm, and ``‖E‖² ≤ ‖E‖ + ‖E² − E‖ + ‖E* − E‖‖E‖`` gives
    ``‖E_s‖ ≤ (1 + f + √((1 + f)² + 4f))/2`` for f = ``pvm``. W's
    defects, the rounding of ``U(1 ⊗ W)`` and of both evaluations add
    at most ``(ℓ + 1)(3ω + 4·dimL²·ε)(‖η′‖² + ‖η‖²)A`` over words of
    length ≤ ℓ, x and ℓ read off :func:`_spot_words`. Infinite when σ
    does not purify to one vector.
    """
    _, norm, length = _spot_words(mp.dim_h, len(mp.outcomes.labels))
    pure, eta_p = mp._purification(tol)
    fuzz = 4 * (mp.dim_h * mp.dim_k) ** 2 * _EPS
    omega = zeta = 0.0
    if w is not None:
        omega = float(_frobenius([*_unitary_defects(w)]).max())
        zeta = float(np.linalg.norm(w @ eta - eta))
    if pure is not mp or eta_p is None or not omega + fuzz < 0.5:
        return math.inf
    w2 = 1 + omega  # ‖W‖²
    u2 = (1 + tol.bound("loose") + fuzz) / (1 - omega - fuzz)
    e_norm = (1 + pvm + math.sqrt((1 + pvm) ** 2 + 4 * pvm)) / 2
    reach = (w2 * max(1.0, u2 * e_norm) * norm) ** length  # A
    overlap = complex(np.vdot(eta_p, eta))
    phase = overlap / abs(overlap) if overlap else 1.0
    delta, nu, n_eta = (math.sqrt(np.vdot(x, x).real)
                        for x in (phase * eta_p - eta, eta_p, eta))
    moved = (math.sqrt(w2) * nu + n_eta) * (math.sqrt(w2) * delta + zeta)
    rounding = (length + 1) * (3 * omega + fuzz) * (nu ** 2 + n_eta ** 2)
    return reach * (moved + rounding)


@functools.lru_cache(maxsize=64)
def _spot_words(dim_h: int, n_atoms: int
                ) -> tuple[tuple[tuple[tuple[int, ...], np.ndarray], ...],
                           float, int]:
    """The spot check's six words from the seeded stream, drawn once.

    Each word is its letter indices (0 the input letter, ``1 + i`` atom
    i) and its read-only operators ``1 + 0.3·diag(z)``; also returned
    are the largest operator norm (at least 1) and the longest length.
    """
    rng = np.random.default_rng(7)
    words = []
    for _ in range(6):
        length = int(rng.integers(1, 3))
        letters = tuple(int(rng.integers(1 + n_atoms)) for _ in range(length))
        ms = np.stack([np.eye(dim_h) + 0.3 * np.diag(rng.standard_normal(
            dim_h)) for _ in range(length)])
        ms.setflags(write=False)
        words.append((letters, ms))
    norm = max(1.0, *(float(np.abs(np.diagonal(ms, axis1=1, axis2=2)).max())
                      for _, ms in words))
    return tuple(words), norm, max(len(letters) for letters, _ in words)


def _spot_residuals(sys: CorrelationSystem, mp: MeasuringProcess, words,
                    tol: Tolerance) -> np.ndarray:
    """The value differences of ``words`` between ``mp`` and ``sys``."""
    alphabet = [IN, *sys.outcomes.labels]
    batch = [([alphabet[i] for i in letters], ms) for letters, ms in words]
    return _eval_words(_system_of(mp, tol), batch) - _eval_words(sys, batch)


# ---------------------------------------------------------------------------
# Measuring process -> correlation system, instrument and values


def _system_of(mp: MeasuringProcess, tol: Tolerance) -> CorrelationSystem:
    """:func:`system_of_mp`, unchecked."""
    pure, eta = mp._purification(tol)
    if eta is None:
        raise ValueError("sigma is not a vector state")
    return _process_system(mp.dim_h, mp.algebra, mp.outcomes, pure.u, pure.e,
                           eta)


def system_of_mp(mp: MeasuringProcess, tol: Tolerance = DEFAULT_TOL
                 ) -> CorrelationSystem:
    """The correlation system carried by a measuring process, checked.

    The meter state is purified (see :meth:`MeasuringProcess.purified`),
    so the space is ``H ⊗ K_pure`` and ``v ξ = ξ ⊗ η``. The letter maps
    ``Π_in(X) = X ⊗ 1`` and ``Π_s(X) = U*(X ⊗ 1)·(1 ⊗ E_s)U`` are stored
    by these factors, and the system keeps the purified process as its
    record (see :func:`mp_from_correlations`). The functions below read a
    process through the same system, unchecked.
    """
    sys = _system_of(mp, tol)
    sys.require_valid(tol)
    # A dataclasses.replace copy would drop the record.
    object.__setattr__(sys, "validate", tol)
    return sys


def induced_instrument_mp(mp: MeasuringProcess, tol: Tolerance = DEFAULT_TOL
                          ) -> CPInstrument:
    """Extract the CP instrument ``M, Δ ↦ (id ⊗ σ)[U*(M ⊗ E(Δ))U]``.

    This is :func:`induced_instrument` of the process's system: each
    atom's Heisenberg map is the compression of its letter map by the
    cyclic isometry, ``X ↦ A*(X ⊗ E_s)A`` with ``A = U(1 ⊗ η)`` (σ
    purified to η). For a projection ``E_s`` that is ``B*(X ⊗ 1)B`` with
    ``B = (1 ⊗ E_s)A``, so the meter blocks of B are Kraus operators and
    one SVD of them gives the minimal family
    (:func:`~qdil.instrument._minimal_kraus`). The two maps differ by
    ``A*(X ⊗ (E_s − E_s*E_s))A``, whose Choi matrix is at most
    ``‖A‖_F² ‖E_s − E_s*E_s‖_F``; that route runs while this is at most
    half of ``psd``, where the compression's Choi matrix could not be
    rejected as non-CP. Otherwise, and whenever its result fails
    :func:`verify_cp`, the compression's Choi matrix decides, with its
    own message. Raises when a compressed value leaves the algebra
    (closure violation).
    """
    pure, eta = mp._purification(tol)
    if eta is not None:
        dim_h, dim_k = pure.dim_h, pure.dim_k
        # a[i, k, j] = A[(i, k), j]
        a = (pure.u.reshape(-1, dim_h, dim_k) @ eta).reshape(dim_h, dim_k,
                                                             dim_h)
        es = np.stack(list(pure.e.values()))
        spill = _frobenius([a])[0] ** 2 * _frobenius(
            es - es.conj().transpose(0, 2, 1) @ es).max()
        if spill <= tol.bound("psd") / 2:
            kraus = {s: _minimal_kraus((pure.e[s] @ a).transpose(1, 0, 2),
                                       dim_h, tol)
                     for s in mp.outcomes.labels}
            try:
                return CPInstrument(dim_h, mp.algebra, mp.outcomes, kraus,
                                    validate=tol)
            except ValueError:
                pass  # the compression's own verdict and message follow
    return induced_instrument(_system_of(mp, tol), tol)


def correlations_of_mp(mp: MeasuringProcess, t: TimeWord, ms,
                       tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Correlation value of a word: :func:`eval_W` on the process's system."""
    return eval_W(_system_of(mp, tol), t, ms, tol, check_membership=False)


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


# The most bytes one array of _gram_blocks may take. The tests, the golden
# replay and the benchmark stay under 3 MB, 4/4/3 at order 4 takes about
# 133 MB, and dimH = 8 at order 4 would need 7.3 GB.
_GRAM_BUDGET = 1 << 29


class GramTooLarge(MemoryError):
    """The word values of :func:`n_equivalent` would exceed the budget."""

    def __init__(self, estimate: int) -> None:
        super().__init__(f"the word values of this order need arrays of "
                         f"about {estimate} bytes, over the budget of "
                         f"{_GRAM_BUDGET}")
        self.estimate, self.budget = estimate, _GRAM_BUDGET


def _order_note(n: int) -> str:
    return "statistical equivalence" if n == 2 else ""


def _gram_blocks(mp: MeasuringProcess, ops: np.ndarray, n: int,
                 tol: Tolerance):
    """Values of every word of length ≤ n, split as prefix · suffix.

    The words are read through the letter maps of the process's system
    (see :func:`system_of_mp`), ``Π_t(X) = left_t (X ⊗ 1) right_t``. A
    word ``X_1···X_ℓ`` has the value ``⟨(X_1···X_a)* v, (X_{a+1}···X_ℓ) v⟩``
    with ``v`` the cyclic isometry. The prefix states ``(X_1···X_a)* v``
    for a ≤ ⌊n/2⌋ are stacked into ``P`` (ordered by length);
    ``Π_t(m)* = Π_t(m*)`` since every pointer projection is Hermitian.
    Suffix words of length ≤ ⌈n/2⌉ are walked depth first, and each node
    yields ``(b, blocks)``: ``b`` the length of its children's suffixes
    and ``blocks[a][w, p]`` the dimH×dimH value of the p-th prefix of
    length a followed by child w. A child's values are
    ``(left_t* P)* (m ⊗ 1)(right_t s)`` for the parent state s, so leaf
    states are never formed; the root first yields its own values with
    ``b = 0``. Letters run over the input and the atoms, operators over
    ``ops``.
    """
    sys = _system_of(mp, tol)
    maps = [sys.pi_in] + [sys.pi_atom[s] for s in mp.outcomes.labels]
    dim_h, dim, dim_k = sys.dim_h, sys.dim_l, sys.pi_in.factors[2]
    half = n // 2
    # The largest arrays, by their shapes below: a node's Gram blocks g
    # (maps × dimH·width × dimH²) or the frames (maps × dimH·width × dimK),
    # 16 bytes per entry; estimated before anything is allocated.
    width = dim_h * sum((len(maps) * len(ops)) ** a for a in range(half + 1))
    estimate = 16 * len(maps) * dim_h * width * max(dim_h ** 2, dim_k)
    if estimate > _GRAM_BUDGET:
        raise GramTooLarge(estimate)
    v = sys.v

    def children(ms, states):
        # Every letter map with every operator of ms, input letter first:
        # columns ordered (letter, operator, column of states).
        kids = np.stack([pm.push(ms, states) for pm in maps])
        return np.moveaxis(kids, 2, 0).reshape(dim, -1)

    level, levels = v, [v]
    for _ in range(half):
        level = children(ops.conj().transpose(0, 2, 1), level)
        levels.append(level)
    lstack = np.concatenate(levels, axis=1)
    splits = np.cumsum([lv.shape[1] // dim_h for lv in levels])[:-1]
    width = lstack.shape[1]
    # Each letter's conjugated prefix frame left_t* P, rows (i, column of
    # P) against the meter index k.
    frames = np.stack([
        (pm.factors[0].T @ lstack.conj()).reshape(dim_h, dim_k, width)
        .transpose(0, 2, 1).reshape(-1, dim_k) for pm in maps])

    def block(vals, cols):
        # (children, prefixes·dimH, cols) -> per prefix length
        # (children, prefixes, dimH, cols)
        return np.split(vals.reshape(len(vals), -1, dim_h, cols), splits,
                        axis=1)

    def child_blocks(s):
        # ⟨f_i, (m ⊗ 1) w_j⟩ = Σ_k conj(f[i, k]) w[j, k] m[i, j]: one
        # product over the meter leg, then the operators over (i, j).
        cols = s.shape[1]
        ws = np.stack([pm.factors[1] @ s for pm in maps]).reshape(
            len(maps), dim_h, dim_k, cols).transpose(0, 2, 1, 3)
        g = (frames @ ws.reshape(len(maps), dim_k, -1)).reshape(
            len(maps), dim_h, width, dim_h, cols)
        vals = np.einsum("mij,tiqjb->tmqb", ops, g, optimize=True)
        return block(vals.reshape(-1, width, cols), cols)

    def walk(s, depth):
        yield depth + 1, child_blocks(s)
        if depth + 1 < n - half:
            kids = children(ops, s).reshape(dim, -1, s.shape[1])
            for k in range(kids.shape[1]):
                yield from walk(kids[:, k], depth + 1)

    yield 0, block((lstack.conj().T @ v)[None], dim_h)
    yield from walk(v, 0)


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
    bound = tol.bound("loose")
    return EquivalenceReport(residuals[-1] <= bound, residuals[-1], n,
                             residuals, bound, _order_note(n))


# ---------------------------------------------------------------------------
# Inner and faithful processes


def _canonical_mp(inst: CPInstrument, algebra: FiniteVonNeumannAlgebra,
                  tol: Tolerance) -> MeasuringProcess:
    """The process of ``inst`` read on all of B(H), carrying ``algebra``:
    the process :func:`from_instrument`'s system records, checked as
    :func:`mp_from_correlations` checks it, whatever algebra the Kraus
    data belongs to."""
    mp = _recorded_mp(from_instrument(inst, tol=tol), tol)
    # replace() would re-check what _recorded_mp just checked.
    object.__setattr__(mp, "algebra", algebra)
    return mp


def inner_mp_from_kraus(inst: CPInstrument, tol: Tolerance = DEFAULT_TOL
                        ) -> MeasuringProcess:
    """Measuring process with coupling inside ``𝓜 ⊗ B(K)``.

    Requires every Kraus operator to lie in the algebra. The process is
    the one ``dilate`` writes (:func:`from_instrument`, then
    :func:`mp_from_correlations`) for the instrument read on all of
    B(H), carrying the input's algebra; its meter is ``C^(1+R)``, R the
    total minimal Kraus rank. The minimal Kraus operators span the given
    ones, so the block coupling lies in ``𝓜 ⊗ B(C^(1+R))``.
    """
    inst.require_valid(tol)
    for s in inst.outcomes.labels:
        for k, w in zip(inst.kraus[s], inst.atom_weights(s)):
            if w < 0:
                raise ValueError("instrument carries negative weights")
            rep = contains(inst.algebra, np.sqrt(w) * k, tol)
            if rep.residual > tol.bound("loose", inst.dim_h):
                raise ValueError(
                    f"Kraus operator of atom {s!r} lies outside the algebra "
                    f"(residual {rep.residual:.3e}); a faithful process can "
                    "still be built through the conditional expectation")
    return _canonical_mp(inst, inst.algebra, tol)


def inner_membership(mp: MeasuringProcess, tol: Tolerance = DEFAULT_TOL):
    """Membership report of the coupling in ``𝓜 ⊗ B(K)``."""
    big = tensor_with_full(mp.algebra, mp.dim_k)
    return contains(big, mp.u, tol)


def faithful_mp(inst: CPInstrument, tol: Tolerance = DEFAULT_TOL
                ) -> MeasuringProcess:
    """Measuring process with a pointer PVM faithful on non-null atoms.

    The instrument is first extended to all of B(H) by composing with
    the conditional expectation onto its algebra; the result is the
    process of the extension's correlation system
    (:func:`from_instrument`, then :func:`mp_from_correlations`), on the
    input's algebra. Its meter is ``C^(1+R)``, R the total minimal Kraus
    rank of the extension. The induced instrument agrees with the input
    on the algebra exactly, and on the identity for every event; an
    atom's pointer projection vanishes only if the atom has zero
    probability in every state.
    """
    inst.require_valid(tol)
    dim_h = inst.dim_h
    units = conditional_expectation(
        inst.algebra, np.eye(dim_h ** 2).reshape(-1, dim_h, dim_h))
    ext_kraus = {}
    for s in inst.outcomes.labels:
        # dual[a, b, i, j] = I(E(e_ij), s)[a, b]
        dual = np.moveaxis(apply_dual(inst, units, (s,)), 0, -1)
        ext_kraus[s] = kraus_from_dual_choi(
            choi_of_dual_tensor(dual.reshape((dim_h,) * 4)), dim_h, tol)
    extended = CPInstrument(dim_h, full_algebra(dim_h), inst.outcomes,
                            ext_kraus, validate=tol)
    return _canonical_mp(extended, inst.algebra, tol)


def faithfulness_table(mp: MeasuringProcess, inst: CPInstrument,
                       tol: Tolerance = DEFAULT_TOL) -> dict[str, dict]:
    """Per-atom faithfulness data: pointer support vs. atom probability."""
    out = {}
    eye = np.eye(inst.dim_h)
    for s in inst.outcomes.labels:
        e_norm = spectral_norm(mp.e[s])
        total = spectral_norm(apply_dual(inst, eye, (s,)))
        null_atom = total <= tol.bound("loose")
        out[s] = {
            "pointer_nonzero": bool(e_norm > tol.bound("loose")),
            "null_atom": bool(null_atom),
            "faithful": bool(null_atom or e_norm > tol.bound("loose")),
        }
    return out
