"""Unitary dilations of CP instruments and measuring processes.

A measuring process is a quadruple (meter space, meter state, pointer
PVM, coupling unitary) whose compressed Heisenberg maps form a CP
instrument. A correlation system's two multiplicity splits ``u1``,
``u2`` give the coupling ``u2 u1*``; every instrument reaches a process
by this one chain from its system (``from_instrument``), on the meter
``C^(1+R)``, R the total minimal Kraus rank. The inner process runs it
on an instrument whose Kraus operators lie in the algebra, read on all
of B(H), so its coupling lies in ``𝓜 ⊗ B(C^(1+R))``; the faithful
process runs it on the extension through the conditional expectation.
The reverse direction reads a process through its correlation system
(:func:`system_of_mp`), whose letter maps ``Π_in(X) = X ⊗ 1`` and
``Π_s(X) = U*(X ⊗ E_s)U`` are stored by their factors: induced
instruments, correlation values and n-equivalence all evaluate words
through those maps.
"""

from __future__ import annotations

import dataclasses
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
    _within,
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
class _ProcessBounds:
    """Upper bounds on :meth:`MeasuringProcess.require_valid`'s residuals.

    ``unitarity`` bounds ``‖U*U − 1‖`` and ``‖UU* − 1‖`` as the check
    computes them, rounding included, and clears at half the bound.
    ``pvm`` is the largest Frobenius norm of the pointer's PVM defects,
    which clears where :func:`norm_within` would accept it. A sigma of
    the form ``proj(η)`` is exactly Hermitian, its eigenvalues lie
    within ``psd_floor`` of {1, 0, …}, and ``trace`` is its trace defect
    as :func:`is_density_matrix` computes it. Infinite or NaN fields
    clear nothing.
    """

    unitarity: float = math.inf
    pvm: float = math.inf
    trace: float = math.inf
    psd_floor: float = math.inf

    def state(self, tol: Tolerance) -> bool:
        return (self.psd_floor <= tol.bound("psd") / 2
                and self.trace <= tol.bound("trace"))


_NO_BOUNDS = _ProcessBounds()


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
    computation. A process built by :func:`mp_from_correlations` carries
    bounds on these residuals from the defects its chain measured, and
    :meth:`require_valid` skips each check its bound clears; the bounds
    belong to that instance, so a ``dataclasses.replace`` is checked in
    full.
    """

    dim_h: int
    algebra: FiniteVonNeumannAlgebra
    outcomes: OutcomeSpace
    dim_k: int
    sigma: np.ndarray = field(repr=False)
    e: dict[str, np.ndarray] = field(repr=False)
    u: np.ndarray = field(repr=False)
    validate: bool | Tolerance = True

    def __post_init__(self) -> None:
        sigma, u = (np.asarray(x, dtype=complex) for x in (self.sigma, self.u))
        e = {s: np.asarray(p, dtype=complex) for s, p in self.e.items()}
        for name, value in (("sigma", sigma), ("u", u), ("e", e)):
            object.__setattr__(self, name, value)
        if set(e) != set(self.outcomes.labels):
            raise ValueError("pointer PVM labels do not match the outcomes")
        n = self.dim_h * self.dim_k
        if u.shape != (n, n):
            raise ValueError(f"u has shape {u.shape}, expected {(n, n)}")
        if sigma.shape != (self.dim_k, self.dim_k):
            raise ValueError("sigma is not an operator on the meter space")
        if self.validate:
            self.require_valid(Tolerance.of(self.validate))

    def require_valid(self, tol: Tolerance = DEFAULT_TOL) -> None:
        bound = tol.bound("loose")
        known = self.__dict__.get("_bounds", _NO_BOUNDS)
        if not known.unitarity <= bound / 2:
            _require_within(_unitary_defects(self.u), bound,
                            "u is not unitary")
        if not known.pvm <= bound * _FROBENIUS_MARGIN:
            _require_within(_pvm_defects(self.e), bound, "e is not a PVM")
        if not known.state(tol):
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
        vals, vecs = np.linalg.eigh((self.sigma + dagger(self.sigma)) / 2)
        keep = vals > tol.bound("floor")
        r = int(np.count_nonzero(keep))
        if r <= 1:
            return self, vecs[:, -1] * np.sqrt(vals[-1]) if r else None
        phi = vecs[:, keep] * np.sqrt(vals[keep])[None, :]
        eta = phi.reshape(-1)  # index (k, i) row-major = K ⊗ C^r
        eye_r = np.eye(r)
        pure = MeasuringProcess(
            self.dim_h, self.algebra, self.outcomes, self.dim_k * r,
            proj(eta), {s: _kron(self.e[s], eye_r) for s in self.e},
            _kron(self.u, eye_r), validate=False)
        return pure, eta / np.linalg.norm(eta)

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

    def require_valid(self, inst: CPInstrument, tol: Tolerance = DEFAULT_TOL,
                      chois: dict[str, np.ndarray] | None = None) -> None:
        """Raise unless π₀ commutes with E₀, ``V*π₀(·)E₀(s)V`` is the
        instrument and the ``π₀(x)E₀(s)Vξ`` span K. A bound may accept
        each check (:func:`_representation_bounds`, reading the
        instrument's Choi matrices ``chois`` if given); past it the exact
        check over every matrix unit decides, with its message."""
        scale = tol.bound("strict", self.dim_k)
        commute, misfit, spans = _representation_bounds(self, inst, tol, chois)
        units = np.eye(self.dim_h ** 2).reshape(-1, self.dim_h, self.dim_h)
        # π₀ of every matrix unit, in the order of ``units``.
        images = functools.cache(lambda: self.pi0.apply(units))
        for s, e in self.e0.items():
            if not commute.get(s, math.inf) <= scale / 2:
                _require_within(images() @ e - e @ images(), scale,
                                f"π₀ does not commute with E₀({s!r})")
        if misfit <= scale / 2 and spans:
            return
        labels = inst.outcomes.labels
        # blocks[u, a] = π₀(x_u) E₀(s_a) V for unit x_u and atom s_a.
        pointers = np.stack([self.e0[s] for s in labels])
        blocks = images()[:, None] @ pointers @ self.v
        if not misfit <= scale / 2:
            _require_within(dagger(self.v) @ blocks - np.stack(
                [apply_dual(inst, units, (s,)) for s in labels], axis=1),
                scale, "representation does not reconstruct the instrument")
        if spans:
            return
        stacked = blocks.transpose(2, 0, 1, 3).reshape(self.dim_k, -1)
        sv = np.linalg.svd(stacked, compute_uv=False)
        rank = int(np.count_nonzero(sv > tol.bound("strict", sv[0] if sv.size else 0)))
        if rank != self.dim_k:
            raise ValueError(f"representation is not minimal: span rank "
                             f"{rank} < dimK {self.dim_k}")


def _representation_bounds(rep: InstrumentRepresentation, inst: CPInstrument,
                           tol: Tolerance, chois=None
                           ) -> tuple[dict[str, float], float, bool]:
    """Each atom's commutator bound, a bound on the misfit's Frobenius
    norm, and whether minimality is certain; none (``{}, inf, False``)
    unless ``π₀(X) = u*(X ⊗ 1)u`` is stored with ``left = u*``, u square.

    Commutators are :func:`_commutation`'s. ``V*π₀(X)E₀(s)V`` is
    ``A*(X ⊗ 1)B_s``, ``A = uV`` and ``B_s = uE₀(s)V``, so the misfit's
    entries are those of its Choi matrix, ``Σ_k z(B_s,k)z(A_k)*`` over
    meter blocks, less the instrument's. The span is ``u*(C^dimH ⊗ W)``,
    W spanned by the meter columns of every ``B_s``; Gershgorin bounds on
    their Gram matrix, spread by u's defect, bound the singular values the
    exact SVD finds. Each figure allows for rounding.
    """
    dim_h, dim_k, labels = rep.dim_h, rep.dim_k, inst.outcomes.labels
    if rep.pi0.factors is None or set(rep.e0) != set(labels):
        return {}, math.inf, False
    left, u, k = rep.pi0.factors
    if not (dim_k == dim_h * k and left.shape == (dim_k, dim_k)
            and (left == dagger(u)).all()):
        return {}, math.inf, False
    # ‖u*u − 1‖ and ‖uu* − 1‖, as left = u*.
    a, b = _frobenius(np.stack([left @ u, u @ left]) - np.eye(dim_k))
    pointers = np.stack([rep.e0[s] for s in labels])
    commute = dict(zip(labels, _commutation(pointers, u, dim_h, a, b)[3]))

    def z(x):  # z[..., k, (i, a)] = X_k[a, i] for the meter blocks X_k of x
        return x.reshape(-1, dim_h, k, dim_h).transpose(0, 2, 3, 1).reshape(
            -1, k, dim_h ** 2)

    zb = z(u @ pointers @ rep.v)
    if chois is None:
        chois = {s: choi_of_kraus(inst.kraus[s], dim_h, inst.atom_weights(s))
                 for s in labels}
    size = (1 + a) * np.vdot(rep.v, rep.v).real + sum(
        _kraus_mass(inst, s) for s in labels)
    misfit = (zb.transpose(0, 2, 1) @ z(u @ rep.v)[0].conj()
              - np.stack([chois[s] for s in labels]))
    misfit = math.sqrt(np.vdot(misfit, misfit).real) + 16 * (
        dim_k + dim_h ** 2) * _EPS * size
    w = zb.transpose(1, 0, 2).reshape(k, -1)
    gram = w @ dagger(w)
    diag, magnitude = gram.diagonal().real, np.abs(gram)
    off = magnitude.sum(axis=1) - magnitude.diagonal()
    fuzz = 16 * (w.shape[1] + dim_k) * _EPS * diag.sum()
    low = math.sqrt(max(float((diag - off).min() - fuzz), 0.0)
                    * max(1 - b, 0.0))
    high = math.sqrt(float((diag + off).max() + fuzz) * (1 + b))
    spans = low > 2 * tol.bound("strict", high) + 16 * dim_k * _EPS * high
    return commute, float(misfit), bool(spans)


def instrument_representation(inst: CPInstrument,
                              tol: Tolerance = DEFAULT_TOL
                              ) -> InstrumentRepresentation:
    """Direct sum of per-atom minimal Stinespring dilations.

    Zero-probability atoms contribute empty blocks. π₀ is stored by its
    factors ``π₀(X) = q (X ⊗ 1) q*``, q the permutation that sends each
    atom's meter indices to its block. The input (through
    :meth:`CPInstrument.require_valid`) and the result are verified.
    """
    inst.require_valid(tol)
    dim_h = inst.dim_h
    chois = {s: choi_of_kraus(inst.kraus[s], dim_h, inst.atom_weights(s))
             for s in inst.outcomes.labels}
    parts = {s: minimal_stinespring(chois[s], dim_h, tol) for s in chois}
    ranks = {s: parts[s].rank for s in inst.outcomes.labels}
    dim_k = dim_h * sum(ranks.values())

    meter = np.eye(dim_k // dim_h)
    q = []
    e0 = {}
    v = np.zeros((dim_k, dim_h), dtype=complex)
    offset = 0
    for s in inst.outcomes.labels:
        part = parts[s]
        size = part.dim_k
        sl = slice(offset, offset + size)
        # This atom's block is X ⊗ 1 on its own meter indices.
        first = offset // dim_h
        q.append(_kron(np.eye(dim_h), meter[first:first + part.rank]))
        v[sl, :] = part.v
        p = np.zeros((dim_k, dim_k), dtype=complex)
        p[sl, sl] = np.eye(size)
        e0[s] = p
        offset += size
    q = np.vstack(q)
    rep = InstrumentRepresentation(dim_h, dim_k, PiMap.factored(
        q, dagger(q), len(meter)), e0, v, ranks)
    rep.require_valid(inst, tol, chois)
    return rep


# ---------------------------------------------------------------------------
# Splitting a representation of B(H) and reading off commutant data


def multiplicity_split(pi: PiMap, tol: Tolerance = DEFAULT_TOL
                       ) -> tuple[int, np.ndarray]:
    """Split a unital representation of B(H) as ``π(X) = U₁*(X ⊗ 1)U₁``.

    Returns ``(dimK, u1)`` with ``u1`` a unitary from the representation
    space onto ``H ⊗ C^dimK``. A factored ``(left, right, dimK)`` with
    ``left`` unitary and ``right = left*`` within ``strict(dimL)``, 100×
    under the ``loose(dimL)`` the general path accepts, gives ``right``.
    Otherwise the unitary is assembled by propagating an orthonormal
    basis of the range of ``π(|0><0|)`` with the partial isometries
    ``π(|i><0|)``.
    """
    return _split(pi, tol)[:2]


def _split(pi: PiMap, tol: Tolerance
           ) -> tuple[int, np.ndarray, tuple[float, ...] | None]:
    """:func:`multiplicity_split` and, on the stored-factor path, the
    Frobenius norms of ``left*left − 1``, ``left left* − 1`` and
    ``right − left*`` (None on the general path)."""
    dim_l, dim_h = pi.dim_out, pi.dim_in
    if dim_l % dim_h != 0:
        raise ValueError(f"space of dimension {dim_l} admits no "
                         f"multiplicity split over dimension {dim_h}")
    dim_k = dim_l // dim_h
    if pi.factors is not None:
        left, right, k = pi.factors
        if k == dim_k and left.shape == (dim_l, dim_l):
            defects = (*_unitary_defects(left), right - dagger(left))
            if _within(defects, tol.bound("strict", dim_l)):
                return dim_k, right, tuple(map(np.linalg.norm, defects))
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
    return dim_k, u1, None


def commutant_pvm_lift(pi_vals: dict[str, np.ndarray], u2: np.ndarray,
                       dim_h: int, tol: Tolerance = DEFAULT_TOL
                       ) -> dict[str, np.ndarray]:
    """Read a commutant PVM through a multiplicity split.

    Each projection must commute with ``u2*(X ⊗ 1)u2``; then
    ``t = u2 P u2*`` has the form ``1 ⊗ E₀`` and ``E₀`` is recovered by
    partial trace over the first leg. Every commutator with a matrix unit
    is at most ``2(1+a)(‖d‖ + ‖P‖((1+a)b + 2a + a²))`` for ``d = t − 1 ⊗
    E₀``, ``a = ‖u2*u2 − 1‖``, ``b = ‖u2u2* − 1‖``; the sweep over them
    runs only when that, in Frobenius norms, exceeds half of
    ``loose(dimL)``, the bound of every check here. The recovered family
    is verified to be of that form and a PVM.
    """
    return _lift(pi_vals, u2, dim_h, tol)[0]


def _lift(pi_vals: dict[str, np.ndarray], u2: np.ndarray, dim_h: int,
          tol: Tolerance
          ) -> tuple[dict[str, np.ndarray], dict[str, float], float]:
    """:func:`commutant_pvm_lift` and the Frobenius norms it measured: each
    form defect ``‖d‖`` and the largest of the family's PVM defects."""
    dim_l = u2.shape[0]
    if dim_l % dim_h != 0:
        raise ValueError("split dimensions do not divide")
    dim_k = dim_l // dim_h
    scale = tol.bound("loose", dim_l)
    a, b = (np.linalg.norm(m) for m in _unitary_defects(u2))
    ps = np.stack([np.asarray(p, dtype=complex) for p in pi_vals.values()])
    e0s, d, norms, bounds = _commutation(ps, u2, dim_h, a, b)
    transported = None
    # Each atom in turn: the commutators past their bound, then the form.
    if not (bounds.max() <= scale / 2
            and norms.max() <= scale * _FROBENIUS_MARGIN):
        for i, s in enumerate(pi_vals):
            if not bounds[i] <= scale / 2:
                if transported is None:
                    # u2*(x ⊗ 1)u2 for every matrix unit x, as a stack.
                    transported = _transport(dagger(u2), u2, dim_k).transpose(
                        2, 3, 0, 1).reshape(-1, dim_l, dim_l)
                _require_within(ps[i] @ transported - transported @ ps[i],
                                scale, f"projection {s!r} does not commute "
                                "with the transported algebra")
            _require_within(d[i], scale, f"transported projection {s!r} is "
                            "not of the form 1 ⊗ (·)")
    out = dict(zip(pi_vals, e0s))
    # Frobenius norms within the bound accept, as norm_within has it;
    # past it the gate decides on the exact norms. One stacked product
    # gives every E_i E_j, a superset of _pvm_defects' pairs i < j, and
    # on its diagonal E_i² − E_i.
    n = len(e0s)
    prods = (e0s[:, None] @ e0s[None]).reshape(n * n, dim_k, dim_k)
    prods[::n + 1] -= e0s
    pvm = float(_frobenius(np.concatenate([
        prods, e0s - e0s.conj().transpose(0, 2, 1),
        [e0s.sum(axis=0) - np.eye(dim_k)]])).max())
    if not pvm <= scale * _FROBENIUS_MARGIN:
        _require_within(_pvm_defects(out), scale, "lifted family is not a PVM")
    return out, dict(zip(pi_vals, norms)), pvm


def _commutation(ps: np.ndarray, u: np.ndarray, dim_h: int, a: float,
                 b: float) -> tuple[np.ndarray, ...]:
    """Each p of a stack read through u as ``1 ⊗ E₀``: ``t = u p u*`` gives
    E₀ (its partial trace over the first leg, over dimH) and the defect
    ``d = t − 1 ⊗ E₀``. For ``a ≥ ‖u*u − 1‖``, ``b ≥ ‖uu* − 1‖`` every
    commutator of p with ``u*(x ⊗ 1)u``, x a matrix unit, is at most
    ``2(1+a)(‖d‖ + ‖p‖((1+a)b + 2a + a²))``, here in Frobenius norms and
    with the rounding of the exact sweeps added. Returns the stacks of E₀
    and d, and each ``‖d‖_F`` and bound."""
    dim_l = len(u)
    dim_k = dim_l // dim_h
    t = (u @ ps @ dagger(u)).reshape(-1, dim_h, dim_k, dim_h, dim_k)
    e0 = np.einsum("nakal->nkl", t) / dim_h
    d = (t - np.eye(dim_h)[:, None, :, None] * e0[:, None, :, None]).reshape(
        -1, dim_l, dim_l)
    norms = _frobenius(d)
    return e0, d, norms, 2 * (1 + a) * (norms + _frobenius(ps) * (
        (1 + a) * b + 2 * a + a * a + 8 * dim_l * _EPS))


def intertwiner_vector(v: np.ndarray, tol: Tolerance = DEFAULT_TOL
                       ) -> np.ndarray:
    """Extract η from an intertwining isometry ``V ξ = ξ ⊗ η``.

    The vector is read off the image of the first basis vector and
    re-phased so its first significant component is real positive; the
    product form is verified against the raw (un-phased) extraction, so
    the check is phase-free. As ``(x ⊗ 1)V − Vx = (x ⊗ 1)D − Dx`` for
    ``D = V − 1 ⊗ η_raw``, the sweep over matrix units runs only when
    ``2‖D‖_F`` exceeds half of ``loose(dimL)``, the bound of each check.
    """
    return _intertwiner(v, tol)[0]


def _intertwiner(v: np.ndarray, tol: Tolerance
                 ) -> tuple[np.ndarray, float, float]:
    """:func:`intertwiner_vector`, ``‖V − 1 ⊗ η_raw‖_F`` and
    ``|‖η_raw‖ − 1|``."""
    v = np.asarray(v, dtype=complex)
    dim_h = v.shape[1]
    if v.shape[0] % dim_h != 0:
        raise ValueError("isometry shape does not factor over the system")
    dim_l1 = v.shape[0] // dim_h
    scale = tol.bound("loose", v.shape[0])
    eta_raw = v[:dim_l1, 0].copy()
    defect = v - _kron(np.eye(dim_h), eta_raw.reshape(-1, 1))
    form = np.linalg.norm(defect)
    if not 2 * form <= scale / 2:
        for _, _, x in matrix_units(dim_h):
            _require_within(_kron(x, np.eye(dim_l1)) @ v - v @ x, scale,
                            "V does not intertwine the system action")
    _require_within(defect, scale, "V is not of the form ξ ↦ ξ ⊗ η")
    norm = np.linalg.norm(eta_raw)
    if abs(norm - 1.0) > scale:
        raise ValueError("extracted vector is not normalized")
    eta = eta_raw / norm
    mags = np.abs(eta)
    lead = int(np.argmax(mags >= mags.max() * 1e-6))
    phase = eta[lead] / abs(eta[lead])
    return eta * phase.conjugate(), form, abs(norm - 1.0)


# ---------------------------------------------------------------------------
# Correlation system -> measuring process


def mp_from_correlations(sys: CorrelationSystem,
                         tol: Tolerance = DEFAULT_TOL,
                         completion_seed: int | None = None
                         ) -> MeasuringProcess:
    """Build a measuring process reproducing a full-algebra system.

    Both the input letter map and the summed atom map are unital
    representations of B(H) on the same space, so their multiplicity
    splits ``Π_in(X) = u1*(X ⊗ 1)u1`` and ``ΣΠ_s(X) = u2*(X ⊗ 1)u2``
    share one multiplicity space C^d. In the frame of ``u1`` the system
    is the process with meter C^d, meter state η₁ (``u1 v ξ = ξ ⊗ η₁`` up
    to a phase), pointer PVM E₀ (``u2 Π_s(1) u2* = 1 ⊗ E₀(s)``) and
    coupling ``U = u2 u1*``: ``u1`` carries every letter map and ``v``
    onto the process's, so the two are completely equivalent. Bounds: a
    split ``strict(dimL)`` on stored factors, else ``loose(dimL)``; the
    lift and η₁ ``loose(dimL)``; U, E₀ and σ = proj(η₁) the process
    check's ``loose``; six random words, evaluated on both, ``loose(dimL)``.
    When both splits ran on stored factors, the defects they, the lift
    and η₁ measured bound U's unitarity residual and the six words'
    differences (see :func:`_chain_bounds`); each check runs only when
    its bound exceeds half its own, and decides by the exact norm with
    its usual message. The lift's PVM norms and σ's trace serve the
    process check on any system. ``completion_seed`` multiplies U by
    ``1 ⊗ W`` for a seeded unitary W that fixes η₁, which no word can
    see; when d = 1 there is nothing to rotate and the seed is ignored.
    """
    if not sys.algebra.is_full:
        raise ValueError("construction requires the full matrix algebra")
    dim_h = sys.dim_h
    d1, u1, split_in = _split(sys.pi_in, tol)
    d2, u2, split_atoms = _split(sys.letter_map(sys.outcomes.labels), tol)
    if d1 != d2:
        raise ValueError("splitting dimensions disagree; the letter maps "
                         "do not act on a common space")
    e0, forms, pvm = _lift(sys.atom_units(), u2, dim_h, tol)
    eta1, *vector = _intertwiner(u1 @ sys.v, tol)
    u = u2 @ dagger(u1)
    rotation = (0.0, 0.0, 0.0)
    if completion_seed is not None and d1 > 1:
        # W = |η₁><η₁| + P R P*, P an orthonormal basis of η₁^⊥.
        q, _ = np.linalg.qr(np.column_stack([eta1, np.eye(d1)]))
        perp = q[:, 1:]
        rot = random_unitary(np.random.default_rng(completion_seed), d1 - 1)
        w = proj(eta1) + perp @ rot @ dagger(perp)
        u = u @ _kron(np.eye(dim_h), w)
        rotation = tuple(np.linalg.norm(m) for m in (
            *_unitary_defects(w), dagger(w) @ eta1 - eta1))

    words, norm, length = _spot_words(dim_h, len(sys.outcomes.labels))
    unitarity = spot = math.inf
    if split_in is not None and split_atoms is not None:
        unitarity, spot = _chain_bounds(
            split_in, split_atoms, rotation, list(forms.values()),
            [np.linalg.norm(sys.pi_atom[s].factors[1])
             for s in sys.outcomes.labels],
            vector, sys.dim_l, norm, length)
    sigma = proj(eta1)
    # proj(η) comes out Hermitian bit for bit, and rounding moves its
    # eigenvalues off {1, 0, …} by a few ulps; the floor allows for
    # eigvalsh's own error too.
    floor = math.inf if (sigma - dagger(sigma)).any() else 16 * (d1 + 1) * _EPS
    known = _ProcessBounds(unitarity, pvm,
                           abs(complex(np.trace(sigma)) - 1.0), floor)
    mp = MeasuringProcess(dim_h, sys.algebra, sys.outcomes, d1, sigma,
                          e0, u, validate=False)
    # The one check of the process, at tol, reads these bounds; the
    # record validate=tol stays for copies, which carry no bounds.
    object.__setattr__(mp, "_bounds", known)
    mp.require_valid(tol)
    object.__setattr__(mp, "validate", tol)

    # Spot check: the process reproduces the system's correlation values.
    bound = tol.bound("loose", dim_h * d1)
    if not spot <= bound / 2:
        _require_within(_spot_residuals(sys, mp, words, tol), bound,
                        "constructed process fails to reproduce the "
                        "correlation values")
    return mp


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


def _near_inverse(a: float, b: float, c: float) -> tuple[float, ...]:
    """Bounds for factors ``(L, R)``, ``R = L* + C``, from ``a = ‖L*L − 1‖``,
    ``b = ‖LL* − 1‖`` and ``c = ‖C‖``: ``‖L‖``, ``‖R‖``, ``‖RR* − 1‖``,
    ``‖R*R − 1‖`` and ``‖RL − 1‖``."""
    ell = math.sqrt(1 + min(a, b))
    return (ell, ell + c, a + (2 * ell + c) * c, b + (2 * ell + c) * c,
            a + ell * c)


def _chain_bounds(split_in, split_atoms, rotation, forms, rights, vector,
                  dim_l: int, norm: float, length: int
                  ) -> tuple[float, float]:
    """Bounds on the process's unitarity residual and on the spot check's.

    The inputs are the Frobenius norms the chain measured, each at least
    the spectral norm: each split's ``(a, b, c)`` of :func:`_near_inverse`
    (factors ``(P, u1)`` of ``Π_in`` and ``(L, u2)``, L the atoms' shared
    left factor and ``u2 = ΣR_s``); W's two unitarity defects and
    ``‖W*η₁ − η₁‖`` (zeros without W); each atom's lift form defect
    ``‖Δ_s‖``, ``Δ_s = u2 L R_s u2* − 1 ⊗ E₀(s)``; each ``‖R_s‖``;
    ``(‖u1 v − 1 ⊗ η_raw‖, |‖η_raw‖ − 1|)``; and the largest operator
    norm x and length ℓ of the words. Each input gets an allowance for
    the rounding of products of dimension dimL.

    ``U = u2 u1* (1 ⊗ W)``, so ``U*U − 1`` and ``UU* − 1`` expand into
    the splits' and W's defects. For the words, ``J = (1 ⊗ W*)u1``
    carries the system onto the process: ``J*J − 1`` is within γ,
    ``J Π_in(X) J* − X ⊗ 1 = (1 ⊗ W*)[(u1P − 1)(X ⊗ 1)u1u1* + (X ⊗ 1)
    (u1u1* − 1)](1 ⊗ W) + X ⊗ (W*W − 1)``, and, with ``M = u2L − 1``,
    ``N = u2*u2 − 1``, ``Π_s(X) − u2*(X ⊗ E₀(s))u2 = (L − u2*)(X ⊗ 1)R_s
    − u2*(X ⊗ 1)(M R_s + (1 + M)R_s N) + u2*(X ⊗ 1)Δ_s u2``, which J
    carries onto the process's atom map's difference. This is where the
    atoms' one left factor counts: each atom map is fixed by ``Π_s(1)``
    up to M. ``Jv`` is ``1 ⊗ η₁`` up to a phase and ε_v. Inserting
    ``J*J`` between the letters and telescoping, a word's values differ
    by at most ``((1+γ)^(ℓ+1) − 1)ν²(ax)^ℓ + 2νε_v(ãx)^ℓ +
    ν²ℓεx(ãx)^(ℓ−1)``, for letter norms a (system) and ã (frames), the
    largest letter defect ε and ``ν ≥ ‖v‖``; a last term covers the
    rounding of the words' own evaluation.
    """
    fuzz = 4 * dim_l ** 2 * _EPS * (1 + max(rights)) ** 2
    a1, b1, c1, a2, b2, c2, om, om_, zeta, form_v, norm_v = (
        x + fuzz for x in (*split_in, *split_atoms, *rotation, *vector))
    p, mu1, g1, gam0, f1 = _near_inverse(a1, b1, c1)
    ell, mu2, h2, n2, m2 = _near_inverse(a2, b2, c2)
    w2 = 1 + om  # ‖W‖²
    # U formed, and U*U, UU* formed from it, in floating point.
    rounding = fuzz * (mu1 * mu2) ** 2 * w2
    unitarity = max(om + w2 * (g1 + mu1 ** 2 * n2),
                    h2 + mu2 ** 2 * (gam0 + mu1 ** 2 * om_)) + 4 * rounding
    gamma = gam0 + mu1 ** 2 * om_
    if not gamma < 0.5:
        return unitarity, math.inf
    j2 = 1 + gamma  # ‖J‖²
    eps_in = om + w2 * (f1 * (1 + g1) + g1)
    eps_s = j2 * max(r * (c2 + mu2 * (m2 + (1 + m2) * n2))
                     + mu2 ** 2 * (d + fuzz) for r, d in zip(rights, forms))
    eps = max(eps_in, eps_s) + rounding
    a = max(p * mu1, ell * max(rights))
    ax, atx = a * norm, (j2 * a + eps) * norm
    nu = max(math.sqrt(w2) * (1 + norm_v + form_v) / math.sqrt(1 - gamma),
             1.0) + fuzz
    e_v = norm_v + (1 + norm_v) * zeta + math.sqrt(w2) * form_v + fuzz
    k = length
    return unitarity, (((1 + gamma) ** (k + 1) - 1) * nu ** 2 * ax ** k
                       + 2 * nu * e_v * atx ** k
                       + nu ** 2 * k * eps * norm * atx ** (k - 1)
                       + fuzz * (2 + 3 * k) * nu ** 2 * (1 + atx) ** k)


# ---------------------------------------------------------------------------
# Measuring process -> correlation system, instrument and values


def _system_of(mp: MeasuringProcess, tol: Tolerance) -> CorrelationSystem:
    """:func:`system_of_mp`, unchecked."""
    pure, eta = mp._purification(tol)
    if eta is None:
        raise ValueError("sigma is not a vector state")
    dim_h, dim_k = pure.dim_h, pure.dim_k
    dim_l = dim_h * dim_k
    eye_l, u, u_star = np.eye(dim_l), pure.u, dagger(pure.u)
    pi_atom = {s: PiMap.factored(
        u_star, (pure.e[s] @ u.reshape(dim_h, dim_k, -1)).reshape(
            dim_l, dim_l), dim_k)
        for s in mp.outcomes.labels}
    return CorrelationSystem(
        mp.dim_h, mp.algebra, mp.outcomes, dim_l,
        PiMap.factored(eye_l, eye_l, dim_k), pi_atom,
        _kron(np.eye(dim_h), eta.reshape(-1, 1)), validate=False)


def system_of_mp(mp: MeasuringProcess, tol: Tolerance = DEFAULT_TOL
                 ) -> CorrelationSystem:
    """The correlation system carried by a measuring process, checked.

    The meter state is purified (see :meth:`MeasuringProcess.purified`),
    so the space is ``H ⊗ K_pure`` and ``v ξ = ξ ⊗ η``. The letter maps
    ``Π_in(X) = X ⊗ 1`` and ``Π_s(X) = U*(X ⊗ 1)·(1 ⊗ E_s)U`` are stored
    by these factors. The functions below read a process through the
    same system, unchecked.
    """
    return dataclasses.replace(_system_of(mp, tol), validate=tol)


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
        spill = np.linalg.norm(a) ** 2 * max(
            np.linalg.norm(e - dagger(e) @ e) for e in pure.e.values())
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
    _require_within(vdv @ vdv - vdv, tol.bound("loose", n),
                    "input is not a partial isometry")
    eye = np.eye(n)
    e00, e01, e10, e11 = (x for _, _, x in matrix_units(2))
    return (_kron(v, e00) + _kron(eye - vvd, e01)
            + _kron(eye - vdv, e10) - _kron(dagger(v), e11))


def _canonical_mp(inst: CPInstrument, algebra: FiniteVonNeumannAlgebra,
                  tol: Tolerance) -> MeasuringProcess:
    """The process of ``inst`` read on all of B(H), carrying ``algebra``:
    :func:`from_instrument`, then :func:`mp_from_correlations` on the full
    algebra, which the Kraus data acts on whatever ``inst.algebra`` is."""
    sys = dataclasses.replace(from_instrument(inst, tol=tol),
                              algebra=full_algebra(inst.dim_h), validate=False)
    mp = mp_from_correlations(sys, tol)
    # replace() would re-check what mp_from_correlations just checked.
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
