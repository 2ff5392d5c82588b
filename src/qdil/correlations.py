"""Systems of measurement correlations.

A system is stored as a representation triplet: a space ``C^dimL``, one
operator-valued map per letter (the input letter ``"in"`` plus one per
outcome atom), and an isometry ``v: C^dimH → C^dimL``. Correlation
values are compressions ``W_T(M⃗) = v* Π_{t1}(M_1)···Π_{tk}(M_k) v``,
which :func:`eval_W`, the package's one word evaluator, pushes ``v``
through; event letters evaluate through the sums of their atoms' maps.

Two constructions are provided: `from_instrument` builds the block
system of a CP instrument (through its minimal instrument
representation), and `from_kernel_table` rebuilds a system from a
bounded-depth table of correlation values by a Kolmogorov factorization
of the word Gram kernel plus shift operators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .algebra import (
    FiniteVonNeumannAlgebra,
    _json_algebra,
    _membership_defects,
    algebra_to_json,
    conditional_expectation,
    contains,
)
from .instrument import (
    IN,
    CPInstrument,
    OutcomeSpace,
    _json_outcomes,
    instrument_from_duals,
)
from .operator_core import (
    DEFAULT_TOL,
    Tolerance,
    _json_dim,
    _isometry_defects,
    _json_object,
    _kron,
    _pvm_defects,
    _require_within,
    dagger,
    is_pvm,
    matrix_from_json,
    matrix_to_json,
    matrix_units,
    psd_factorize,
    random_ginibre,
    spectral_norm,
)

__all__ = [
    "IN",
    "TimeWord",
    "PiMap",
    "CorrelationSystem",
    "eval_W",
    "verify_axioms",
    "AxiomReport",
    "AxiomEntry",
    "induced_instrument",
    "from_instrument",
    "from_kernel_table",
    "table_from_system",
    "system_to_json",
    "system_from_json",
]


@dataclass(frozen=True)
class TimeWord:
    """A nonempty word over ``{"in"} ∪ atoms ∪ events``.

    Letters are the string ``"in"``, a single atom label, or an event
    given as a tuple/frozenset of atom labels (evaluated additively over
    its atoms). ``reverse`` realizes the ``T ↦ T#`` involution on the
    letters; adjoining the operator slots is the caller's job.
    """

    letters: tuple

    def __post_init__(self) -> None:
        letters = tuple(
            letter if isinstance(letter, str) else tuple(letter)
            for letter in self.letters)
        if not letters:
            raise ValueError("a time word has at least one letter")
        object.__setattr__(self, "letters", letters)

    def __len__(self) -> int:
        return len(self.letters)

    def reverse(self) -> "TimeWord":
        return TimeWord(self.letters[::-1])

    def concat(self, other: "TimeWord") -> "TimeWord":
        return TimeWord(self.letters + other.letters)


def _reverse_slots(ms) -> list[np.ndarray]:
    return [dagger(m) for m in reversed(list(ms))]


class PiMap:
    """A linear operator-valued map ``X ↦ Π(X)``, stored as it was built.

    ``PiMap(tensor)`` holds the 4-tensor ``tensor[a, b, i, j]`` =
    ``Π(e_ij)[a, b]``. :meth:`factored` holds ``(left, right, k)`` with
    ``Π(X) = left (X ⊗ 1_k) right``; such a map works on its factors and
    forms :attr:`tensor` only when something reads it.
    """

    def __init__(self, tensor) -> None:
        t = np.asarray(tensor, dtype=complex)
        if t.ndim != 4 or t.shape[0] != t.shape[1] or t.shape[2] != t.shape[3]:
            raise ValueError(f"bad PiMap tensor shape {t.shape}")
        self._tensor, self.factors = t, None
        self.dim_out, self.dim_in = t.shape[0], t.shape[2]

    @classmethod
    def factored(cls, left, right, dim_k: int) -> "PiMap":
        """The map ``X ↦ left (X ⊗ 1_k) right``, the ``X`` leg first."""
        if dim_k < 1:
            raise ValueError(f"a factored map needs k ≥ 1, got k = {dim_k}")
        pm = cls.__new__(cls)
        left = np.asarray(left, dtype=complex)
        pm._tensor = None
        pm.factors = (left, np.asarray(right, dtype=complex), dim_k)
        pm.dim_out, pm.dim_in = len(left), left.shape[1] // dim_k
        return pm

    @property
    def tensor(self) -> np.ndarray:
        if self._tensor is None:
            self._tensor = _transport(*self.factors)
        return self._tensor

    def _lift(self, m: np.ndarray, y: np.ndarray) -> np.ndarray:
        """``(m ⊗ 1_k) y``; a stack of operators gives a stack, and with a
        stack of ``y`` pairs them."""
        z = m @ y.reshape(*y.shape[:-2], self.dim_in, -1)
        return z.reshape(*z.shape[:-2], *(y.shape[-2:] if y.ndim > 1
                                          else (-1,)))

    def apply(self, m) -> np.ndarray:
        """``Π(m)``, or the stack of images of a stack of operators."""
        m = np.asarray(m, dtype=complex)
        if self.factors is not None:
            left, right, _ = self.factors
            return left @ self._lift(m, right)
        if m.ndim == 2:
            return np.einsum("abij,ij->ab", self._tensor, m)
        flat = self._tensor.reshape(self.dim_out ** 2, -1)
        return (m.reshape(len(m), -1) @ flat.T).reshape(
            -1, self.dim_out, self.dim_out)

    def push(self, m, states: np.ndarray) -> np.ndarray:
        """``Π(m) states``, a factored ``Π(m)`` never formed; a stack of
        operators pushes one state or pairs with a stack of states."""
        if self.factors is None:
            return self.apply(m) @ states
        left, right, _ = self.factors
        return left @ self._lift(np.asarray(m, dtype=complex), right @ states)

    def adjoint(self) -> "PiMap":
        """The map ``X ↦ Π(X*)*``, stored in the form of this one."""
        if self.factors is None:
            return PiMap(self._tensor.conj().transpose(1, 0, 3, 2))
        left, right, k = self.factors
        return PiMap.factored(dagger(right), dagger(left), k)

    def compressed(self, v: np.ndarray) -> "PiMap":
        """The map ``X ↦ v* Π(X) v``, stored in the form of this one."""
        if self.factors is None:
            return PiMap(np.einsum("xa,xyij,yb->abij", v.conj(), self._tensor,
                                   v, optimize=True))
        left, right, k = self.factors
        return PiMap.factored(dagger(v) @ left, right @ v, k)

    @classmethod
    def from_function(cls, fn, dim_in: int, dim_out: int) -> "PiMap":
        images = np.stack([fn(e) for _, _, e in matrix_units(dim_in)], -1)
        return cls(images.reshape(dim_out, dim_out, dim_in, dim_in))


def _transport(left: np.ndarray, right: np.ndarray, dim_k: int) -> np.ndarray:
    """The :class:`PiMap` tensor of ``X ↦ left (X ⊗ 1_k) right``.

    ``left`` has ``dimX·k`` columns and ``right`` as many rows, in kron
    order (the ``X`` leg first).
    """
    dim_x = left.shape[1] // dim_k
    return np.ascontiguousarray(np.einsum(
        "aim,jmb->abij", left.reshape(len(left), dim_x, dim_k),
        right.reshape(dim_x, dim_k, -1), optimize=True))


@dataclass(frozen=True)
class CorrelationSystem:
    """Representation triplet ``(C^dimL, {Π_t}, v)`` of a correlation system.

    Construction runs :meth:`require_valid` at ``Tolerance.of(validate)``
    unless ``validate`` is False.
    """

    dim_h: int
    algebra: FiniteVonNeumannAlgebra
    outcomes: OutcomeSpace
    dim_l: int
    pi_in: PiMap = field(repr=False)
    pi_atom: dict[str, PiMap] = field(repr=False)
    v: np.ndarray = field(repr=False)
    validate: bool | Tolerance = True
    certified_depth: int | None = None

    def __post_init__(self) -> None:
        vv = np.asarray(self.v, dtype=complex)
        if vv.shape != (self.dim_l, self.dim_h):
            raise ValueError(f"v has shape {vv.shape}, "
                             f"expected {(self.dim_l, self.dim_h)}")
        object.__setattr__(self, "v", vv)
        if self.algebra.dim_h != self.dim_h:
            raise ValueError("algebra dimension does not match dimH")
        if set(self.pi_atom) != set(self.outcomes.labels):
            raise ValueError("pi_atom labels do not match the outcome space")
        if self.validate:
            self.require_valid(Tolerance.of(self.validate))

    def letter_map(self, letter) -> PiMap:
        if letter == IN:
            return self.pi_in
        if isinstance(letter, str):
            if letter not in self.pi_atom:
                raise ValueError(f"unknown letter {letter!r}")
            return self.pi_atom[letter]
        maps = [self.pi_atom[s] for s in self.outcomes.event(letter)]
        factors = [pm.factors for pm in maps]
        # Atoms factored with one shared left factor sum on the right.
        if factors and all(f is not None and f[0] is factors[0][0]
                           for f in factors):
            left, _, k = factors[0]
            return PiMap.factored(left, sum(f[1] for f in factors), k)
        return PiMap(sum(pm.tensor for pm in maps))

    def atom_units(self) -> dict[str, np.ndarray]:
        eye = np.eye(self.dim_h)
        return {s: self.pi_atom[s].apply(eye) for s in self.outcomes.labels}

    def require_valid(self, tol: Tolerance = DEFAULT_TOL) -> None:
        """Exact structural invariants; cheap enough to run at construction.

        Checks each letter map is *-preserving and multiplicative on a
        basis of the algebra, that ``Π_in`` is unital with the atoms'
        units forming a PVM, and that ``v`` is an intertwining isometry.
        Each letter map is applied to the whole basis stack at once;
        products of basis pairs are formed one basis row at a time, so
        memory stays linear in the basis size.
        """
        tol_scale = tol.bound("strict", self.dim_l)
        basis = np.stack(self.algebra.basis())
        n, dim_l = len(basis), self.dim_l
        basis_star = basis.conj().transpose(0, 2, 1)
        for name, pm in [(IN, self.pi_in)] + sorted(self.pi_atom.items()):
            images = pm.apply(basis)
            _require_within(pm.apply(basis_star)
                            - images.conj().transpose(0, 2, 1),
                            tol_scale, f"Π_{name} is not *-preserving")
            for i in range(n):
                _require_within(images[i] @ images
                                - pm.apply(basis[i] @ basis), tol_scale,
                                f"Π_{name} is not multiplicative on the "
                                "algebra")
        _require_within(self.pi_in.apply(np.eye(self.dim_h)) - np.eye(dim_l),
                        tol_scale, "Π_in is not unital")
        _require_within(_pvm_defects(self.atom_units()), tol_scale,
                        "atom units are not a PVM")
        _require_within(_isometry_defects(self.v), tol_scale,
                        "v is not an isometry")
        _require_within(self.pi_in.apply(basis) @ self.v
                        - self.v @ basis, tol_scale,
                        "v does not intertwine Π_in")


def _push_words(sys: CorrelationSystem, words: list, states: np.ndarray,
                adjoint: bool = False) -> np.ndarray:
    """The stack ``states`` of a list of ``(letters, operators, ...)`` words
    pushed in place through them (through ``Π(X*)*`` if ``adjoint``) from
    their last letters: at each position each letter map pushes the stack
    of its words' operators and states, or a lone word's one operator."""
    for back in range(1, max(len(letters) for letters, *_ in words) + 1):
        groups: dict = {}
        for i, (letters, *_) in enumerate(words):
            if len(letters) >= back:
                groups.setdefault(letters[-back], []).append(i)
        for letter, idx in groups.items():
            ms = np.stack([words[i][1][-back] for i in idx])
            pm = sys.letter_map(letter)
            states[idx] = (pm.adjoint() if adjoint else pm).push(
                ms[0] if len(idx) == 1 else ms, states[idx])
    return states


def _eval_words(sys: CorrelationSystem, words: list) -> np.ndarray:
    """The stack of values ``v* Π_{t1}(M_1)···Π_{tk}(M_k) v`` of a list of
    ``(letters, operators)`` words, by :func:`_push_words` from ``v``."""
    return dagger(sys.v) @ _push_words(
        sys, words, np.repeat(sys.v[None], len(words), axis=0))


def eval_W(sys: CorrelationSystem, t: TimeWord, ms,
           tol: Tolerance = DEFAULT_TOL, check_membership: bool = True
           ) -> np.ndarray:
    """``W_T(M⃗) = v* Π_{t1}(M_1)···Π_{tk}(M_k) v`` by :func:`_eval_words` on
    one word; :func:`verify_axioms` batches its probes' words."""
    letters = t.letters if isinstance(t, TimeWord) else TimeWord(t).letters
    ms = list(ms)
    if len(ms) != len(letters):
        raise ValueError(f"{len(letters)} letters but {len(ms)} operators")
    if check_membership:
        for m in ms:
            _require_within(_membership_defects(sys.algebra, m),
                            tol.bound("strict"),
                            "operator slot outside the algebra")
    return _eval_words(sys, [(letters, ms)])[0]


@dataclass(frozen=True)
class AxiomEntry:
    passed: bool
    residual: float
    note: str = ""


@dataclass(frozen=True)
class AxiomReport:
    entries: dict[str, AxiomEntry]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries.values())

    def to_json(self) -> dict:
        return {name: {"passed": e.passed, "residual": e.residual,
                       "note": e.note}
                for name, e in self.entries.items()}


def _condition(alg: FiniteVonNeumannAlgebra, draws: list) -> np.ndarray:
    """Condition raw draws, matrices or stacks of them, onto the algebra at
    unit norm, in place and in one stack; return their norms. A draw of
    norm ≤ 1e-12 becomes 1."""
    d = alg.dim_h
    ms = conditional_expectation(alg, np.concatenate(
        [np.reshape(x, (-1, d, d)) for x in draws]))
    norms = np.linalg.svd(ms, compute_uv=False).max(-1)
    small = norms <= 1e-12
    ms /= np.where(small, 1.0, norms)[:, None, None]
    ms[small] = np.eye(d)
    ends = np.cumsum([np.size(x) // (d * d) for x in draws])
    for x, member in zip(draws, np.split(ms, ends[:-1])):
        x[...] = member.reshape(np.shape(x))
    return norms


def _gram_spectra(rows: np.ndarray, cols: np.ndarray
                  ) -> tuple[float, np.ndarray]:
    """``‖G − G*‖`` and the ascending spectrum of ``(G + G*)/2`` for
    ``G = rows @ cols``, exactly, without forming it, from one QR
    ``[C*, R] = Q[T₁, T₂]`` (rank ≤ 2·dimL): ``G = Q A Q*`` with
    ``A = T₂T₁*``, so the norm is ``‖A − A*‖``, and the spectrum is that
    of the ≤ 2·dimL square ``(A + A*)/2`` and ``samples − 2·dimL``
    zeros."""
    t = np.linalg.qr(np.hstack((dagger(cols), rows)), mode="r")
    a = t[:, rows.shape[1]:] @ dagger(t[:, :rows.shape[1]])
    vals = np.linalg.eigvalsh((a + dagger(a)) / 2)
    return spectral_norm(a - dagger(a)), np.sort(
        np.concatenate([vals, np.zeros(len(rows) - len(vals))]))


def verify_axioms(sys: CorrelationSystem, depth: int, samples: int, seed: int,
                  tol: Tolerance = DEFAULT_TOL) -> AxiomReport:
    """Numerically verify the six correlation axioms plus adjoint symmetry.

    MC2 assembles a scalar Gram matrix over ``samples`` random
    (word, operators, vector) triples of length up to ``depth`` and
    certifies positive semidefiniteness; the remaining axioms are direct
    identity checks on random words. MC6 is structural for
    representation-stored systems (events evaluate as sums over their
    atoms by construction), so its entry reports the PVM property of the
    atom units, which is what a corrupted system breaks.
    Every sample is drawn from ``seed`` first, probe by probe, each probe
    in one draw per kind (word lengths, letters, members, slots, scalars,
    vectors; :func:`random_ginibre` for the complex ones), so the number
    of generator calls depends on neither ``samples`` nor ``depth``;
    members are then conditioned in one stack, and each probe's words are
    pushed in one batch. MC2 reads its spectrum off a factor of side
    ≤ 2·dimL (:func:`_gram_spectra`); only the formed Gram may fail it.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    entries: dict[str, AxiomEntry] = {}
    n_checks = max(8, samples // 8)
    alphabet = np.array([IN] + list(sys.outcomes.labels), dtype=object)
    raw: list[np.ndarray] = []

    def words(n: int = n_checks, extra: int = 0):
        """``n`` words of 1 to ``depth`` letters, their lengths and
        ``extra`` more members for each word, stacked ``(n, extra)``; the
        members are views of one stack in ``raw``."""
        lengths = rng.integers(1, depth + 1, n)
        ends = np.cumsum(lengths).tolist()
        letters = alphabet[rng.integers(len(alphabet), size=ends[-1])]
        raw.append(random_ginibre(rng, (ends[-1] + extra * n) * sys.dim_h,
                                  sys.dim_h).reshape(-1, sys.dim_h, sys.dim_h))
        ms = list(raw[-1][:ends[-1]])
        return ([(letters[a:b].tolist(), ms[a:b])
                 for a, b in zip([0] + ends, ends)], lengths,
                raw[-1][ends[-1]:].reshape(n, extra, sys.dim_h, sys.dim_h))

    plan_mc1, lengths, extras = words(extra=2)
    slots = rng.integers(lengths).tolist()
    alphas = random_ginibre(rng, n_checks, 1).ravel()
    plan_mc1 = [(letters, ms, slot, a, b, alpha) for (letters, ms), slot,
                (a, b), alpha in zip(plan_mc1, slots, extras, alphas)]
    plan_mc2, _, _ = words(samples)
    xis = random_ginibre(rng, samples, sys.dim_h)
    plan_mc3, _, extras = words(extra=1)
    plan_mc3 = [(letters, ms, m) for (letters, ms), (m,) in
                zip(plan_mc3, extras)]
    plan_mc4, lengths, extras = words(extra=1)
    plan_mc4 = [(letters, ms, slot, x) for (letters, ms), slot, (x,) in
                zip(plan_mc4, rng.integers(lengths).tolist(), extras)]
    plan_mc5, plan_adjoint, plan_closure = (words()[0] for _ in range(3))
    _condition(sys.algebra, raw)

    def probe(name: str, plan, words_of, residual, note: str = "",
              worst: float = 0.0, norm=spectral_norm) -> None:
        """Enter the worst ``norm`` of ``residual(w)``: every item's words
        ``words_of(*item)`` in one batch, ``w[j]`` their j-th values."""
        w = _eval_words(sys, [x for item in plan for x in words_of(*item)])
        w = w.reshape(len(plan), -1, *w.shape[1:]).swapaxes(0, 1)
        worst = max(worst, norm(residual(w)))
        entries[name] = AxiomEntry(worst <= tol.bound("loose"), float(worst),
                                   note)

    # MC1: separate linearity in each slot.
    def linearity(letters, ms, slot, a, b, alpha) -> list:
        return [(letters, ms[:slot] + [m] + ms[slot + 1:])  # m in the slot
                for m in (alpha * a + b, a, b)]

    alpha = alphas[:, None, None]
    probe("MC1", plan_mc1, linearity, lambda w: w[0] - (alpha * w[1] + w[2]),
          "linearity probes; ultraweak continuity is vacuous in finite "
          "dimension")

    # MC2: positive definiteness of the sampled word Gram matrix. Rows taken
    # as the columns' adjoints would make it PSD whatever the letter maps.
    bases = (xis / np.linalg.norm(xis, axis=1, keepdims=True)) @ sys.v.T
    cols = _push_words(sys, plan_mc2, bases[..., None].copy())[..., 0].T
    rows = _push_words(sys, plan_mc2, bases[..., None], True)[..., 0].conj()
    herm_res, vals = _gram_spectra(rows, cols)
    scale, min_eig = float(np.abs(vals).max()), float(vals.min())
    if not min_eig >= -tol.bound("psd", scale) / 2:
        gram = rows @ cols
        vals = np.linalg.eigvalsh((gram + dagger(gram)) / 2)
        scale, min_eig = float(np.abs(vals).max()), float(vals.min())
    mc2_res = max(0.0, -min_eig, herm_res)
    entries["MC2"] = AxiomEntry(
        min_eig >= -tol.bound("psd", scale) and herm_res <= tol.bound("loose"),
        mc2_res, f"Gram of {samples} sampled words, min eigenvalue {min_eig:.3e}")

    # MC3: left module property over the input letter.
    probe("MC3", plan_mc3, lambda letters, ms, m:
          [(letters, ms), ([IN] + letters, [m] + ms)],
          lambda w: np.stack([m for *_, m in plan_mc3]) @ w[0] - w[1])

    # MC4: merging adjacent equal letters with the operator product.
    def merge(letters, ms, pos, x) -> list:
        return [(letters[:pos + 1] + letters[pos:],
                 ms[:pos + 1] + [x] + ms[pos + 1:]),
                (letters, ms[:pos] + [ms[pos] @ x] + ms[pos + 1:])]

    probe("MC4", plan_mc4, merge, lambda w: w[0] - w[1])

    # MC5: unit normalization and unit-slot absorption.
    eye = np.eye(sys.dim_h)
    res_in, res_s = (spectral_norm(m) for m in _eval_words(
        sys, [([IN], [eye]), ([tuple(sys.outcomes.labels)], [eye])]) - eye)
    probe("MC5", plan_mc5, lambda letters, ms:
          [(letters + [IN], ms + [eye]), (letters, ms)], lambda w: w[0] - w[1],
          f"W_in(1) residual {res_in:.3e}, W_S(1) residual {res_s:.3e}",
          max(res_in, res_s))

    # MC6: additivity over atoms is structural here; what can break in a
    # stored system is the PVM property of the atom units, so that is
    # what this entry measures.
    pvm = is_pvm(sys.atom_units(), tol)
    entries["MC6"] = AxiomEntry(
        pvm.residual <= tol.bound("loose"), float(pvm.residual),
        "structural: events evaluate as sums over their atoms; residual is "
        "the atom-unit PVM defect")

    # Adjoint symmetry of the correlation family.
    probe("adjoint_symmetry", plan_adjoint, lambda letters, ms:
          [(letters, ms), (letters[::-1], _reverse_slots(ms))],
          lambda w: w[0].conj().swapaxes(1, 2) - w[1])

    # Closure: compressions land in the algebra.
    probe("closure", plan_closure, lambda letters, ms: [(letters, ms)],
          lambda w: w[0], "sampled W values projected onto the algebra",
          norm=lambda values: contains(sys.algebra, values, tol).residual)
    return AxiomReport(entries)


def induced_instrument(sys: CorrelationSystem, tol: Tolerance = DEFAULT_TOL
                       ) -> CPInstrument:
    """The instrument ``I(M, {s}) = W_{(s)}(M)`` with extracted Kraus data."""
    duals = {s: sys.pi_atom[s].compressed(sys.v).tensor
             for s in sys.outcomes.labels}
    return instrument_from_duals(sys.dim_h, sys.algebra, sys.outcomes, duals,
                                 tol)


def _process_system(dim_h: int, algebra: FiniteVonNeumannAlgebra,
                    outcomes: OutcomeSpace, u: np.ndarray,
                    e: dict[str, np.ndarray], eta: np.ndarray
                    ) -> CorrelationSystem:
    """The system of the process ``(u, e, eta)`` on ``H ⊗ C^k``, unchecked:
    ``Π_in(X) = X ⊗ 1`` by identity factors, ``Π_s(X) = U*(X ⊗ 1)(1 ⊗ E_s)U``
    by ``(U*, (1 ⊗ E_s)U)``, U* shared, and ``v ξ = ξ ⊗ η``.

    The system keeps ``(u, e, eta)`` as its private record ``_process``,
    from which :func:`~qdil.dilation.mp_from_correlations` builds its
    process. The record belongs to this instance: a
    ``dataclasses.replace`` copy carries none.
    """
    eta = np.asarray(eta, dtype=complex)
    dim_k = len(eta)
    dim_l = dim_h * dim_k
    eye, u_star = np.eye(dim_l), dagger(u)
    pi_atom = {s: PiMap.factored(
        u_star, (e[s] @ u.reshape(dim_h, dim_k, -1)).reshape(dim_l, dim_l),
        dim_k) for s in outcomes.labels}
    sys = CorrelationSystem(dim_h, algebra, outcomes, dim_l,
                            PiMap.factored(eye, eye, dim_k), pi_atom,
                            _kron(np.eye(dim_h), eta.reshape(-1, 1)),
                            validate=False)
    object.__setattr__(sys, "_process", (u, e, eta))
    return sys


def from_instrument(inst: CPInstrument, anchor: str | None = None,
                    tol: Tolerance = DEFAULT_TOL) -> CorrelationSystem:
    """Block construction of a correlation system from a CP instrument.

    The minimal instrument representation ``(K, π₀, E₀, V)`` lives on
    ``K = H ⊗ C^R``, so ``L = H ⊕ K`` is ``H ⊗ C^(1+R)``, meter index 0
    carrying the H summand. The system is that of the process with the
    block coupling ``U = [[0, −V*], [V, 1 − VV*]]``, pointer
    ``E_s = δ_{s,anchor}|0><0| ⊕ P_s`` (``E₀(s) = 1 ⊗ P_s``) and meter
    vector e₀, stored as :func:`_process_system` stores any process's, with
    ``(U, E, e₀)`` as its record: :func:`~qdil.dilation.mp_from_correlations`
    returns that process, U times ``1 ⊗ W`` under a ``completion_seed``.
    Its induced instrument is the input again. The system is not
    re-checked: its invariants follow from the instrument's completeness
    and the representation :func:`instrument_representation` checks.
    """
    from .dilation import instrument_representation

    anchor = inst.outcomes.labels[0] if anchor is None else str(anchor)
    if anchor not in inst.outcomes.labels:
        raise ValueError(f"unknown anchor label {anchor!r}")
    rep = instrument_representation(inst, tol)
    dim_h, dim_k = inst.dim_h, rep.dim_k
    r = dim_k // dim_h
    # u[a, m, b, n]: meter index m = 0 carries H, m = 1..R carry K.
    u = np.zeros((dim_h, 1 + r, dim_h, 1 + r), dtype=complex)
    u[:, 1:, :, 0] = rep.v.reshape(dim_h, r, dim_h)
    u[:, 0, :, 1:] = -dagger(rep.v).reshape(dim_h, dim_h, r)
    u[:, 1:, :, 1:] = (np.eye(dim_k) - rep.v @ dagger(rep.v)).reshape(
        dim_h, r, dim_h, r)
    # P_s's diagonal leads E₀(s)'s.
    e = {s: np.diag(np.append(s == anchor, rep.e0[s].diagonal()[:r]))
         for s in inst.outcomes.labels}
    return _process_system(dim_h, inst.algebra, inst.outcomes,
                           u.reshape(dim_h + dim_k, -1), e, np.eye(1 + r)[0])


class _SystemTable:
    """The correlation values of a system, for words up to ``max_len``."""

    def __init__(self, sys: CorrelationSystem, max_len: int):
        self.dim_h, self.outcomes, self.algebra = (sys.dim_h, sys.outcomes,
                                                   sys.algebra)
        self.max_len, self._sys = max_len, sys

    def w(self, letters, ms) -> np.ndarray:
        if len(letters) > self.max_len:
            raise ValueError(f"table depth exceeded: {len(letters)} letters")
        return eval_W(self._sys, TimeWord(tuple(letters)), list(ms),
                      check_membership=False)


def table_from_system(sys: CorrelationSystem, max_len: int) -> _SystemTable:
    return _SystemTable(sys, max_len)


def from_kernel_table(table, depth: int, generators,
                      tol: Tolerance = DEFAULT_TOL) -> CorrelationSystem:
    """Rebuild a correlation system from a bounded-depth value table.

    The table (such as :func:`table_from_system` returns) exposes
    ``dim_h``, ``outcomes``, ``algebra``, ``max_len`` and
    ``w(letters, ms) -> matrix`` for words up to ``max_len`` letters.

    Index vectors are words of (letter, operator) pairs over the
    generators plus the identity: the base ``(in, 1)``, which stands for
    the empty word, and every word of length at most ``depth`` that does
    not end in it (a trailing ``(in, 1)`` indexes the same vector). The
    block Gram matrix of these indices is factorized minimally; letter
    maps act by the index shift on the base and the words shorter than
    ``depth`` and vanish on its orthocomplement; ``v`` is the factor of
    the base.

    The output certifies reproduction of the table for words of length
    at most ``depth`` over the generators only (``certified_depth``); it
    carries ``validate=False`` because the zero-extension can break the
    unitality invariants outside the certified span.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    needed = 2 * depth
    if getattr(table, "max_len", needed) < needed:
        raise ValueError(
            f"table too shallow: depth {depth} needs words of length "
            f"{needed}, table supplies {table.max_len}")
    dim_h = table.dim_h
    glist = [np.eye(dim_h, dtype=complex)]
    for g in generators:
        gm = np.asarray(g, dtype=complex)
        if gm.shape != (dim_h, dim_h):
            raise ValueError("generator dimensions do not match the table")
        glist.append(gm)
    pairs = list(itertools.product([IN] + list(table.outcomes.labels),
                                   range(len(glist))))
    base = ((IN, 0),)
    indices = [base] + [w for length in range(1, depth + 1)
                        for w in itertools.product(pairs, repeat=length)
                        if w[-1] != base[0]]
    position = {w: i for i, w in enumerate(indices)}

    # Block (i, j) is ⟨index_i, index_j⟩ = W(index_i reversed, index_j)
    # with index_i's operators adjoined; block (j, i) is its adjoint,
    # written first so that a diagonal block keeps the table's value.
    n = len(indices)
    gram = np.zeros((n * dim_h, n * dim_h), dtype=complex)
    for i, a in enumerate(indices):
        for j in range(i, n):
            b = indices[j]
            value = np.asarray(table.w(
                tuple(t for t, _ in reversed(a)) + tuple(t for t, _ in b),
                _reverse_slots([glist[g] for _, g in a])
                + [glist[g] for _, g in b]), dtype=complex)
            if value.shape != (dim_h, dim_h):
                raise ValueError(f"table value of {a} against {b} has shape "
                                 f"{value.shape}, expected {(dim_h, dim_h)}")
            gram[j * dim_h:(j + 1) * dim_h, i * dim_h:(i + 1) * dim_h] = (
                dagger(value))
            gram[i * dim_h:(i + 1) * dim_h, j * dim_h:(j + 1) * dim_h] = value
    try:
        lam = psd_factorize(gram, dim_h, tol)
    except ValueError as exc:
        raise ValueError(f"table fails positive definiteness (MC2): {exc}"
                         ) from exc
    dim_l = lam[0].shape[0]

    domain = [w for w in indices if w == base or len(w) < depth]
    x_pinv = np.linalg.pinv(np.hstack([lam[position[w]] for w in domain]),
                            rcond=tol.bound("floor"))

    def shift(pair: tuple) -> np.ndarray:
        # The pair prepended to each domain word; the base is the empty word.
        return np.hstack([lam[position[(pair,) + (w if w != base else ())]]
                          for w in domain]) @ x_pinv

    # Linear extension of each letter map from the generator span to all
    # of B(H), through the conditional expectation onto the algebra:
    # coeffs[g, u] is the weight of generator g in E(e_u), u = (i, j).
    span = np.stack([g.reshape(-1) for g in glist], axis=1)
    span_pinv = np.linalg.pinv(span, rcond=tol.bound("floor"))
    units = np.eye(dim_h ** 2).reshape(-1, dim_h, dim_h)
    coeffs = span_pinv @ conditional_expectation(
        table.algebra, units).reshape(dim_h ** 2, -1).T

    def letter_map(t: str) -> PiMap:
        shifts = np.stack([shift((t, g)) for g in range(len(glist))])
        return PiMap(np.einsum("gu,gab->abu", coeffs, shifts).reshape(
            dim_l, dim_l, dim_h, dim_h))

    return CorrelationSystem(dim_h, table.algebra, table.outcomes, dim_l,
                             letter_map(IN),
                             {s: letter_map(s) for s in table.outcomes.labels},
                             lam[0], validate=False, certified_depth=depth)


def system_to_json(sys: CorrelationSystem) -> dict:
    def map_json(pm: PiMap) -> list:
        return matrix_to_json(pm.tensor.transpose(2, 3, 0, 1))

    return {
        "dimH": sys.dim_h,
        "dimL": sys.dim_l,
        "outcomes": list(sys.outcomes.labels),
        "pi_in": map_json(sys.pi_in),
        "pi_atoms": {s: map_json(sys.pi_atom[s])
                     for s in sys.outcomes.labels},
        "v": matrix_to_json(sys.v),
        "algebra": algebra_to_json(sys.algebra),
        "certified_depth": sys.certified_depth,
    }


def system_from_json(data, validate: bool = True) -> CorrelationSystem:
    _json_object(data, "correlation-system JSON",
                 ("dimH", "dimL", "outcomes", "pi_in", "pi_atoms", "v"))
    dim_h = _json_dim(data["dimH"], "correlation-system JSON 'dimH'")
    dim_l = _json_dim(data["dimL"], "correlation-system JSON 'dimL'")
    outcomes = _json_outcomes(data, "correlation-system")

    def map_from(name: str, js) -> PiMap:
        if not (isinstance(js, list) and len(js) == dim_h
                and all(isinstance(row, list) and len(row) == dim_h
                        for row in js)):
            raise ValueError(f"{name} must be a {dim_h}×{dim_h} nested list "
                             "of matrices")
        t = np.zeros((dim_l, dim_l, dim_h, dim_h), dtype=complex)
        for i, j in itertools.product(range(dim_h), repeat=2):
            m = matrix_from_json(js[i][j])
            if m.shape != (dim_l, dim_l):
                raise ValueError(f"{name}[{i}][{j}] has shape {m.shape}, "
                                 f"expected {(dim_l, dim_l)}")
            t[:, :, i, j] = m
        return PiMap(t)

    pi_atoms = _json_object(data["pi_atoms"],
                            "correlation-system JSON 'pi_atoms'")
    depth = data.get("certified_depth")
    if depth is not None:
        _json_dim(depth, "correlation-system JSON 'certified_depth'")
    return CorrelationSystem(
        dim_h, _json_algebra(data, dim_h), outcomes, dim_l,
        map_from("pi_in", data["pi_in"]),
        {s: map_from(f"pi_atoms[{s!r}]", js) for s, js in pi_atoms.items()},
        matrix_from_json(data["v"]),
        validate=validate,
        certified_depth=depth,
    )
