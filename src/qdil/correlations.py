"""Systems of measurement correlations.

A system is stored as a representation triplet: a space ``C^dimL``, one
operator-valued map per letter (the input letter ``"in"`` plus one per
outcome atom), and an isometry ``v: C^dimH → C^dimL``. Correlation
values are compressions ``W_T(M⃗) = v* Π_{t1}(M_1)···Π_{tk}(M_k) v``;
event letters evaluate through the sums of their atoms' maps.

Two constructions are provided: `from_instrument` builds the block
system of a CP instrument (through its minimal instrument
representation), and `from_kernel_table` rebuilds a system from a
bounded-depth table of correlation values by a Kolmogorov factorization
of the word Gram kernel plus shift operators.
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
    _json_object,
    _require_within,
    dagger,
    is_pvm,
    matrix_from_json,
    matrix_to_json,
    matrix_units,
    pvm_within,
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


@dataclass(frozen=True)
class PiMap:
    """A linear operator-valued map ``M ↦ Π(M)`` stored as a 4-tensor.

    ``tensor[a, b, i, j]`` is ``Π(e_ij)[a, b]``, so application is a
    single contraction and linearity is structural.
    """

    tensor: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        t = np.asarray(self.tensor, dtype=complex)
        if t.ndim != 4 or t.shape[0] != t.shape[1] or t.shape[2] != t.shape[3]:
            raise ValueError(f"bad PiMap tensor shape {t.shape}")
        object.__setattr__(self, "tensor", t)

    @property
    def dim_out(self) -> int:
        return self.tensor.shape[0]

    @property
    def dim_in(self) -> int:
        return self.tensor.shape[2]

    def apply(self, m) -> np.ndarray:
        return np.einsum("abij,ij->ab", self.tensor,
                         np.asarray(m, dtype=complex))

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
    """Representation triplet ``(C^dimL, {Π_t}, v)`` of a correlation system."""

    dim_h: int
    algebra: FiniteVonNeumannAlgebra
    outcomes: OutcomeSpace
    dim_l: int
    pi_in: PiMap = field(repr=False)
    pi_atom: dict[str, PiMap] = field(repr=False)
    v: np.ndarray = field(repr=False)
    validate: bool = True
    certified_depth: int | None = None

    def __post_init__(self) -> None:
        vv = np.asarray(self.v, dtype=complex)
        if vv.shape != (self.dim_l, self.dim_h):
            raise ValueError(f"v has shape {vv.shape}, "
                             f"expected {(self.dim_l, self.dim_h)}")
        object.__setattr__(self, "v", vv)
        if set(self.pi_atom) != set(self.outcomes.labels):
            raise ValueError("pi_atom labels do not match the outcome space")
        if self.validate:
            self.require_valid()

    def letter_map(self, letter) -> PiMap:
        if letter == IN:
            return self.pi_in
        if isinstance(letter, str):
            if letter not in self.pi_atom:
                raise ValueError(f"unknown letter {letter!r}")
            return self.pi_atom[letter]
        atoms = self.outcomes.event(letter)
        return PiMap(sum(self.pi_atom[s].tensor for s in atoms))

    def atom_units(self) -> dict[str, np.ndarray]:
        eye = np.eye(self.dim_h)
        return {s: self.pi_atom[s].apply(eye) for s in self.outcomes.labels}

    def require_valid(self, tol: Tolerance = DEFAULT_TOL) -> None:
        """Exact structural invariants; cheap enough to run at construction.

        Checks each letter map is *-preserving and multiplicative on a
        basis of the algebra, that ``Π_in`` is unital with the atoms'
        units forming a PVM, and that ``v`` is an intertwining isometry.
        Each letter map is applied to the whole basis stack with one
        matrix product; products of basis pairs are formed one basis row
        at a time, so memory stays linear in the basis size.
        """
        tol_scale = tol.abs * (1 + self.dim_l)
        basis = np.stack(self.algebra.basis())
        n, dim_l = len(basis), self.dim_l

        def apply_all(pm: PiMap, ms: np.ndarray) -> np.ndarray:
            flat = pm.tensor.reshape(dim_l * dim_l, -1)
            return (ms.reshape(len(ms), -1) @ flat.T).reshape(-1, dim_l,
                                                              dim_l)

        def adjoints(ms: np.ndarray) -> np.ndarray:
            return ms.conj().transpose(0, 2, 1)

        for name, pm in [(IN, self.pi_in)] + sorted(self.pi_atom.items()):
            images = apply_all(pm, basis)
            _require_within(apply_all(pm, adjoints(basis)) - adjoints(images),
                            tol_scale, f"Π_{name} is not *-preserving")
            for i in range(n):
                _require_within(images[i] @ images
                                - apply_all(pm, basis[i] @ basis), tol_scale,
                                f"Π_{name} is not multiplicative on the "
                                "algebra")
        _require_within(self.pi_in.apply(np.eye(self.dim_h)) - np.eye(dim_l),
                        tol_scale, "Π_in is not unital")
        units = self.atom_units()
        if not pvm_within(units, tol_scale):
            raise ValueError(f"atom units are not a PVM "
                             f"(residual {is_pvm(units, tol).residual:.3e})")
        _require_within(dagger(self.v) @ self.v - np.eye(self.dim_h),
                        tol_scale, "v is not an isometry")
        _require_within(apply_all(self.pi_in, basis) @ self.v
                        - self.v @ basis, tol_scale,
                        "v does not intertwine Π_in")


def _check_members(sys: CorrelationSystem, ms, tol: Tolerance) -> list[np.ndarray]:
    out = []
    for m in ms:
        mm = np.asarray(m, dtype=complex)
        rep = contains(sys.algebra, mm, tol)
        if not rep.ok:
            raise ValueError("operator slot outside the algebra "
                             f"(residual {rep.residual:.3e})")
        out.append(mm)
    return out


def _push(sys: CorrelationSystem, letters, ms, state: np.ndarray
          ) -> np.ndarray:
    """``Π_{t1}(M_1)···Π_{tk}(M_k) state``, the last letter applied first."""
    for letter, m in zip(reversed(letters), reversed(ms)):
        state = sys.letter_map(letter).apply(m) @ state
    return state


def eval_W(sys: CorrelationSystem, t: TimeWord, ms,
           tol: Tolerance = DEFAULT_TOL, check_membership: bool = True
           ) -> np.ndarray:
    """Evaluate ``W_T(M⃗) = v* Π_{t1}(M_1)···Π_{tk}(M_k) v``."""
    letters = t.letters if isinstance(t, TimeWord) else TimeWord(t).letters
    ms = list(ms)
    if len(ms) != len(letters):
        raise ValueError(f"{len(letters)} letters but {len(ms)} operators")
    if check_membership:
        ms = _check_members(sys, ms, tol)
    return dagger(sys.v) @ _push(sys, letters, ms, sys.v)


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


def _random_member(rng: np.random.Generator, alg: FiniteVonNeumannAlgebra
                   ) -> np.ndarray:
    m = conditional_expectation(alg, random_ginibre(rng, alg.dim_h))
    norm = spectral_norm(m)
    return m / norm if norm > 1e-12 else np.eye(alg.dim_h)


def _random_word(rng: np.random.Generator, sys: CorrelationSystem,
                 depth: int) -> tuple[list, list[np.ndarray]]:
    length = int(rng.integers(1, depth + 1))
    alphabet = [IN] + list(sys.outcomes.labels)
    letters = [alphabet[int(rng.integers(len(alphabet)))] for _ in range(length)]
    ms = [_random_member(rng, sys.algebra) for _ in range(length)]
    return letters, ms


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
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    entries: dict[str, AxiomEntry] = {}
    n_checks = max(8, samples // 8)

    def w(letters, ms) -> np.ndarray:
        return eval_W(sys, TimeWord(tuple(letters)), ms, tol,
                      check_membership=False)

    def probe(name: str, residual, note: str = "", worst: float = 0.0
              ) -> None:
        """Enter the worst ``residual(letters, ms)`` over random words."""
        for _ in range(n_checks):
            letters, ms = _random_word(rng, sys, depth)
            worst = max(worst, residual(letters, ms))
        entries[name] = AxiomEntry(worst <= tol.abs * 100, float(worst), note)

    # MC1: separate linearity in each slot.
    def linearity(letters, ms) -> float:
        slot = int(rng.integers(len(ms)))
        a = _random_member(rng, sys.algebra)
        b = _random_member(rng, sys.algebra)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        ms_ab, ms_a, ms_b = list(ms), list(ms), list(ms)
        ms_ab[slot], ms_a[slot], ms_b[slot] = alpha * a + b, a, b
        return spectral_norm(w(letters, ms_ab)
                             - (alpha * w(letters, ms_a) + w(letters, ms_b)))

    probe("MC1", linearity, "linearity probes; ultraweak continuity is "
                            "vacuous in finite dimension")

    # MC2: positive definiteness of the sampled word Gram matrix.
    rows = np.zeros((samples, sys.dim_l), dtype=complex)
    cols = np.zeros((sys.dim_l, samples), dtype=complex)
    for i in range(samples):
        letters, ms = _random_word(rng, sys, depth)
        xi = random_ginibre(rng, sys.dim_h, 1).reshape(-1)
        base = sys.v @ (xi / np.linalg.norm(xi))
        # The row is pushed from the left through the reversed word, not
        # taken as the adjoint of the column: that would make the Gram
        # matrix PSD whatever the letter maps are.
        row = dagger(base)
        for letter, m in zip(reversed(letters), _reverse_slots(ms)):
            row = row @ sys.letter_map(letter).apply(m)
        rows[i] = row
        cols[:, i] = _push(sys, letters, ms, base)
    gram = rows @ cols
    herm_res = spectral_norm(gram - dagger(gram))
    vals = np.linalg.eigvalsh((gram + dagger(gram)) / 2)
    scale = float(np.abs(vals).max())
    min_eig = float(vals.min())
    mc2_res = max(0.0, -min_eig, herm_res)
    entries["MC2"] = AxiomEntry(
        min_eig >= -tol.psd_slack * (1 + scale) and herm_res <= tol.abs * 100,
        mc2_res, f"Gram of {samples} sampled words, min eigenvalue {min_eig:.3e}")

    # MC3: left module property over the input letter.
    def left_module(letters, ms) -> float:
        m = _random_member(rng, sys.algebra)
        return spectral_norm(m @ w(letters, ms) - w([IN] + letters, [m] + ms))

    probe("MC3", left_module)

    # MC4: merging adjacent equal letters with the operator product.
    def merge(letters, ms) -> float:
        pos = int(rng.integers(len(letters)))
        extra = _random_member(rng, sys.algebra)
        merged = list(ms)
        merged[pos] = ms[pos] @ extra
        doubled = w(letters[:pos + 1] + [letters[pos]] + letters[pos + 1:],
                    ms[:pos + 1] + [extra] + ms[pos + 1:])
        return spectral_norm(doubled - w(letters, merged))

    probe("MC4", merge)

    # MC5: unit normalization and unit-slot absorption.
    eye = np.eye(sys.dim_h)
    res_in = spectral_norm(w([IN], [eye]) - eye)
    res_s = spectral_norm(w([tuple(sys.outcomes.labels)], [eye]) - eye)
    probe("MC5", lambda letters, ms: spectral_norm(
              w(letters + [IN], ms + [eye]) - w(letters, ms)),
          f"W_in(1) residual {res_in:.3e}, W_S(1) residual {res_s:.3e}",
          max(res_in, res_s))

    # MC6: additivity over atoms is structural here; what can break in a
    # stored system is the PVM property of the atom units, so that is
    # what this entry measures.
    pvm = is_pvm(sys.atom_units(), tol)
    entries["MC6"] = AxiomEntry(
        pvm.residual <= tol.abs * 100, float(pvm.residual),
        "structural: events evaluate as sums over their atoms; residual is "
        "the atom-unit PVM defect")

    # Adjoint symmetry of the correlation family.
    probe("adjoint_symmetry", lambda letters, ms: spectral_norm(
        dagger(w(letters, ms)) - w(letters[::-1], _reverse_slots(ms))))

    # Closure: compressions land in the algebra.
    probe("closure",
          lambda letters, ms: contains(sys.algebra, w(letters, ms),
                                       tol).residual,
          "sampled W values projected onto the algebra")
    return AxiomReport(entries)


def induced_instrument(sys: CorrelationSystem, tol: Tolerance = DEFAULT_TOL
                       ) -> CPInstrument:
    """The instrument ``I(M, {s}) = W_{(s)}(M)`` with extracted Kraus data."""
    v = sys.v
    duals = {s: np.einsum("xa,xyij,yb->abij", v.conj(), sys.pi_atom[s].tensor,
                          v, optimize=True)
             for s in sys.outcomes.labels}
    return instrument_from_duals(sys.dim_h, sys.algebra, sys.outcomes, duals,
                                 tol.abs * 100, tol)


def from_instrument(inst: CPInstrument, anchor: str | None = None,
                    tol: Tolerance = DEFAULT_TOL,
                    validate: bool = True) -> CorrelationSystem:
    """Block construction of a correlation system from a CP instrument.

    The minimal instrument representation ``(K, π₀, E₀, V₀)`` gives the
    space ``L = H ⊕ K`` with ``Π_in(M) = diag(M, π₀(M))``, the pointer
    projections ``E({s}) = diag(δ_{s,anchor}·1, E₀({s}))``, the block
    unitary ``U = [[0, -V₀*], [V₀, 1-V₀V₀*]]``, letter maps
    ``Π_s(M) = U* Π_in(M) E({s}) U``, and the inclusion of ``H`` as the
    first summand for ``v``. Its induced instrument is the input again.
    ``validate`` is passed on to :func:`instrument_representation`.
    """
    from .dilation import instrument_representation

    anchor = inst.outcomes.labels[0] if anchor is None else str(anchor)
    if anchor not in inst.outcomes.labels:
        raise ValueError(f"unknown anchor label {anchor!r}")
    rep = instrument_representation(inst, tol, validate)
    dim_h, dim_k = inst.dim_h, rep.dim_k
    dim_l = dim_h + dim_k

    v0 = rep.v
    q = np.eye(dim_k) - v0 @ dagger(v0)
    u = np.zeros((dim_l, dim_l), dtype=complex)
    u[:dim_h, dim_h:] = -dagger(v0)
    u[dim_h:, :dim_h] = v0
    u[dim_h:, dim_h:] = q

    pi_in_t = np.zeros((dim_l, dim_l, dim_h, dim_h), dtype=complex)
    pi_in_t[:dim_h, :dim_h] = _transport(np.eye(dim_h), np.eye(dim_h), 1)
    pi_in_t[dim_h:, dim_h:] = rep.pi0.tensor

    events = {}
    for s in inst.outcomes.labels:
        e = np.zeros((dim_l, dim_l), dtype=complex)
        if s == anchor:
            e[:dim_h, :dim_h] = np.eye(dim_h)
        e[dim_h:, dim_h:] = rep.e0[s]
        events[s] = e

    pi_atom = {}
    for s in inst.outcomes.labels:
        t = np.einsum("xa,xyij,yk,kb->abij", u.conj(), pi_in_t, events[s], u,
                      optimize=True)
        pi_atom[s] = PiMap(t)

    return CorrelationSystem(dim_h, inst.algebra, inst.outcomes, dim_l,
                             PiMap(pi_in_t), pi_atom, np.eye(dim_l, dim_h))


class _SystemTable:
    """The correlation values of a system, for words up to ``max_len``."""

    def __init__(self, sys: CorrelationSystem, max_len: int):
        self.dim_h = sys.dim_h
        self.outcomes = sys.outcomes
        self.algebra = sys.algebra
        self.max_len = max_len
        self._sys = sys

    def w(self, letters, ms) -> np.ndarray:
        if len(letters) > self.max_len:
            raise ValueError(f"table depth exceeded: {len(letters)} letters")
        return eval_W(self._sys, TimeWord(tuple(letters)), list(ms),
                      check_membership=False)


def table_from_system(sys: CorrelationSystem, max_len: int) -> _SystemTable:
    return _SystemTable(sys, max_len)


def _normalize_index(letters: tuple, ops: tuple[int, ...]) -> tuple:
    while len(letters) > 1 and letters[-1] == IN and ops[-1] == 0:
        letters = letters[:-1]
        ops = ops[:-1]
    return letters, ops


def from_kernel_table(table, depth: int, generators,
                      tol: Tolerance = DEFAULT_TOL) -> CorrelationSystem:
    """Rebuild a correlation system from a bounded-depth value table.

    The table (such as :func:`table_from_system` returns) exposes
    ``dim_h``, ``outcomes``, ``algebra``, ``max_len`` and
    ``w(letters, ms) -> matrix`` for words up to ``max_len`` letters.

    Index vectors are (word, operator-tuple) pairs over the generators
    plus the identity, with trailing identity-input pairs stripped (they
    index the same vector). The Gram kernel of these indices is
    factorized minimally; letter maps act by the index shift on the
    depth-(d-1) span and vanish on its orthocomplement; ``v`` is the
    factor of the base index.

    The output certifies reproduction of the table for words of length
    at most ``depth`` over the generators only (``certified_depth``); it
    carries ``validate=False`` because the zero-extension can break the
    unitality invariants outside the certified span.
    """
    from .kolmogorov import OperatorKernel, minimal_decomposition

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
    alphabet = [IN] + list(table.outcomes.labels)

    indices: list[tuple] = []
    seen = set()

    def add(letters: tuple, ops: tuple[int, ...]) -> None:
        key = _normalize_index(letters, ops)
        if key not in seen:
            seen.add(key)
            indices.append(key)

    add((IN,), (0,))
    # Breadth-first enumeration keeps label order deterministic.
    words: list[tuple] = [((), ())]
    for _ in range(depth):
        new_words = []
        for letters, ops in words:
            if len(letters) >= depth:
                continue
            for t in alphabet:
                for gi in range(len(glist)):
                    nw = (letters + (t,), ops + (gi,))
                    new_words.append(nw)
        for nw in new_words:
            add(*nw)
        words = new_words

    labels = [str(i) for i in range(len(indices))]
    label_of = {idx: lab for idx, lab in zip(indices, labels)}

    def slots(ops: tuple[int, ...]) -> list[np.ndarray]:
        return [glist[gi] for gi in ops]

    def kernel_entry(a: tuple, b: tuple) -> np.ndarray:
        la, oa = a
        lb, ob = b
        letters = tuple(reversed(la)) + lb
        ms = _reverse_slots(slots(oa)) + slots(ob)
        return table.w(letters, ms)

    entries = {}
    for i, a in enumerate(indices):
        for j, b in enumerate(indices):
            if i <= j:
                entries[(labels[i], labels[j])] = kernel_entry(a, b)
    try:
        kernel = OperatorKernel(tuple(labels), dim_h, entries, tol)
        decomp = minimal_decomposition(kernel, tol)
    except ValueError as exc:
        raise ValueError(f"table fails positive definiteness (MC2): {exc}"
                         ) from exc
    dim_l = decomp.dim_l
    lam = {idx: decomp.factors[label_of[idx]] for idx in indices}

    domain = [idx for idx in indices if len(idx[0]) <= depth - 1]
    x = np.hstack([lam[idx] for idx in domain])
    x_pinv = np.linalg.pinv(x, rcond=max(tol.abs, 1e-12))

    shift: dict[tuple[str, int], np.ndarray] = {}
    for t in alphabet:
        for gi in range(len(glist)):
            targets = []
            for letters, ops in domain:
                tgt = _normalize_index((t,) + letters, (gi,) + ops)
                targets.append(lam[tgt])
            y = np.hstack(targets)
            shift[(t, gi)] = y @ x_pinv

    # Linear extension of each letter map from the generator span to all
    # of B(H), through the conditional expectation onto the algebra:
    # coeffs[g, u] is the weight of generator g in E(e_u), u = (i, j).
    span = np.stack([g.reshape(-1) for g in glist], axis=1)
    span_pinv = np.linalg.pinv(span, rcond=max(tol.abs, 1e-12))
    units = np.eye(dim_h ** 2).reshape(-1, dim_h, dim_h)
    coeffs = span_pinv @ conditional_expectation(
        table.algebra, units).reshape(dim_h ** 2, -1).T

    def letter_tensor(t: str) -> PiMap:
        shifts = np.stack([shift[(t, gi)] for gi in range(len(glist))])
        return PiMap(np.einsum("gu,gab->abu", coeffs, shifts).reshape(
            dim_l, dim_l, dim_h, dim_h))

    pi_in = letter_tensor(IN)
    pi_atom = {s: letter_tensor(s) for s in table.outcomes.labels}
    v = lam[((IN,), (0,))]
    return CorrelationSystem(dim_h, table.algebra, table.outcomes, dim_l,
                             pi_in, pi_atom, v, validate=False,
                             certified_depth=depth)


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
        for i in range(dim_h):
            for j in range(dim_h):
                m = matrix_from_json(js[i][j])
                if m.shape != (dim_l, dim_l):
                    raise ValueError(f"{name}[{i}][{j}] has shape {m.shape}, "
                                     f"expected {(dim_l, dim_l)}")
                t[:, :, i, j] = m
        return PiMap(t)

    pi_atoms = _json_object(data["pi_atoms"],
                            "correlation-system JSON 'pi_atoms'")
    return CorrelationSystem(
        dim_h, _json_algebra(data, dim_h), outcomes, dim_l,
        map_from("pi_in", data["pi_in"]),
        {s: map_from(f"pi_atoms[{s!r}]", js) for s, js in pi_atoms.items()},
        matrix_from_json(data["v"]),
        validate=validate,
        certified_depth=data.get("certified_depth"),
    )
