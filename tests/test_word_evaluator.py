"""The batched word evaluator against a plain product of letter tensors,
and bit for bit against the list-based walk it replaced."""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np
import pytest

import qdil.correlations
from conftest import coded_words, listed_words, random_cp_instrument
from qdil.correlations import (
    IN,
    _eval_words,
    _push_words,
    eval_W,
    from_instrument,
    from_kernel_table,
    system_from_json,
    system_to_json,
    table_from_system,
    verify_axioms,
)
from qdil.instrument import luders_instrument
from qdil.operator_core import dagger, random_ginibre

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


@functools.cache
def systems() -> dict:
    """Factored maps (``from_instrument``) and tensor-stored ones (a JSON
    round trip, ``from_kernel_table``)."""
    factored = from_instrument(random_cp_instrument(
        np.random.default_rng(11), 2, 3, kraus_per_outcome=2))
    wide = from_instrument(random_cp_instrument(
        np.random.default_rng(12), 3, 2))
    return {
        "from_instrument 2/3/2": factored,
        "from_instrument 3/2/1": wide,
        "system_from_json 2/3/2": system_from_json(
            json.loads(json.dumps(system_to_json(factored)))),
        "from_kernel_table": from_kernel_table(
            table_from_system(from_instrument(luders_instrument([P0, P1])),
                              4), 2, [P0, P1, SX]),
    }


def letter_tensor(sys_c, letter) -> np.ndarray:
    if letter == IN:
        return sys_c.pi_in.tensor
    if isinstance(letter, str):
        return sys_c.pi_atom[letter].tensor
    return sum(sys_c.pi_atom[s].tensor for s in letter)


def plain_value(sys_c, letters, ms) -> np.ndarray:
    """``v* Π_{t1}(M_1)···Π_{tk}(M_k) v``, each ``Π_t(M)`` formed from its
    tensor and the product taken left to right."""
    product = np.eye(sys_c.dim_l)
    for letter, m in zip(letters, ms):
        product = product @ np.einsum("abij,ij->ab",
                                      letter_tensor(sys_c, letter), m)
    return sys_c.v.conj().T @ product @ sys_c.v


@st.composite
def batches(draw):
    """A system and a batch of 1–6 words of 1–4 letters: the input, atoms
    and events of two or more atoms, with drawn complex operators."""
    name = draw(st.sampled_from(sorted(systems())))
    sys_c = systems()[name]
    labels = sys_c.outcomes.labels
    alphabet = [IN, *labels] + [
        event for size in range(2, len(labels) + 1)
        for event in itertools.combinations(labels, size)]
    words = draw(st.lists(st.lists(st.sampled_from(alphabet), min_size=1,
                                   max_size=4), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (sys_c.dim_h, sys_c.dim_h)
    return name, [(letters, [rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape)
                             for _ in letters]) for letters in words]


@hypothesis.settings(deadline=None, max_examples=80)
@hypothesis.given(batches())
def test_batched_values_are_the_plain_products(batch):
    name, words = batch
    sys_c = systems()[name]
    values = _eval_words(sys_c, coded_words(words))
    assert values.shape == (len(words), sys_c.dim_h, sys_c.dim_h)
    for value, (letters, ms) in zip(values, words):
        want = plain_value(sys_c, letters, ms)
        bound = 1e-12 * (1 + np.linalg.norm(value))
        assert np.linalg.norm(value - want) <= bound
        alone = eval_W(sys_c, tuple(letters), ms, check_membership=False)
        assert np.linalg.norm(alone - want) <= bound


def _reference_push_words(sys, words, states, adjoint=False):
    """The list-based walk the array-coded batches replaced, as it was: the
    stack ``states`` of a list of ``(letters, operators, ...)`` words
    pushed in place through them (through ``Π(X*)*`` if ``adjoint``) from
    their last letters, each letter's words grouped and their operators
    stacked at every position."""
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


@hypothesis.settings(deadline=None, max_examples=80)
@hypothesis.given(batches(), st.booleans(), st.integers(1, 3))
def test_coded_pushes_are_the_list_walk_bit_for_bit(batch, adjoint, width):
    """Forward and adjoint pushes of drawn states through a batch, whose
    columns hold lone words and event letters as often as shared ones."""
    name, words = batch
    sys_c = systems()[name]
    states = random_ginibre(np.random.default_rng(len(words)),
                            len(words) * sys_c.dim_l, width).reshape(
        len(words), sys_c.dim_l, width)
    want = _reference_push_words(sys_c, words, states.copy(), adjoint)
    got = _push_words(sys_c, coded_words(words), states.copy(), adjoint)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("name", ["from_instrument 2/3/2",
                                  "system_from_json 2/3/2"])
def test_lone_words_and_events_push_as_the_list_walk(name, adjoint):
    """A column whose letter one word alone holds pushes that word's one
    operator; an event letter pushes through its summed map."""
    sys_c = systems()[name]
    a, b, c = sys_c.outcomes.labels
    rng = np.random.default_rng(3)
    words = [(letters, list(random_ginibre(rng, len(letters) * sys_c.dim_h,
                                           sys_c.dim_h).reshape(
        len(letters), sys_c.dim_h, sys_c.dim_h)))
        for letters in ([IN, a], [(a, b), a], [b], [(a, b), c, (a, b, c)])]
    states = np.repeat(sys_c.v[None], len(words), axis=0)
    want = _reference_push_words(sys_c, words, states.copy(), adjoint)
    got = _push_words(sys_c, coded_words(words), states.copy(), adjoint)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", sorted(systems()))
def test_eval_w_reads_each_operator_in_its_own_memory_order(name):
    """``eval_W`` is the list walk on one word bit for bit, also when some
    operators come as transposed views, as ``from_kernel_table``'s
    adjoined slots do."""
    sys_c = systems()[name]
    rng = np.random.default_rng(5)
    g, h = (random_ginibre(rng, sys_c.dim_h) for _ in range(2))
    letters = [IN, sys_c.outcomes.labels[-1], IN]
    for ms in ([dagger(g), h, dagger(h)], [g, dagger(g), h]):
        want = dagger(sys_c.v) @ _reference_push_words(
            sys_c, [(letters, ms)], sys_c.v[None].copy())[0]
        got = eval_W(sys_c, tuple(letters), ms, check_membership=False)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["from_instrument 2/3/2",
                                  "system_from_json 2/3/2"])
def test_axiom_suite_batches_push_as_the_list_walk(monkeypatch, name):
    """Every batch ``verify_axioms`` pushes (its probes' values, MC5's unit
    words, MC2's columns and rows) gives the list walk's states bit for
    bit, on factored and on tensor-stored letter maps."""
    sys_c, push, seen = systems()[name], _push_words, []

    def recorded(sys, words, states, adjoint=False):
        before = states.copy()
        seen.append((words, before, adjoint, push(sys, words, states,
                                                  adjoint).copy()))
        return seen[-1][3]

    monkeypatch.setattr(qdil.correlations, "_push_words", recorded)
    assert verify_axioms(sys_c, 3, 200, seed=4).all_pass
    assert [adjoint for *_, adjoint, _ in seen] == [False] * 2 + [True] + [
        False] * 6
    for words, before, adjoint, got in seen:
        want = _reference_push_words(sys_c, listed_words(words), before,
                                     adjoint)
        assert got.tobytes() == want.tobytes()
