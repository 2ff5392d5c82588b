"""The batched word evaluator against a plain product of letter tensors."""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np
import pytest

from conftest import random_cp_instrument
from qdil.correlations import (
    IN,
    _eval_words,
    eval_W,
    from_instrument,
    from_kernel_table,
    system_from_json,
    system_to_json,
    table_from_system,
)
from qdil.instrument import luders_instrument

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
    values = _eval_words(sys_c, words)
    assert values.shape == (len(words), sys_c.dim_h, sys_c.dim_h)
    for value, (letters, ms) in zip(values, words):
        want = plain_value(sys_c, letters, ms)
        bound = 1e-12 * (1 + np.linalg.norm(value))
        assert np.linalg.norm(value - want) <= bound
        alone = eval_W(sys_c, tuple(letters), ms, check_membership=False)
        assert np.linalg.norm(alone - want) <= bound
