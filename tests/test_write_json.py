"""The CLI's artifact writer against ``json.dumps``, byte for byte, on
drawn documents."""

from __future__ import annotations

import json

import numpy as np
import pytest

import qdil.cli
from qdil.operator_core import matrix_to_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Signed zeros, the smallest subnormal and another, the smallest normal,
# the largest double, both sides of repr's switch to exponents (1e16,
# 1e-5), a sum that needs 17 digits and integral floats.
AWKWARD = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
           1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-5, 1e-4,
           0.1 + 0.2, 1.0, 2.0, 1e22]
MAGNITUDES = (st.sampled_from(AWKWARD)
              | st.floats(0, allow_nan=False, allow_infinity=False))
KEYS = st.text(max_size=4)  # non-ASCII and "\0" included
PLAIN = st.lists(st.integers() | st.booleans() | st.none() | st.text()
                 | st.floats(allow_nan=False, allow_infinity=False),
                 max_size=4)


@st.composite
def matrices(draw):
    """A matrix or a stack of them, at most three per axis, zero-length
    axes included, its entries a few magnitudes with either sign."""
    shape = draw(st.lists(st.integers(0, 3), min_size=2, max_size=4))
    if len(shape) > 2:  # matrix_to_json reshapes by the last axis
        shape[-1] = draw(st.integers(1, 3))
    pool = draw(st.lists(MAGNITUDES, min_size=1, max_size=4))
    size = int(np.prod(shape))
    parts = []
    for _ in range(2):
        mags = draw(st.lists(st.sampled_from(pool), min_size=size,
                             max_size=size))
        signs = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        parts.append(np.reshape([-m if s else m for m, s in zip(mags, signs)],
                                shape))
    z = np.empty(shape, dtype=complex)  # keeps the signs of both parts
    z.real, z.imag = parts
    return matrix_to_json(z)


VALUES = matrices() | PLAIN | st.integers() | st.text() | st.none()
DOCUMENTS = st.dictionaries(KEYS, VALUES | st.dictionaries(KEYS, VALUES,
                                                           max_size=3),
                            max_size=5)


def assert_written_as_dumped(path, doc):
    qdil.cli._write_json(str(path), doc)
    want = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert path.read_bytes() == want.encode()


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("write_json") / "doc.json"


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(doc=DOCUMENTS, unique_min=st.sampled_from([0, 1, 12]))
# one magnitude with both signs and a mark-like key next to a matrix
@hypothesis.example(doc={"\0": "\0", "é": matrix_to_json(
    np.array([[-0.5, 0.5j], [-0.0, 5e-324 - 5e-324j]]))}, unique_min=0)
def test_writer_bytes_equal_the_compact_sorted_dump(out, doc, unique_min):
    """Every matrix of at least ``unique_min`` floats takes the formatting
    by magnitude; each example overwrites the last one's longer file."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qdil.cli, "_UNIQUE_MIN", unique_min)
        assert_written_as_dumped(out, doc)


def test_a_large_matrix_is_formatted_by_magnitude(tmp_path, monkeypatch):
    """At the default threshold a letter-map-sized matrix, with repeated
    magnitudes of both signs, takes the ``np.unique`` path."""
    rng = np.random.default_rng(0)
    pool = rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8, 50)
    z = rng.choice(pool, (2, 2, 24, 24)) + 1j * rng.choice(pool, (2, 2, 24, 24))
    doc = {"big": matrix_to_json(z), "small": matrix_to_json(np.eye(2))}
    calls = []
    text = qdil.cli._matrix_text
    monkeypatch.setattr(qdil.cli, "_matrix_text",
                        lambda floats: calls.append(floats.shape)
                        or text(floats))
    assert_written_as_dumped(tmp_path / "big.json", doc)
    assert calls == [(2, 2, 24, 24, 2)]
