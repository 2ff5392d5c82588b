"""Shared builders for the test suite."""

from __future__ import annotations

import dataclasses
import os

# One BLAS thread, as CI and perfbench use, unless the caller sets a
# count: at qdil's matrix sizes a thread pool adds no speed, and under
# load it makes the timing bounds of the acceptance tests flaky. It must
# be set before NumPy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from qdil.algebra import full_algebra
from qdil.dilation import MeasuringProcess
from qdil.instrument import CPInstrument, OutcomeSpace, instrument_to_json
from qdil.vn_model import load_fixture

try:
    import hypothesis
except ImportError:  # the property tests skip themselves
    hypothesis = None
if hypothesis is not None:
    # QDIL_HYPOTHESIS_PROFILE=ci draws every example from a fixed seed, so
    # a property that fails in CI fails the same way when run locally.
    hypothesis.settings.register_profile("ci", derandomize=True)
    hypothesis.settings.load_profile(
        os.environ.get("QDIL_HYPOTHESIS_PROFILE", "default"))


def random_cp_instrument(rng, dim_h, n_outcomes, kraus_per_outcome=1,
                         algebra=None):
    """Draw a random instrument that is trace preserving by construction.

    Ginibre blocks are whitened by the inverse square root of their
    summed Gram matrix, so completeness holds at machine precision.
    """
    blocks = [[rng.standard_normal((dim_h, dim_h))
               + 1j * rng.standard_normal((dim_h, dim_h))
               for _ in range(kraus_per_outcome)]
              for _ in range(n_outcomes)]
    total = sum(k.conj().T @ k for ks in blocks for k in ks)
    vals, vecs = np.linalg.eigh(total)
    whiten = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    labels = tuple(str(s) for s in range(n_outcomes))
    kraus = {lab: [k @ whiten for k in ks]
             for lab, ks in zip(labels, blocks)}
    if algebra is None:
        algebra = full_algebra(dim_h)
    return CPInstrument(dim_h, algebra, OutcomeSpace(labels), kraus)


def scaled_instrument(inst, factor):
    """``inst`` with every Kraus operator multiplied by ``factor``, unchecked.

    ``I(1,S)`` is multiplied by ``factor²``, so a complete instrument gets
    the completeness defect ``(factor² − 1)·1``.
    """
    return dataclasses.replace(
        inst, kraus={s: factor * k for s, k in inst.kraus.items()},
        validate=False)


def random_state(rng, dim):
    """Random full-rank density matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def hand_built_amp_damp():
    """The ``amp-damp-0.5`` channel on a hand-built two-level meter.

    Its instrument equals the fixture's, so it is 2-equivalent to the
    canonical dilation, but its order-3 correlations differ.
    """
    s = np.sqrt(0.5)
    u = np.array([[1, 0, 0, 0],
                  [0, -s, s, 0],
                  [0, s, s, 0],
                  [0, 0, 0, 1]], dtype=complex)
    e = {"no-decay": np.diag([1.0, 0.0]).astype(complex),
         "decay": np.diag([0.0, 1.0]).astype(complex)}
    sigma = np.diag([1.0, 0.0]).astype(complex)
    return MeasuringProcess(2, full_algebra(2),
                            load_fixture("amp-damp-0.5").outcomes, 2,
                            sigma, e, u)


def luders_z_schema_mutants():
    """``luders-z`` instrument documents that ``instrument.schema.json``
    forbids: non-number weights and non-string outcome labels.
    """
    patches = {
        "string-weight": {"weights": {"0": ["1.0"], "1": [1.0]}},
        "boolean-weight": {"weights": {"0": [True], "1": [1.0]}},
        "integer-outcomes": {"outcomes": [0, 1]},
    }
    base = instrument_to_json(load_fixture("luders-z"))
    return {name: {**base, **patch} for name, patch in patches.items()}
