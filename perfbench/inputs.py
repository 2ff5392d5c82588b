"""Seeded inputs for the benchmark, made with plain NumPy.

An instrument shape is ``(dimH, kraus_counts)``: one entry of
``kraus_counts`` per outcome, giving that outcome's number of Kraus
operators. Outcome labels are ``"0"``, ``"1"``, ... The Kraus operators
are Ginibre blocks whitened by the inverse square root of their summed
Gram matrix, so the instrument is trace preserving to machine precision
and each outcome's Kraus rank equals its count.
"""

from __future__ import annotations

import json

import numpy as np


def shape_name(shape) -> str:
    """dimH/outcomes/Kraus per outcome, e.g. ``4/2/3`` or ``2/4/3,3,3,2``."""
    dim, counts = shape
    kraus = (str(counts[0]) if len(set(counts)) == 1
             else ",".join(map(str, counts)))
    return f"{dim}/{len(counts)}/{kraus}"


def random_kraus(rng: np.random.Generator, shape) -> dict[str, list[np.ndarray]]:
    dim, counts = shape
    blocks = [[rng.standard_normal((dim, dim))
               + 1j * rng.standard_normal((dim, dim)) for _ in range(n)]
              for n in counts]
    total = sum(k.conj().T @ k for ks in blocks for k in ks)
    vals, vecs = np.linalg.eigh(total)
    whiten = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return {str(s): [k @ whiten for k in ks] for s, ks in enumerate(blocks)}


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def matrix_doc(m: np.ndarray) -> list:
    """The ``[re, im]`` pair encoding that qdil's documents use."""
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_of_doc(doc) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def instrument_doc(kraus: dict[str, list[np.ndarray]]) -> dict:
    dim = next(iter(kraus.values()))[0].shape[0]
    return {"dim": dim, "outcomes": list(kraus),
            "kraus": {s: [matrix_doc(k) for k in ks]
                      for s, ks in kraus.items()}}


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
