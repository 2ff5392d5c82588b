"""Discretized von Neumann measurement model and the fixture catalog.

The meter is ``C^d`` with position ``Q = diag(0..d-1)`` and momentum
``P = F Q F*`` through the discrete Fourier transform. The pair does
not satisfy ``[Q, P] = i`` (no finite-dimensional pair does); it is the
standard finite substitute. The coupling ``exp(-i λ A ⊗ P)`` is
evaluated in closed form from the spectral decomposition of the
observable, so no general matrix exponential is needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .algebra import full_algebra
from .dilation import MeasuringProcess
from .instrument import CPInstrument, OutcomeSpace, instrument_from_json
from .operator_core import (
    DEFAULT_TOL,
    Tolerance,
    basis_vector,
    dagger,
    is_hermitian,
    proj,
)

__all__ = [
    "DiscreteVNModel",
    "dft_matrix",
    "position_operator",
    "momentum_operator",
    "build",
    "fixtures",
    "fixture_names",
    "load_fixture",
]


def dft_matrix(dim: int) -> np.ndarray:
    """Unitary DFT, ``F[k, q] = exp(2πi·kq/d)/√d``."""
    k = np.arange(dim)
    return np.exp(2j * np.pi * np.outer(k, k) / dim) / np.sqrt(dim)


def position_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def momentum_operator(dim: int) -> np.ndarray:
    f = dft_matrix(dim)
    return f @ position_operator(dim) @ dagger(f)


@dataclass(frozen=True)
class DiscreteVNModel:
    """Observable, meter size, pointer state, and coupling strength."""

    system_observable: np.ndarray = field(repr=False)
    meter_dim: int = 8
    pointer_state: np.ndarray | None = field(default=None, repr=False)
    coupling: float | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.system_observable, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("observable must be a square matrix")
        if not is_hermitian(a).ok:
            raise ValueError("observable is not Hermitian")
        object.__setattr__(self, "system_observable", a)
        if self.meter_dim < 1:
            raise ValueError("meter dimension must be at least 1")
        alpha = (np.zeros(self.meter_dim, dtype=complex)
                 if self.pointer_state is None
                 else np.asarray(self.pointer_state, dtype=complex).reshape(-1))
        if self.pointer_state is None:
            alpha[0] = 1.0
        if alpha.shape != (self.meter_dim,):
            raise ValueError("pointer state has the wrong dimension")
        if abs(np.linalg.norm(alpha) - 1.0) > 1e-9:
            raise ValueError("pointer state is not normalized")
        object.__setattr__(self, "pointer_state", alpha)
        lam = (2 * np.pi / self.meter_dim if self.coupling is None
               else float(self.coupling))
        object.__setattr__(self, "coupling", lam)

    @property
    def dim_h(self) -> int:
        return self.system_observable.shape[0]


def _spectral_groups(a: np.ndarray, tol: Tolerance
                     ) -> list[tuple[float, np.ndarray]]:
    """Eigenvalue groups and spectral projections of a Hermitian matrix."""
    vals, vecs = np.linalg.eigh((a + dagger(a)) / 2)
    gap = tol.abs * (1 + float(np.abs(vals).max(initial=0.0)))
    groups: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > gap:
            block = vecs[:, start:i]
            groups.append((float(vals[start:i].mean()), block @ dagger(block)))
            start = i
    return groups


def build(model: DiscreteVNModel, tol: Tolerance = DEFAULT_TOL
          ) -> MeasuringProcess:
    """Measuring process of the model: ``U = exp(-i λ A ⊗ P)``.

    The pointer PVM consists of the spectral projections of the meter
    position, labeled by pointer value; the meter state is the vector
    state of the pointer vector. The exponential is assembled per
    spectral projection of the observable: each eigenvalue contributes
    ``F diag(exp(-i λ a q)) F*`` on the meter.
    """
    d = model.meter_dim
    f = dft_matrix(d)
    q = np.arange(d)
    u = np.zeros((model.dim_h * d,) * 2, dtype=complex)
    for a_val, p_a in _spectral_groups(model.system_observable, tol):
        meter = f @ np.diag(np.exp(-1j * model.coupling * a_val * q)) @ dagger(f)
        u += np.kron(p_a, meter)
    outcomes = OutcomeSpace(tuple(str(k) for k in range(d)))
    e = {str(k): proj(basis_vector(d, k)) for k in range(d)}
    sigma = proj(model.pointer_state)
    return MeasuringProcess(model.dim_h, full_algebra(model.dim_h),
                            outcomes, d, sigma, e, u)


# ---------------------------------------------------------------------------
# Fixture catalog


def _fixture_root():
    return resources.files("qdil") / "fixtures"


def fixture_names() -> list[str]:
    return sorted(p.name[:-5] for p in _fixture_root().iterdir()
                  if p.name.endswith(".json"))


def load_fixture(name: str) -> CPInstrument:
    path = _fixture_root() / f"{name}.json"
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(f"unknown fixture {name!r}; available: "
                         f"{', '.join(fixture_names())}") from None
    return instrument_from_json(data)


def fixtures() -> dict[str, CPInstrument]:
    """All named fixture instruments, validated at load time."""
    return {name: load_fixture(name) for name in fixture_names()}
