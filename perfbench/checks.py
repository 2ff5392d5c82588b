"""Output checks made apart from qdil, with plain NumPy.

Each check recomputes what the output must satisfy from the input
Kraus data, or from a document read with ``json``, and returns ``True``
only when every entry agrees within ``TOL``. None of qdil's helpers is
used, so a fault shared by a construction and its own self-check
cannot hide here.
"""

from __future__ import annotations

import numpy as np

from inputs import matrix_of_doc

TOL = 1e-8


def dual_maps(kraus: dict[str, list[np.ndarray]]) -> dict[str, np.ndarray]:
    """``D[s][a, b, i, j] = (Σ_k K_k* e_ij K_k)[a, b]`` for each atom."""
    return {s: sum(np.einsum("ia,jb->abij", k.conj(), k) for k in ks)
            for s, ks in kraus.items()}


def _close(a, b) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= TOL))


def same_duals(kraus: dict[str, list[np.ndarray]],
               duals: dict[str, np.ndarray]) -> bool:
    """The Kraus family gives the same dual map on every atom."""
    mine = dual_maps(kraus)
    return set(mine) == set(duals) and all(
        _close(mine[s], duals[s]) for s in duals)


def process_reproduces(u, sigma, pvm: dict[str, np.ndarray], dim_h: int,
                       duals: dict[str, np.ndarray]) -> bool:
    """``U`` is unitary and ``(id⊗σ)[U*(e_ij⊗E_s)U]`` is each dual map."""
    n = u.shape[0]
    if set(pvm) != set(duals) or n % dim_h:
        return False
    if not _close(u.conj().T @ u, np.eye(n)):
        return False
    dim_k = n // dim_h
    lam, phi = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    keep = lam > TOL
    # b[j, l, b, p] = (U (1 ⊗ sqrt(λ_p) φ_p))[(j, l), b]
    b = np.einsum("jlbm,mp->jlbp", u.reshape(dim_h, dim_k, dim_h, dim_k),
                  phi[:, keep] * np.sqrt(lam[keep]))
    for s, e in pvm.items():
        got = np.einsum("ikap,kl,jlbp->abij", b.conj(), e, b, optimize=True)
        if not _close(got, duals[s]):
            return False
    return True


def process_doc_reproduces(doc: dict, duals: dict[str, np.ndarray]) -> bool:
    return process_reproduces(
        matrix_of_doc(doc["u"]), matrix_of_doc(doc["sigma"]),
        {s: matrix_of_doc(p) for s, p in doc["pvm"].items()},
        int(doc["dimH"]), duals)


def system_doc_reproduces(doc: dict, duals: dict[str, np.ndarray]) -> bool:
    """``v* Π_s(e_ij) v`` is each dual map."""
    v = matrix_of_doc(doc["v"])
    if set(doc["pi_atoms"]) != set(duals):
        return False
    for s, js in doc["pi_atoms"].items():
        pi = matrix_of_doc(js)  # pi[i, j] = Π_s(e_ij)
        got = np.einsum("xa,ijxy,yb->abij", v.conj(), pi, v, optimize=True)
        if not _close(got, duals[s]):
            return False
    return True


def is_density(rho) -> bool:
    if not _close(rho, rho.conj().T) or abs(np.trace(rho) - 1) > TOL:
        return False
    return bool(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -TOL)


def trajectory_follows(doc: dict, rho0: np.ndarray,
                       kraus: dict[str, list[np.ndarray]]) -> bool:
    """Each posterior is ``Σ K ρ K* / p`` of the one before it."""
    rho = rho0
    for step in doc["trajectory"]:
        sub = sum(k @ rho @ k.conj().T for k in kraus[step["outcome"]])
        p = np.trace(sub).real
        post = matrix_of_doc(step["posterior"])
        if p <= 0 or not _close(post, sub / p) or not is_density(post):
            return False
        rho = post
    return len(doc["trajectory"]) == doc["steps"]


def first_step_table_holds(report: dict, code: int, steps: int,
                           rho0: np.ndarray,
                           kraus: dict[str, list[np.ndarray]]) -> bool:
    """Exact probabilities, counts and 3-sigma verdicts of ``sample``."""
    table = report["first_step_table"]
    if set(table) != set(kraus):
        return False
    if sum(row["count"] for row in table.values()) != steps:
        return False
    all_within = True
    for s, row in table.items():
        p = sum(np.trace(k @ rho0 @ k.conj().T).real for k in kraus[s])
        within = abs(row["count"] - steps * p) <= (
            3 * np.sqrt(max(steps * p * (1 - p), 0.0)) + 1e-9)
        if abs(row["exact"] - p) > TOL or row["within_3sigma"] != within:
            return False
        all_within = all_within and within
    return report["all_within_3sigma"] == all_within and code == (
        0 if all_within else 1)
