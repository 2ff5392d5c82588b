from __future__ import annotations

import numpy as np
import pytest

import qdil.instrument
from conftest import random_cp_instrument, random_state
from qdil.algebra import diagonal_algebra, full_algebra
from qdil.instrument import (
    INDEFINITE,
    CPInstrument,
    OutcomeSpace,
    apply_dual,
    apply_predual,
    choi_of_dual,
    coarse_grain,
    instrument_from_choi,
    instrument_from_json,
    instrument_to_json,
    is_repeatable,
    is_weakly_repeatable,
    kraus_from_dual_choi,
    luders_instrument,
    outcome_probability,
    posterior_state,
    sample_first_steps,
    sample_trajectory,
    verify_cp,
)
from qdil.operator_core import dagger, proj, spectral_norm

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def luders_z():
    return luders_instrument([P0, P1])


def test_outcome_space_event_normalization():
    sp = OutcomeSpace(("a", "b", "c"))
    assert sp.event("b") == ("b",)
    assert sp.event(["c", "a"]) == ("a", "c")
    assert sp.event(None) == ("a", "b", "c")
    assert sp.event("S") == ("a", "b", "c")
    with pytest.raises(ValueError):
        sp.event("z")


def test_outcome_space_rejects_duplicates():
    with pytest.raises(ValueError):
        OutcomeSpace(("a", "a"))


def test_luders_probabilities_on_plus_state():
    inst = luders_z()
    assert outcome_probability(inst, PLUS, "0") == pytest.approx(0.5)
    assert outcome_probability(inst, PLUS, "1") == pytest.approx(0.5)
    assert outcome_probability(inst, PLUS, None) == pytest.approx(1.0)


def test_luders_posterior_is_projection_eigenstate():
    inst = luders_z()
    post = posterior_state(inst, PLUS, "0")
    assert np.allclose(post, P0)


def test_posterior_of_null_event_is_indefinite():
    inst = luders_z()
    assert posterior_state(inst, P0, "1") is INDEFINITE


def test_apply_dual_and_predual_are_adjoint():
    rng = np.random.default_rng(50)
    inst = random_cp_instrument(rng, 3, 3, kraus_per_outcome=2)
    rho = random_state(rng, 3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for ev in [("0",), ("1", "2"), None]:
        lhs = np.trace(apply_predual(inst, rho, ev) @ m)
        rhs = np.trace(rho @ apply_dual(inst, m, ev))
        assert lhs == pytest.approx(rhs)


def test_dual_of_identity_over_full_space_is_identity():
    rng = np.random.default_rng(51)
    inst = random_cp_instrument(rng, 4, 3, kraus_per_outcome=2)
    total = apply_dual(inst, np.eye(4), None)
    assert np.allclose(total, np.eye(4))


def test_verify_cp_flags_scaled_kraus():
    """Scaling Kraus operators by 0.9 leaves a 0.19 completeness defect."""
    inst = luders_z()
    broken = CPInstrument(2, inst.algebra, inst.outcomes,
                          {s: [0.9 * k for k in inst.kraus[s]]
                           for s in inst.outcomes.labels},
                          validate=False)
    report = verify_cp(broken)
    assert not report.ok
    assert report.completeness_residual == pytest.approx(0.19)


def test_verify_cp_flags_algebra_escape():
    """A Hadamard update maps the diagonal algebra out of itself."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    inst = CPInstrument(2, diagonal_algebra(2), OutcomeSpace(("only",)),
                        {"only": [h]}, validate=False)
    assert not verify_cp(inst).ok


def test_choi_of_dual_depolarizing_is_maximally_mixed():
    def depolarize(m):
        return np.trace(m) / 2.0 * np.eye(2, dtype=complex)

    j = choi_of_dual(depolarize, 2)
    assert np.allclose(j, np.eye(4) / 2.0)


def test_choi_of_dual_transpose_has_negative_eigenvalue():
    j = choi_of_dual(lambda m: m.T, 2)
    vals = np.sort(np.linalg.eigvalsh(j))
    assert np.allclose(vals, [-1.0, 1.0, 1.0, 1.0])


def test_kraus_from_dual_choi_reconstructs_map():
    rng = np.random.default_rng(52)
    inst = random_cp_instrument(rng, 3, 2, kraus_per_outcome=2)
    fn = lambda m: apply_dual(inst, m, ("0",))
    ops = kraus_from_dual_choi(choi_of_dual(fn, 3), 3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rebuilt = sum(dagger(k) @ m @ k for k in ops)
    assert np.allclose(rebuilt, fn(m))


def test_instrument_from_choi_round_trips_weights():
    j = choi_of_dual(lambda m: m.T, 2)
    inst = instrument_from_choi(2, OutcomeSpace(("t",)), {"t": j})
    ws = inst.atom_weights("t")
    assert sorted(ws) == [-1.0, 1.0, 1.0, 1.0]
    m = np.array([[1.0, 2j], [0.0, -1.0]])
    assert np.allclose(apply_dual(inst, m, ("t",)), m.T)


def test_luders_is_repeatable_trine_is_not():
    assert is_weakly_repeatable(luders_z())[0]
    assert is_repeatable(luders_z())[0]
    vs = [np.array([np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])
          for k in range(3)]
    t = np.sqrt(2.0 / 3.0)
    trine = CPInstrument(2, full_algebra(2), OutcomeSpace(("0", "1", "2")),
                         {str(k): [t * proj(v)] for k, v in enumerate(vs)})
    ok, res = is_weakly_repeatable(trine)
    assert not ok
    assert res > 1e-3


def test_coarse_grain_agrees_on_generated_events():
    rng = np.random.default_rng(53)
    inst = random_cp_instrument(rng, 2, 6)
    events = [("0", "1", "2"), ("2", "3")]
    coarse = coarse_grain(inst, events)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # The generated sigma-field contains the cells and their unions.
    for ev in [("0", "1"), ("2",), ("3",), ("4", "5"),
               ("0", "1", "2", "3"), None]:
        assert np.allclose(apply_dual(coarse, m, ev),
                           apply_dual(inst, m, ev))


def test_coarse_grain_empties_non_representative_atoms():
    rng = np.random.default_rng(54)
    inst = random_cp_instrument(rng, 2, 4)
    coarse = coarse_grain(inst, [("0", "1")])
    # One representative per cell keeps the maps; others become zero.
    zero_atoms = [s for s in coarse.outcomes.labels
                  if len(coarse.kraus[s]) == 0]
    assert len(zero_atoms) == 2


def test_sample_trajectory_is_deterministic():
    inst = luders_z()
    t1 = sample_trajectory(inst, PLUS, 20, seed=5)
    t2 = sample_trajectory(inst, PLUS, 20, seed=5)
    assert [s for s, _ in t1] == [s for s, _ in t2]
    for (_, r1), (_, r2) in zip(t1, t2):
        assert np.array_equal(r1, r2)


def test_sample_trajectory_forms_each_branch_once_per_step(monkeypatch):
    """A step forms every atom's branch ``Σ K ρ K*`` once and normalizes
    the drawn one; the posteriors are those of :func:`apply_predual`."""
    inst = random_cp_instrument(np.random.default_rng(56), 3, 3,
                                kraus_per_outcome=2)
    rho0 = random_state(np.random.default_rng(57), 3)
    calls = []
    kraus_sum = qdil.instrument._kraus_sum
    monkeypatch.setattr(qdil.instrument, "_kraus_sum",
                        lambda *a, **k: calls.append(1) or kraus_sum(*a, **k))
    traj = sample_trajectory(inst, rho0, 8, seed=3)
    assert len(calls) == 8 * 3
    rho = rho0
    for s, post in traj:
        sub = apply_predual(inst, rho, (s,))
        assert np.array_equal(post, sub / np.trace(sub).real)
        rho = post


def test_sample_trajectory_posteriors_are_states():
    rng = np.random.default_rng(55)
    inst = random_cp_instrument(rng, 3, 2, kraus_per_outcome=2)
    for s, rho in sample_trajectory(inst, np.eye(3) / 3.0, 10, seed=1):
        assert s in inst.outcomes.labels
        assert np.trace(rho).real == pytest.approx(1.0)


def test_projective_trajectory_is_absorbing():
    """After the first z-outcome the state is fixed, so outcomes repeat."""
    traj = sample_trajectory(luders_z(), PLUS, 30, seed=9)
    labels = [s for s, _ in traj]
    assert len(set(labels[1:])) == 1 or labels[0] == labels[1]
    assert all(s == labels[0] for s in labels)


def test_sample_first_steps_matches_binomial():
    counts = sample_first_steps(luders_z(), PLUS, 10_000, seed=3)
    sigma = np.sqrt(10_000 * 0.25)
    assert abs(counts["0"] - 5000) <= 3 * sigma
    assert counts["0"] + counts["1"] == 10_000


def test_sampling_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_trajectory(luders_z(), PLUS, 0, seed=1)
    with pytest.raises(ValueError):
        sample_first_steps(luders_z(), np.eye(2), 10, seed=1)


def test_instrument_json_round_trip():
    rng = np.random.default_rng(56)
    inst = random_cp_instrument(rng, 3, 2, kraus_per_outcome=2)
    back = instrument_from_json(instrument_to_json(inst))
    assert back.outcomes.labels == inst.outcomes.labels
    assert back.dim_h == inst.dim_h
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    for s in inst.outcomes.labels:
        assert np.allclose(apply_dual(back, m, (s,)),
                           apply_dual(inst, m, (s,)))


def test_instrument_json_rejects_missing_keys():
    with pytest.raises((ValueError, KeyError)):
        instrument_from_json({"dim": 2})


def test_constructor_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        CPInstrument(2, full_algebra(2), OutcomeSpace(("a",)),
                     {"a": [np.eye(3)]})


def test_constructor_rejects_unknown_outcome_kraus():
    with pytest.raises(ValueError):
        CPInstrument(2, full_algebra(2), OutcomeSpace(("a",)),
                     {"a": [np.eye(2)], "b": [np.eye(2)]},
                     validate=False)


def test_outcome_label_in_is_reserved_for_the_input_letter():
    from qdil.correlations import IN

    assert IN == "in"
    with pytest.raises(ValueError, match="reserved"):
        OutcomeSpace((IN, "out"))
    with pytest.raises(ValueError, match="reserved"):
        luders_instrument([P0, P1], labels=[IN, "out"])


def test_coarse_grained_null_atom_is_an_empty_stack_through_json():
    inst = random_cp_instrument(np.random.default_rng(55), 2, 3,
                                kraus_per_outcome=2)
    coarse = coarse_grain(inst, [("0", "1")])
    assert coarse.kraus["0"].shape == (4, 2, 2)
    assert coarse.kraus["1"].shape == (0, 2, 2)
    data = instrument_to_json(coarse)
    assert data["kraus"]["1"] == []
    assert "weights" not in data
    back = instrument_from_json(data)
    assert back.kraus["1"].shape == (0, 2, 2)
    assert np.array_equal(back.kraus["0"], coarse.kraus["0"])


def test_apply_dual_maps_a_stack_operator_by_operator():
    inst = random_cp_instrument(np.random.default_rng(56), 3, 2,
                                kraus_per_outcome=2)
    rng = np.random.default_rng(57)
    ms = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    for event in ("0", ("0", "1")):
        got = apply_dual(inst, ms, event)
        assert got.shape == ms.shape
        for m, g in zip(ms, got):
            assert np.allclose(g, apply_dual(inst, m, event), atol=1e-14)


@pytest.mark.parametrize("kraus,weights", [
    ({"a": np.zeros((2, 3, 3))}, None),
    ({"a": np.eye(2)}, None),
    ({"a": [np.eye(2), np.eye(3)]}, None),
    ({"a": [np.eye(2)]}, {"a": [1.0, 1.0]}),
    ({"a": np.stack([np.eye(2), np.eye(2)]) / np.sqrt(2)}, {"a": [1.0]}),
    ({"a": [np.eye(2)], "b": []}, {"a": [1.0], "b": [1.0]}),
], ids=["stack-of-3x3", "bare-matrix", "ragged", "extra-weight",
        "missing-weight", "weight-for-null-atom"])
def test_constructor_rejects_bad_kraus_shapes_and_weight_counts(kraus,
                                                               weights):
    outcomes = OutcomeSpace(tuple(kraus))
    with pytest.raises(ValueError):
        CPInstrument(2, full_algebra(2), outcomes, kraus, weights,
                     validate=False)
