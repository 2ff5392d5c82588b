from __future__ import annotations

import ast
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from qdil.operator_core import (
    DEFAULT_TOL,
    CheckReport,
    _kron,
    _report,
    _require_within,
    _within,
    Tolerance,
    basis_vector,
    compress_by_state,
    dagger,
    hermitize,
    is_density_matrix,
    is_hermitian,
    is_isometry,
    is_projection,
    is_psd,
    is_pvm,
    is_unitary,
    matrix_from_json,
    matrix_to_json,
    matrix_units,
    norm_within,
    proj,
    psd_factorize,
    pvm_within,
    random_density,
    random_ginibre,
    random_psd,
    random_unitary,
    require_state,
    spectral_norm,
    sqrt_psd,
    tensor,
    unvec,
    vec,
)


def test_tolerance_defaults():
    tol = Tolerance()
    assert tol.abs == 1e-9
    assert tol.psd_slack == 1e-10


def test_check_report_is_truthy_iff_ok():
    assert CheckReport(True, 0.0, {})
    assert not CheckReport(False, 1.0, {})


def test_vec_is_row_major():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(a), np.array([1, 2, 3, 4], dtype=complex))


def test_unvec_inverts_vec():
    rng = np.random.default_rng(11)
    a = random_ginibre(rng, 3, 5)
    assert np.allclose(unvec(vec(a), 3, 5), a)


def test_dagger_is_conjugate_transpose():
    a = np.array([[1 + 2j, 3], [0, -1j]])
    assert np.allclose(dagger(a), a.conj().T)


def test_spectral_norm_of_diagonal():
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)


def test_hermitize_symmetrizes():
    a = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    h = hermitize(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, np.array([[1.0, 1.0], [1.0, 3.0]]))


def test_tensor_matches_kron():
    rng = np.random.default_rng(2)
    a = random_ginibre(rng, 2)
    b = random_ginibre(rng, 3)
    assert np.allclose(tensor(a, b), np.kron(a, b))


def test_kron_helper_keeps_numpy_kron_bits():
    """Real × complex, a stack with a matrix, and signed zeros (the
    property test in test_kron.py draws many more such operands)."""
    z = np.array([[-0.0, 1.5], [0.0, -2.0]])
    c = np.empty((2, 3), dtype=complex)
    c.real, c.imag = [[-0.0, 1.0, 0.0], [2.0, -0.0, -1.0]], [[0.0, -0.0, 3.0],
                                                           [-0.0, 1.0, -0.0]]
    stack = np.stack([c.T, -c.T, 1j * c.T])
    for a, b in [(z, c), (c, z), (c, c), (z, z), (stack, z), (stack, c),
                 (c.T, np.eye(2))]:
        got, want = _kron(a, b), np.kron(a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def test_matrix_units_span_and_shape():
    units = list(matrix_units(3))
    assert len(units) == 9
    total = sum(e for i, j, e in units if i == j)
    assert np.allclose(total, np.eye(3))
    i, j, e = units[1]
    assert (i, j) == (0, 1)
    assert e[0, 1] == 1.0 and np.count_nonzero(e) == 1


def test_basis_vector_and_proj():
    e1 = basis_vector(4, 1)
    assert e1.shape == (4,)
    p = proj(e1)
    assert np.allclose(p @ p, p)
    assert np.trace(p) == pytest.approx(1.0)


def test_compress_by_state_on_product_operator():
    """On A ⊗ B the state compression gives tr(σB)·A."""
    rng = np.random.default_rng(5)
    a = random_ginibre(rng, 3)
    b = random_ginibre(rng, 2)
    sigma = random_density(rng, 2)
    got = compress_by_state(np.kron(a, b), sigma, 3, 2)
    assert np.allclose(got, np.trace(sigma @ b) * a)


def test_compress_by_state_rejects_bad_sigma():
    with pytest.raises(ValueError):
        compress_by_state(np.eye(4), np.eye(2), 2, 2)


def test_sqrt_psd_squares_back():
    rng = np.random.default_rng(7)
    a = random_psd(rng, 5)
    r = sqrt_psd(a)
    assert np.allclose(r @ r, a)
    assert np.allclose(r, r.conj().T)


def test_sqrt_psd_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_psd_factorize_reproduces_blocks():
    """Factors of an n-by-n block Gram satisfy Λi† Λj = G_ij."""
    rng = np.random.default_rng(13)
    n, block, r = 4, 2, 5
    raw = [random_ginibre(rng, r, block) for _ in range(n)]
    g = np.block([[dagger(x) @ y for y in raw] for x in raw])
    factors = psd_factorize(g, block)
    assert all(f.shape == (r, block) for f in factors)
    for i, x in enumerate(factors):
        for j, y in enumerate(factors):
            assert np.allclose(dagger(x) @ y,
                               g[i * block:(i + 1) * block,
                                 j * block:(j + 1) * block])


def test_psd_factorize_minimal_rank():
    # Rank-1 Gram of 3 scalar blocks factors through C^1.
    v = np.array([1.0, 2.0, -1.0])
    g = np.outer(v, v)
    factors = psd_factorize(g, 1)
    assert all(f.shape == (1, 1) for f in factors)


def test_psd_factorize_rejects_indefinite():
    with pytest.raises(ValueError):
        psd_factorize(np.diag([1.0, -1.0]), 1)


def test_predicates_on_known_matrices():
    assert is_hermitian(np.diag([1.0, 2.0]))
    assert not is_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert is_psd(np.diag([0.0, 3.0]))
    assert not is_psd(np.diag([1.0, -1.0]))
    assert is_projection(np.diag([1.0, 0.0]))
    assert not is_projection(np.diag([0.5, 0.0]))


def test_is_unitary_and_isometry():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 4)
    assert is_unitary(u)
    assert is_isometry(u[:, :2])
    assert not is_unitary(2 * u)


def test_is_pvm_detects_incomplete_family():
    p0 = np.diag([1.0, 0.0, 0.0])
    p1 = np.diag([0.0, 1.0, 0.0])
    p2 = np.diag([0.0, 0.0, 1.0])
    assert is_pvm([p0, p1, p2])
    assert not is_pvm([p0, p1])
    assert not is_pvm([p0, p0, p2])


def test_is_density_matrix():
    assert is_density_matrix(np.diag([0.25, 0.75]))
    assert not is_density_matrix(np.diag([0.5, 0.75]))
    assert not is_density_matrix(np.diag([1.5, -0.5]))


def test_require_state_raises_with_name():
    with pytest.raises(ValueError, match="sigma"):
        require_state(np.diag([2.0, -1.0]), what="sigma")


def test_random_draws_are_seeded():
    a = random_unitary(np.random.default_rng(42), 3)
    b = random_unitary(np.random.default_rng(42), 3)
    assert np.array_equal(a, b)
    rho = random_density(np.random.default_rng(0), 4)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert is_psd(rho)


def test_matrix_json_round_trip():
    rng = np.random.default_rng(9)
    a = random_ginibre(rng, 2, 3)
    encoded = matrix_to_json(a)
    assert np.allclose(matrix_from_json(encoded), a)


def test_matrix_json_accepts_bare_reals():
    got = matrix_from_json([[1, 0], [0, -2.5]])
    assert np.allclose(got, np.diag([1.0, -2.5]))


def test_matrix_json_rejects_ragged_input():
    with pytest.raises(ValueError):
        matrix_from_json([[1, 2], [3]])


def test_matrix_json_of_non_contiguous_slice():
    t = np.arange(16, dtype=complex).reshape(2, 2, 2, 2)
    sliced = t[:, :, 0, 1]
    assert np.allclose(matrix_from_json(matrix_to_json(sliced)), sliced)


@pytest.mark.parametrize("n", [2, 5])
def test_norm_within_accepts_below_bound_when_frobenius_exceeds(n):
    bound = 1e-7
    m = 0.9 * bound * np.eye(n)
    assert np.linalg.norm(m) > bound
    assert norm_within(m, bound)
    assert norm_within(np.stack([m, -m, 0 * m]), bound)


def test_norm_within_rejects_just_above_bound():
    bound = 1e-7
    m = np.diag([1.01 * bound, 0.5 * bound, 0.0])
    assert not norm_within(m, bound)
    stack = np.stack([0.9 * bound * np.eye(3), m])
    assert not norm_within(stack, bound)
    assert spectral_norm(stack) == pytest.approx(1.01 * bound)


def test_norm_within_matches_spectral_norm_on_random_stacks():
    rng = np.random.default_rng(12)
    for _ in range(200):
        stack = random_ginibre(rng, 4, 4 * 3).reshape(4, 3, 4).transpose(1, 0, 2)
        bound = float(rng.uniform(0.5, 3.0))
        exact = max(spectral_norm(m) for m in stack)
        assert norm_within(stack, bound) == (exact <= bound)
        assert norm_within(stack[0], bound) == (spectral_norm(stack[0]) <= bound)


def test_norm_within_rejects_non_finite_entries():
    m = np.eye(2)
    m[0, 1] = np.nan
    assert not norm_within(m, 1e9)
    assert not norm_within(np.stack([np.eye(2), m]), 1e9)


def test_pvm_within_agrees_with_is_pvm():
    p = np.diag([1.0, 0.0, 0.0]).astype(complex)
    q = np.diag([0.0, 1.0, 1.0]).astype(complex)
    for family, bound in [([p, q], 1e-12), ([p, q + 1e-6 * np.eye(3)], 1e-7),
                          ([p, q + 1e-6 * np.eye(3)], 1e-5), ([p, p], 0.5)]:
        assert pvm_within(family, bound) == (is_pvm(family).residual <= bound)


def _counting_norm(monkeypatch):
    calls = []
    original = np.linalg.norm

    def counting(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append(np.shape(x))
        return original(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting)
    return calls


@pytest.mark.parametrize("shape", [(3, 3), (4, 2, 2), (0, 3)])
def test_spectral_norm_of_zeros_skips_the_svd(monkeypatch, shape):
    calls = _counting_norm(monkeypatch)
    assert spectral_norm(np.zeros(shape, dtype=complex)) == 0.0
    assert spectral_norm(-np.zeros(shape)) == 0.0
    assert calls == []


def test_spectral_norm_of_nan_still_takes_the_svd(monkeypatch):
    calls = _counting_norm(monkeypatch)
    m = np.zeros((2, 2))
    m[1, 0] = np.nan
    try:
        value = spectral_norm(m)
    except np.linalg.LinAlgError:
        value = np.nan
    assert calls == [(2, 2)]
    assert not value == 0.0


# Entries whose shortest round-tripping decimal form is easy to get
# wrong: a signed zero, the smallest subnormal, the largest finite
# double, and a sum that is not the double nearest 0.3.
AWKWARD = np.array([
    [complex(-0.0, 5e-324), complex(1.7976931348623157e308, -0.0)],
    [complex(0.1 + 0.2, -(0.1 + 0.2)), complex(-5e-324, -0.0)]])


def _bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=complex)).view(np.uint64)


def test_matrix_json_round_trip_is_bit_exact():
    assert np.signbit(AWKWARD.real[0, 0]) and np.signbit(AWKWARD.imag[0, 1])
    decoded = matrix_from_json(json.loads(json.dumps(
        matrix_to_json(AWKWARD), separators=(",", ":"))))
    assert np.array_equal(_bits(decoded), _bits(AWKWARD))


def test_matrix_json_of_a_stack_nests_each_matrix():
    rng = np.random.default_rng(4)
    stack = np.stack([AWKWARD, random_ginibre(rng, 2), AWKWARD.T])
    encoded = matrix_to_json(stack)
    assert len(encoded) == 3
    for m, enc in zip(stack, encoded):
        assert enc == matrix_to_json(m)
        assert np.array_equal(_bits(matrix_from_json(enc)), _bits(m))


def _decoded(decode, doc):
    """What ``decode(doc)`` gives: its bits, dtype and shape, or its error."""
    try:
        m = decode(doc)
    except ValueError as exc:
        return "error", str(exc)
    return m.tobytes(), m.dtype, m.shape


# Leaves whose conversion is easy to get wrong: signed zeros, subnormals,
# the ends of the float range, and integers that a double cannot hold.
AWKWARD_LEAVES = [0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e308, -1e308, 1.7976931348623157e308, 2 ** 53 + 1,
                  -(2 ** 53) - 1, 2 ** 63 - 1, 2 ** 63 + 1, 2 ** 64 + 1,
                  -(2 ** 64) - 3, 3 ** 100]
# Each replaces one leaf, one entry or one row of a document.
LEAF_MUTANTS = [True, False, "1.5", None, float("nan"), float("inf"),
                float("-inf"), 2 ** 1024, -(3 ** 700)]
ENTRY_MUTANTS = [[1.0], [1.0, 2.0, 3.0], [], {"re": 1.0, "im": 2.0},
                 (1.0, 2.0), "ab", [[1.0], 2.0]]
ROW_MUTANTS = [1.5, 2, None, "row", {"0": [1.0, 0.0]}, (1.0, 2.0)]


def _documents(st):
    """Rectangular documents of ``[re, im]`` pairs, some of whose rows
    hold bare numbers when ``bare`` is drawn."""
    leaf = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-(2 ** 70), 2 ** 70),
                     st.sampled_from(AWKWARD_LEAVES))
    return st.integers(1, 4).flatmap(lambda width: st.lists(st.one_of(
        st.lists(st.lists(leaf, min_size=2, max_size=2), min_size=width,
                 max_size=width),
        st.lists(leaf, min_size=width, max_size=width)),
        min_size=1, max_size=4))


def test_decoder_fast_path_equals_the_loop():
    """On rectangular documents the one-conversion path gives the bits,
    dtype and shape of the entry-by-entry loop, and it takes every
    document of ``[re, im]`` pairs; bare-number rows go to the loop."""
    hypothesis = pytest.importorskip("hypothesis")
    from qdil.operator_core import _entries_matrix, _pairs_matrix

    @hypothesis.settings(deadline=None, max_examples=300)
    @hypothesis.given(_documents(hypothesis.strategies))
    def check(doc):
        doc = json.loads(json.dumps(doc))
        want = _decoded(_entries_matrix, doc)
        assert want[0] != "error"
        assert _decoded(matrix_from_json, doc) == want
        pairs = all(isinstance(z, list) for row in doc for z in row)
        fast = _pairs_matrix(doc)
        assert (fast is not None) == pairs
        if pairs:
            assert _decoded(_pairs_matrix, doc) == want

    check()


def test_decoder_fast_path_leaves_every_error_to_the_loop():
    """One leaf, entry or row of a document mutated, or ``[[]]``: the fast
    path declines it, and the decoder gives the loop's outcome, which is
    an error with its message but for ``[[]]``."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from qdil.operator_core import _entries_matrix, _pairs_matrix

    @hypothesis.settings(deadline=None, max_examples=300)
    @hypothesis.given(doc=_documents(st), where=st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
        mutant=st.one_of(
            st.tuples(st.just("leaf"), st.sampled_from(LEAF_MUTANTS)),
            st.tuples(st.just("entry"), st.sampled_from(ENTRY_MUTANTS)),
            st.tuples(st.just("row"), st.sampled_from(ROW_MUTANTS)),
            st.tuples(st.just("ragged"), st.just(None)),
            st.tuples(st.just("empty"), st.just(None))))
    def check(doc, where, mutant):
        doc = [[z if isinstance(z, list) else [z, 0] for z in row]
               for row in json.loads(json.dumps(doc))]
        i, j, k = where[0] % len(doc), where[1] % len(doc[0]), where[2]
        kind, value = mutant
        if kind == "leaf":
            doc[i][j][k] = value
        elif kind == "entry":
            doc[i][j] = value
        elif kind == "row":
            doc[i] = value
        elif kind == "ragged":
            doc.append(doc[0] + [[0.0, 0.0]])
        else:
            doc = [[]]
        assert _pairs_matrix(doc) is None
        got = _decoded(matrix_from_json, doc)
        assert got == _decoded(_entries_matrix, doc)
        assert (got[0] == "error") == (kind != "empty")

    check()


@pytest.mark.parametrize("bad", [np.zeros(3), np.array([[1.0, np.inf]]),
                                 np.full((2, 2, 2), np.nan)])
def test_matrix_json_rejects_non_matrices_and_non_finite(bad):
    with pytest.raises(ValueError):
        matrix_to_json(bad)


# Each kind of Tolerance.bound against the expression it replaced in the
# package; with size 0 the scaled forms reduce to the unscaled ones.
OLD_BOUNDS = {
    "strict": lambda t, n: t.abs * (1 + n),
    "trace": lambda t, n: t.abs * (1 + n) * 10,
    "loose": lambda t, n: t.abs * (1 + n) * 100,
    "psd": lambda t, n: t.psd_slack * (1 + n),
    "floor": lambda t, n: max(t.abs, 1e-12),
}
UNSCALED = {
    "strict": lambda t: t.abs,
    "trace": lambda t: t.abs * 10,
    "loose": lambda t: t.abs * 100,
    "psd": lambda t: t.psd_slack,
    "floor": lambda t: max(t.abs, 1e-12),
}
TOLERANCES = [Tolerance(), Tolerance(1e-6, 1e-7), Tolerance(3e-13, 7e-14),
              Tolerance(0.1 + 0.2, 1 / 3)]


def _float_bits(x) -> bytes:
    return np.float64(x).tobytes()


@pytest.mark.parametrize("kind", sorted(OLD_BOUNDS))
@pytest.mark.parametrize("tol", TOLERANCES, ids=repr)
def test_bound_equals_its_old_expression_bit_for_bit(kind, tol):
    rng = np.random.default_rng(5)
    sizes = [0, 1, 7, 36, 0.1 + 0.2, 2.718281828459045, 1e-17,
             np.float64(1.3e3), spectral_norm(random_ginibre(rng, 4)),
             float(np.abs(np.linalg.eigvalsh(random_psd(rng, 3))).max())]
    for n in sizes:
        assert _float_bits(tol.bound(kind, n)) == _float_bits(
            OLD_BOUNDS[kind](tol, n)), n
    assert _float_bits(tol.bound(kind)) == _float_bits(UNSCALED[kind](tol))


def test_tolerance_order_is_componentwise():
    a, b = Tolerance(1e-9, 1e-8), Tolerance(1e-7, 1e-9)
    assert not a <= b and not b <= a
    assert a <= a and Tolerance(1e-9, 1e-9) <= a and Tolerance(1e-9, 1e-9) <= b
    assert Tolerance.of(True) is DEFAULT_TOL and Tolerance.of(b) is b
    # What makes a recorded check at t0 <= t stand at t: no bound shrinks.
    for t0 in TOLERANCES + [a, b]:
        for t in TOLERANCES + [a, b]:
            if t0 <= t:
                assert all(t0.bound(kind, n) <= t.bound(kind, n)
                           for kind in OLD_BOUNDS for n in (0, 1, 36))


def _tolerance_field_reads(tree):
    """``(scope, line)`` of every ``x.abs`` / ``x.psd_slack`` read of a module.

    Reads inside message text (f-strings) are left out; ``np.abs`` is a
    function, not a tolerance field.
    """
    found = []

    def visit(node, scope, in_text):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        in_text = in_text or isinstance(node, ast.JoinedStr)
        if (isinstance(node, ast.Attribute)
                and node.attr in ("abs", "psd_slack") and not in_text
                and not (isinstance(node.value, ast.Name)
                         and node.value.id == "np")):
            found.append((".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, in_text)

    visit(tree, (), False)
    return found


def test_tolerance_arithmetic_lives_in_tolerance_bound():
    # The CLI builds the tolerance from --tol and echoes it in reports;
    # every other bound is read through Tolerance.bound.
    allowed = {("operator_core.py", "Tolerance"), ("cli.py", "_tolerance"),
               ("cli.py", "_config")}
    src = Path(__file__).resolve().parents[1] / "src" / "qdil"
    offenders = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{line} in {scope or 'module'}"
                      for scope, line in _tolerance_field_reads(tree)
                      if (path.name, scope.split(".")[0]) not in allowed]
    assert not offenders


def _tracked_defects(alive, count=3):
    """Defects that check, as each is formed, that earlier ones were freed."""
    def make():
        assert all(ref() is None for ref in alive), "an earlier defect is held"
        d = np.zeros((3, 3), dtype=complex)
        alive.append(weakref.ref(d))
        return d

    for _ in range(count):
        yield make()


@pytest.mark.parametrize("check", [
    lambda defects: _within(defects, 1.0),
    lambda defects: _require_within(defects, 1.0, "defect"),
    lambda defects: _report(defects, 1.0),
], ids=["within", "require_within", "report"])
def test_checks_hold_one_defect_at_a_time(check):
    alive = []
    check(_tracked_defects(alive))
    assert len(alive) == 3
