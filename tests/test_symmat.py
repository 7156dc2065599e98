import numpy as np
import pytest

from helpers import correlation_cases, rand_spd
from trendlab import symmat
from trendlab.errors import InvalidMatrix, NotPositiveDefinite
from trendlab.symmat import System


def test_eigendecompose_identity():
    pairs = symmat.eigendecompose(np.eye(3))
    assert np.allclose(pairs.eigenvalues, [1.0, 1.0, 1.0])


def test_eigendecompose_two_by_two_closed_form():
    rho = 0.5
    pairs = symmat.eigendecompose(np.array([[1.0, rho], [rho, 1.0]]))
    assert np.allclose(pairs.eigenvalues, [1.0 + rho, 1.0 - rho])


def test_eigendecompose_reconstruction_and_orthonormality():
    rng = np.random.default_rng(0)
    m = rand_spd(rng, 10)
    pairs = symmat.eigendecompose(m)
    u = pairs.eigenvectors
    assert np.abs(u.T @ u - np.eye(10)).max() < 1e-10
    rel = np.linalg.norm(pairs.reconstruct() - m) / np.linalg.norm(m)
    assert rel < 1e-9
    assert (np.diff(pairs.eigenvalues) <= 1e-12).all()


def test_eigendecompose_deterministic_with_sign_convention():
    rng = np.random.default_rng(1)
    m = rand_spd(rng, 7)
    a = symmat.eigendecompose(m)
    b = symmat.eigendecompose(m.copy())
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)
    for k in range(7):
        col = a.eigenvectors[:, k]
        first = col[np.abs(col) > 1e-12][0]
        assert first > 0.0


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        symmat.eigendecompose(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(InvalidMatrix):
        symmat.eigendecompose(np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(InvalidMatrix):
        symmat.eigendecompose(np.ones((2, 3)))
    stacked = symmat.eigendecompose(np.stack([np.eye(2)] * 3))  # a stack is one matrix each
    assert stacked.eigenvalues.shape == (3, 2) and stacked.eigenvectors.shape == (3, 2, 2)


def test_inv_sqrt_identity_and_diagonal():
    assert np.allclose(symmat.inv_sqrt(np.eye(2), 0.0), np.eye(2))
    got = symmat.inv_sqrt(np.diag([4.0, 9.0]), 0.0)
    assert np.allclose(got, np.diag([0.5, 1.0 / 3.0]))


def test_inv_sqrt_postcondition_random_spd():
    rng = np.random.default_rng(2)
    m = rand_spd(rng, 8)
    p = symmat.inv_sqrt(m, 0.0)
    assert np.linalg.norm(p @ m @ p - np.eye(8)) < 1e-8


def test_inverse_examples():
    assert np.allclose(symmat.inverse(np.eye(4), 0.0), np.eye(4))
    got = symmat.inverse(np.array([[1.0, 0.5], [0.5, 1.0]]), 0.0)
    want = np.array([[1.0, -0.5], [-0.5, 1.0]]) / 0.75
    assert np.abs(got - want).max() < 1e-12


def test_inverse_postcondition_random_spd():
    rng = np.random.default_rng(3)
    m = rand_spd(rng, 12)
    assert np.linalg.norm(symmat.inverse(m, 0.0) @ m - np.eye(12)) < 1e-8


def test_inv_sqrt_squared_equals_inverse():
    rng = np.random.default_rng(4)
    m = rand_spd(rng, 9)
    p = symmat.inv_sqrt(m, 0.0)
    assert np.linalg.norm(p @ p - symmat.inverse(m, 0.0)) < 1e-7


def test_double_inverse_roundtrip():
    rng = np.random.default_rng(5)
    m = rand_spd(rng, 6)
    back = symmat.inverse(symmat.inverse(m, 0.0), 0.0)
    assert np.linalg.norm(back - m) / np.linalg.norm(m) < 1e-7


def test_ridge_shifts_spectrum():
    m = np.diag([1.0, 0.0])  # singular without a ridge
    with pytest.raises(NotPositiveDefinite):
        symmat.inverse(m, 0.0)
    got = symmat.inverse(m, 0.5)
    assert np.allclose(got, np.diag([1.0 / 1.5, 2.0]))


def test_default_ridge_rescues_near_singular():
    m = np.diag([1.0, 1e-18])
    out = symmat.inverse(m)  # implicit trace-scaled ridge
    assert np.isfinite(out).all()


def test_indefinite_matrix_rejected():
    with pytest.raises(NotPositiveDefinite):
        symmat.inv_sqrt(np.diag([1.0, -0.2]), 0.0)


def test_solve_matches_the_shifted_inverse():
    rng = np.random.default_rng(7)
    stack = np.stack([rand_spd(rng, 5, scale=k + 1.0) for k in range(4)])
    b = rng.standard_normal((4, 5))
    got = System(stack).solve(b)  # default ridge, one per matrix
    for k in range(4):
        want = symmat.inverse(stack[k]) @ b[k]
        assert np.abs(got[k] - want).max() < 1e-12 * np.abs(want).max()
        assert np.array_equal(got[k], System(stack[k]).solve(b[k]))
    rows = System(stack[0], 0.3).solve(b)  # one matrix, one right-hand side per row
    assert np.abs(rows - b @ symmat.inverse(stack[0], 0.3)).max() < 1e-12


def test_solve_error_contract():
    stack = np.stack([np.eye(3), np.diag([1.0, 0.0, 2.0])])
    with pytest.raises(NotPositiveDefinite):
        System(stack, 0.0).solve(np.ones((2, 3)))
    assert np.allclose(System(stack, 0.5).solve(np.ones((2, 3)))[1], [1 / 1.5, 2.0, 0.4])
    with pytest.raises(NotPositiveDefinite):  # indefinite but not singular
        System(np.diag([1.0, -0.5, 2.0])).solve(np.ones(3))
    with pytest.raises(InvalidMatrix):
        System(np.eye(2), -1.0).solve(np.ones(2))
    asymmetric = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.2, 1.0]])])
    with pytest.raises(InvalidMatrix):
        System(asymmetric).solve(np.ones((2, 2)))
    with pytest.raises(InvalidMatrix):
        System(np.ones((2, 3))).solve(np.ones(2))


def row_broadcast_sandwich(left, core, right, ridge):
    """Reference: inv(left) core inv(right) with each matrix broadcast over the
    rows of its core, so that every row is a solve of its own."""
    half = System(right[..., None, :, :], ridge).solve(core)  # core inv(right)
    rows = System(left[..., None, :, :], ridge).solve(np.swapaxes(half, -1, -2))
    return np.swapaxes(rows, -1, -2)


@pytest.mark.parametrize("n", [3, 16])
def test_sandwich_solves_whole_matrices(n):
    rng = np.random.default_rng(n)
    left = np.stack([rand_spd(rng, n, scale=k + 1.0) for k in range(6)])
    right = np.stack([rand_spd(rng, n, scale=1.0 / (k + 1.0)) for k in range(6)])
    core = rng.standard_normal((6, n, n))
    for ridge in (None, 0.0, 0.1):
        got = symmat.solve_sandwich(System(left, ridge), core, System(right, ridge))
        blocks = symmat.solve_sandwich(System(left.reshape(2, 3, n, n), ridge),
                                       core.reshape(2, 3, n, n),
                                       System(right.reshape(2, 3, n, n), ridge))
        assert np.array_equal(blocks.reshape(got.shape), got)
        for k in range(6):
            one = symmat.solve_sandwich(System(left[k], ridge), core[k], System(right[k], ridge))
            assert np.array_equal(got[k], one), k
        old = row_broadcast_sandwich(left, core, right, ridge)
        assert np.abs(got - old).max() <= 1e-13 * np.abs(old).max()
    exact = np.linalg.inv(left) @ core @ np.linalg.inv(right)
    got = symmat.solve_sandwich(System(left, 0.0), core, System(right, 0.0))
    assert np.abs(got - exact).max() < 1e-12 * np.abs(exact).max()


def test_sandwich_error_contract():
    spd, indefinite = np.eye(3), np.diag([1.0, -0.5, 2.0])
    asymmetric = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 1.0]])
    for left, right in ((indefinite, spd), (spd, indefinite)):
        with pytest.raises(NotPositiveDefinite):
            symmat.solve_sandwich(System(left), np.ones((3, 3)), System(right))
    for left, right in ((asymmetric, spd), (spd, asymmetric)):
        with pytest.raises(InvalidMatrix):
            symmat.solve_sandwich(System(left), np.ones((3, 3)), System(right))
    with pytest.raises(InvalidMatrix):
        symmat.solve_sandwich(System(spd, -1.0), np.ones((3, 3)), System(spd, -1.0))


def loop_eigendecompose(m):
    """Reference: eigh, descending order, then the per-column sign-fix loop."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0.0:
            vecs[:, k] = -col
    return vals, vecs


def tiny_leading_matrix(rng, n):
    """Eigenvectors whose first components sit below 1e-12, with both signs."""
    q = np.eye(n)
    q[1:, 1:], _ = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))
    angle = 3e-13
    tilt = np.eye(n)
    tilt[0, 0] = tilt[1, 1] = np.cos(angle)
    tilt[0, 1], tilt[1, 0] = -np.sin(angle), np.sin(angle)
    q = tilt @ q
    return symmat.symmetrize((q * np.linspace(3.0, 0.5, n)) @ q.T)


def test_vectorized_sign_fix_matches_the_loop():
    rng = np.random.default_rng(6)
    cases = [rand_spd(rng, n) for n in (1, 2, 5, 16, 40) for _ in range(4)]
    cases += [np.eye(n) for n in (1, 3, 10)]
    cases += [tiny_leading_matrix(rng, n) for n in (3, 6, 12) for _ in range(4)]
    tiny = 0
    for m in cases:
        pairs = symmat.eigendecompose(m)
        vals, vecs = loop_eigendecompose(m)
        assert np.array_equal(pairs.eigenvalues, vals)
        assert np.array_equal(pairs.eigenvectors, vecs)
        tiny += int(((np.abs(vecs[0]) < 1e-12) & (vecs[0] != 0.0)).sum())
    assert tiny > 0  # the sub-1e-12 leading components were exercised


def test_stacked_calls_equal_one_matrix_calls():
    stack = correlation_cases(21)
    stack[:4] *= np.arange(1.0, 5.0)[:, None, None]  # not all on one scale
    pairs = symmat.eigendecompose(stack)
    assert np.array_equal(stack[-2], np.eye(stack.shape[-1]))
    for ridge in (None, 0.0, 0.1):
        roots, inverses = symmat.inv_sqrt(stack, ridge), symmat.inverse(stack, ridge)
        blocks = symmat.inv_sqrt(stack.reshape(2, 4, *stack.shape[1:]), ridge)
        for k, m in enumerate(stack):
            one = symmat.eigendecompose(m)
            assert np.array_equal(pairs.eigenvalues[k], one.eigenvalues), k
            assert np.array_equal(pairs.eigenvectors[k], one.eigenvectors), k
            assert np.array_equal(roots[k], symmat.inv_sqrt(m, ridge)), k
            assert np.array_equal(blocks[k // 4, k % 4], roots[k]), k
            assert np.array_equal(inverses[k], symmat.inverse(m, ridge)), k
    assert np.allclose(pairs.reconstruct(), stack, atol=1e-12)


def test_stacked_symmetry_check_judges_each_matrix_on_its_own_scale():
    small = np.array([[1e-6, 2e-7], [0.0, 1e-6]])
    with pytest.raises(InvalidMatrix):
        System(small).solve(np.ones(2))
    with pytest.raises(InvalidMatrix):  # a large neighbour must not widen the tolerance
        System(np.stack([small, 1e6 * np.eye(2)])).solve(np.ones((2, 2)))
    with pytest.raises(InvalidMatrix):
        symmat.eigendecompose(np.stack([1e6 * np.eye(2), small]))
    rounded = np.array([[1.0, 0.5], [0.5 + 1e-14, 1.0]])  # round-off stays tolerated
    got = System(np.stack([rounded, 1e-6 * np.eye(2)])).solve(np.ones((2, 2)))
    assert np.array_equal(got[0], System(rounded).solve(np.ones(2)))


def test_a_ridge_must_be_finite_and_non_negative():
    m = np.array([[1.0, 0.3], [0.3, 0.8]])
    for ridge in (-1.0, np.nan, np.inf):
        for call in (lambda: System(m, ridge).solve(np.ones(2)),
                     lambda: symmat.inverse(m, ridge), lambda: symmat.inv_sqrt(m, ridge)):
            with pytest.raises(InvalidMatrix, match="ridge"):
                call()
