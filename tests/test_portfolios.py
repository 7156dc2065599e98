import numpy as np
import pytest

from helpers import rand_spd
from trendlab import portfolios as pf
from trendlab import symmat
from trendlab.errors import (
    DegenerateVolatility,
    InvalidInput,
    NotPositiveDefinite,
    ZeroTargetVector,
)
from trendlab.symmat import System

STOCKS3 = ("stock", "stock", "stock")


def cosine(a, b):
    return float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))


def test_risk_parity_identity_case():
    w = pf.finish(pf.risk_parity(System(np.eye(3)), np.ones(3), STOCKS3))
    assert np.allclose(w, np.full(3, 1.0 / 3.0))
    assert np.abs(w).sum() == pytest.approx(1.0)


def test_risk_parity_symmetric_two_assets():
    c = np.array([[1.0, 0.5], [0.5, 1.0]])
    w = pf.finish(pf.risk_parity(System(c, 0.0), np.ones(2), ("stock", "stock")))
    assert np.allclose(w, [0.5, 0.5])
    raw = pf.risk_parity(System(c, 0.0), np.ones(2), ("stock", "stock"))
    assert np.allclose(raw, [2.0 / 3.0, 2.0 / 3.0])


def test_risk_parity_fx_couples_through_inverse():
    rng = np.random.default_rng(0)
    c = rand_spd(rng, 3)
    vols = np.array([1.0, 2.0, 0.5])
    classes = ("stock", "bond", "fx")
    w = pf.risk_parity(System(c, 0.0), vols, classes)
    target = vols * np.array([1.0, 1.0, 0.0])
    want = np.linalg.solve(c, target)  # independent route
    assert np.abs(w - want).max() < 1e-9
    assert w[2] != 0.0  # FX held through cross terms


def test_risk_parity_all_fx_rejected():
    with pytest.raises(ZeroTargetVector):
        pf.risk_parity(System(np.eye(2)), np.ones(2), ("fx", "fx"))


def test_naive_markowitz_identity_and_eigenvector():
    rng = np.random.default_rng(1)
    s = rng.standard_normal(4)
    w = pf.naive_markowitz(System(np.eye(4), 0.0), s)
    assert np.allclose(w, s)

    c = rand_spd(rng, 4)
    pairs = symmat.eigendecompose(c)
    u1 = pairs.eigenvectors[:, 1]
    w = pf.naive_markowitz(System(c, 0.0), u1)
    assert np.abs(w - u1 / pairs.eigenvalues[1]).max() < 1e-9


def test_naive_markowitz_spectral_route():
    rng = np.random.default_rng(2)
    c = rand_spd(rng, 5)
    s = rng.standard_normal(5)
    pairs = symmat.eigendecompose(c)
    spectral = sum(
        (pairs.eigenvectors[:, k] @ s) / pairs.eigenvalues[k] * pairs.eigenvectors[:, k]
        for k in range(5)
    )
    w = pf.naive_markowitz(System(c, 0.0), s)
    assert np.abs(w - spectral).max() < 1e-9


def test_arp_reduces_to_markowitz_for_identity_correlation():
    rng = np.random.default_rng(3)
    s = rng.standard_normal(4)
    vols = np.array([0.5, 1.0, 2.0, 4.0])
    w = pf.agnostic_risk_parity(np.eye(4), vols, s, ridge=0.0)
    assert np.allclose(w, s / vols**2)
    nm = pf.finish(pf.naive_markowitz(System(np.eye(4), 0.0), s))
    arp = pf.finish(pf.agnostic_risk_parity(np.eye(4), np.ones(4), s, ridge=0.0))
    assert np.array_equal(nm, arp)


def test_arp_eigen_action():
    rng = np.random.default_rng(4)
    state = rand_spd(rng, 5)
    d = 1 / np.sqrt(np.diag(state))
    corr = state * np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    pairs = symmat.eigendecompose(corr)
    u2 = pairs.eigenvectors[:, 2]
    w = pf.agnostic_risk_parity(corr, np.ones(5), u2, ridge=0.0)
    assert np.abs(w - u2 / np.sqrt(pairs.eigenvalues[2])).max() < 1e-9


def test_arp_equalizes_unconditional_mode_risk():
    """With cross-sectionally white signals, every eigenmode carries the same risk."""
    rng = np.random.default_rng(5)
    m = rand_spd(rng, 5)
    d = 1 / np.sqrt(np.diag(m))
    corr = m * np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    pairs = symmat.eigendecompose(corr)
    draws = 200_000
    sigs = rng.standard_normal((draws, 5))
    rets = rng.standard_normal((draws, 5)) @ np.linalg.cholesky(corr).T
    root = symmat.inv_sqrt(corr, 0.0)
    exposures = (sigs @ root) @ pairs.eigenvectors       # vols = identity
    mode_rets = rets @ pairs.eigenvectors
    risks = (exposures * mode_rets).std(axis=0, ddof=1)
    assert risks.max() / risks.min() < 1.05


def test_arp_rejects_zero_volatility():
    with pytest.raises(DegenerateVolatility):
        pf.agnostic_risk_parity(np.eye(2), np.array([1.0, 0.0]), np.ones(2))


def test_torp_uniform_case():
    s = np.array([0.3, -0.1, 0.5])
    w = pf.trend_on_risk_parity(System(np.eye(3), 0.0), np.ones(3), s, STOCKS3)
    assert np.allclose(w, s.sum() * np.ones(3))


def test_torp_orthogonal_signal_is_flat():
    rng = np.random.default_rng(6)
    c = rand_spd(rng, 3)
    vols = np.array([1.0, 0.5, 2.0])
    book = np.linalg.solve(c, vols)  # the projection pairs s with inv(C) Sigma m
    s = rng.standard_normal(3)
    s = s - (s @ book) / (book @ book) * book
    w = pf.trend_on_risk_parity(System(c, 0.0), vols, s, STOCKS3)
    assert np.abs(w).max() < 1e-9


def test_torp_collinear_with_risk_parity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = rand_spd(rng, 3)
        vols = rng.uniform(0.5, 2.0, size=3)
        s = rng.standard_normal(3)
        rp = pf.risk_parity(System(c, 0.0), vols, STOCKS3)
        torp = pf.trend_on_risk_parity(System(c, 0.0), vols, s, STOCKS3)
        assert abs(abs(cosine(rp, torp)) - 1.0) < 1e-10


def test_torp_sign_follows_projection():
    c = np.eye(2)
    up = pf.trend_on_risk_parity(System(c, 0.0), np.ones(2), np.array([1.0, 1.0]), ("stock", "stock"))
    down = pf.trend_on_risk_parity(System(c, 0.0), np.ones(2), np.array([-1.0, -1.0]), ("stock", "stock"))
    assert np.allclose(up, -down)
    assert up[0] > 0.0


def test_equally_weighted():
    assert np.allclose(pf.finish(pf.equally_weighted(np.ones(4))), np.full(4, 0.25))
    w = pf.finish(pf.equally_weighted(np.array([1.0, 2.0])))
    assert np.allclose(w, np.array([1.0, 0.5]) / 1.5)
    rng = np.random.default_rng(8)
    vols = rng.uniform(0.1, 3.0, size=6)
    assert np.abs(pf.finish(pf.equally_weighted(vols))).sum() == pytest.approx(1.0)
    with pytest.raises(DegenerateVolatility):
        pf.equally_weighted(np.array([1.0, 0.0]))


def test_weight_matrix_markowitz_limit():
    rng = np.random.default_rng(9)
    c = rand_spd(rng, 3)
    omega = pf.optimal_weight_matrix(System(c, 0.0), c, np.zeros((3, 3)), 1.0, 0.0)
    assert np.abs(omega - symmat.inverse(c, 0.0)).max() < 1e-9
    s = rng.standard_normal(3)
    nm = pf.naive_markowitz(System(c, 0.0), s)
    assert np.abs(omega @ s - nm).max() < 1e-9


def test_weight_matrix_rank_one_drift():
    rng = np.random.default_rng(10)
    c = rand_spd(rng, 3)
    mu = rng.standard_normal(3)
    omega = pf.optimal_weight_matrix(System(c, 0.0), np.zeros((3, 3)), np.outer(mu, mu), 1.0, 0.7)
    pi = np.linalg.solve(c, mu)
    assert np.abs(omega - 0.7 * np.outer(pi, pi)).max() < 1e-9
    assert np.linalg.matrix_rank(omega, tol=1e-10) == 1


def test_weight_matrix_rank_one_trend_matches_conditional_route():
    rng = np.random.default_rng(11)
    m = rand_spd(rng, 4)
    d = 1 / np.sqrt(np.diag(m))
    corr = m * np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    vols = rng.uniform(0.5, 2.0, size=4)
    pairs = symmat.eigendecompose(corr)
    u1 = pairs.eigenvectors[:, 0]
    cov = corr * np.outer(vols, vols)
    trend_cov = np.outer(vols * u1, vols * u1)
    omega = pf.optimal_weight_matrix(System(cov, 0.0), trend_cov, np.zeros((4, 4)), 1.0, 0.0)
    s = rng.standard_normal(4)
    v1 = np.linalg.solve(corr, u1)
    assert abs(abs(cosine(omega @ s, v1 / vols)) - 1.0) < 1e-10


def test_weight_matrix_linearity():
    rng = np.random.default_rng(12)
    c = rand_spd(rng, 3)
    cx1, cx2 = rand_spd(rng, 3), rand_spd(rng, 3)
    a = pf.optimal_weight_matrix(System(c, 0.0), cx1, np.zeros((3, 3)), 1.0, 0.0)
    b = pf.optimal_weight_matrix(System(c, 0.0), cx2, np.zeros((3, 3)), 1.0, 0.0)
    both = pf.optimal_weight_matrix(System(c, 0.0), 0.25 * cx1 + 0.75 * cx2, np.zeros((3, 3)),
                                    1.0, 0.0)
    assert np.abs(both - (0.25 * a + 0.75 * b)).max() < 1e-12


def test_weight_matrix_limits_are_the_books():
    """The paper's decomposition: in each limit, unit-gross omega @ s is a book.

    NM is Omega = C with mu = 0, ARP is Omega = D rho^(3/2) D with D = diag(vols),
    and ToRP is Omega = 0 with mu = vols * class_target.  RP is not linear in
    the signal, so it is no limit of omega.
    """
    rng = np.random.default_rng(24)
    n = 6
    classes = ("stock", "bond", "stock", "fx", "bond", "stock")
    zero = np.zeros((n, n))
    for case in range(50):
        corr = rand_spd(rng, n)
        d = 1 / np.sqrt(np.diag(corr))
        corr = corr * np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        vols = rng.uniform(0.5, 2.0, size=n)
        cov = corr * np.outer(vols, vols)
        s = rng.standard_normal(n)
        pairs = symmat.eigendecompose(corr)
        corr_3_2 = (pairs.eigenvectors * pairs.eigenvalues**1.5) @ pairs.eigenvectors.T
        mu = vols * pf.class_target(classes)
        limits = {
            "nm": (cov, zero, pf.finish(pf.naive_markowitz(System(cov, 0.0), s))),
            "arp": (corr_3_2 * np.outer(vols, vols), zero,
                    pf.finish(pf.agnostic_risk_parity(corr, vols, s, ridge=0.0))),
            "torp": (zero, np.outer(mu, mu),
                     pf.finish(pf.trend_on_risk_parity(System(cov, 0.0), vols, s, classes))),
        }
        for kind, (trend_cov, drift_outer, book) in limits.items():
            omega = pf.optimal_weight_matrix(System(cov, 0.0), trend_cov, drift_outer, 0.8, 1.7)
            pos = omega @ s
            assert np.abs(pos / np.abs(pos).sum() - book).max() < 1e-12, (case, kind)


def test_non_finite_positions_are_rejected():
    """A raw book whose solve overflows to inf does not come out."""
    with pytest.raises(InvalidInput, match="non-finite"):
        pf.naive_markowitz(System(1e-300 * np.eye(2), 0.0), np.array([1e300, 1e300]))


def test_finish_puts_each_day_at_unit_gross():
    """finish is the one unit-gross step: each day of a (k, days, n) stack at gross 1, a
    zero day left exactly zero, the same positions for any positive rescale of the book."""
    rng = np.random.default_rng(26)
    raw = rng.standard_normal((3, 4, 5))
    raw[1, 2] = 0.0
    got = pf.finish(raw)
    assert got.shape == raw.shape
    gross = np.abs(got).sum(axis=-1)
    assert np.array_equal(got[1, 2], np.zeros(5)) and gross[1, 2] == 0.0
    gross[1, 2] = 1.0
    assert np.allclose(gross, 1.0, rtol=0.0, atol=1e-15)
    assert np.array_equal(pf.finish(0.25 * raw), got)  # a power of two rescales exactly
    assert np.allclose(pf.finish(3.7 * raw), got, rtol=0.0, atol=1e-15)
    for bad in (np.nan, np.inf):
        raw[2, 1, 3] = bad
        with pytest.raises(InvalidInput, match="non-finite"):
            pf.finish(raw)


def test_signal_scaling_properties():
    rng = np.random.default_rng(17)
    cov = rand_spd(rng, 4)
    d = 1 / np.sqrt(np.diag(cov))
    corr = cov * np.outer(d, d)
    np.fill_diagonal(corr, 1.0)
    vols = np.sqrt(np.diag(cov))
    s = rng.standard_normal(4)
    c = 3.7
    for build in (
        lambda sig: pf.naive_markowitz(System(cov, 0.0), sig),
        lambda sig: pf.agnostic_risk_parity(corr, vols, sig, ridge=0.0),
        lambda sig: pf.trend_on_risk_parity(System(cov, 0.0), vols, sig, STOCKS3 + ("stock",)),
    ):
        raw1 = build(s)
        raw2 = build(c * s)
        assert np.abs(raw2 - c * raw1).max() < 1e-9 * np.abs(raw2).max()


def test_zero_signal_keeps_zero_positions():
    w = pf.finish(pf.naive_markowitz(System(np.eye(3), 0.0), np.zeros(3)))
    assert np.abs(w).sum() == 0.0
    assert np.array_equal(w, np.zeros(3))


def test_flat_asset_books_equal_the_listed_solve():
    """A zero-vol asset has a zero covariance row: the shifted solve holds it at 0
    and trades the other assets at the full universe's ridge."""
    rng = np.random.default_rng(18)
    classes = ("stock", "stock", "bond", "fx")
    for case in range(50):
        corr = rand_spd(rng, 4)
        d = 1 / np.sqrt(np.diag(corr))
        corr = corr * np.outer(d, d)
        vols = rng.uniform(0.5, 2.0, size=4)
        flat = case % 4
        vols[flat] = 0.0
        s = rng.standard_normal(4)
        s[flat] = 0.0
        cov = corr * np.outer(vols, vols)
        listed = vols > 0.0
        shifted = cov[np.ix_(listed, listed)] + 1e-8 * np.trace(cov) / 4 * np.eye(3)
        rp = np.zeros(4)
        rp[listed] = np.linalg.solve(shifted, (vols * pf.class_target(classes))[listed])
        nm = np.zeros(4)
        nm[listed] = np.linalg.solve(shifted, s[listed])
        wants = {"nm": nm, "rp": rp, "torp": (rp @ s) * rp}
        gots = {"nm": pf.naive_markowitz(System(cov), s),
                "rp": pf.risk_parity(System(cov), vols, classes),
                "torp": pf.trend_on_risk_parity(System(cov), vols, s, classes)}
        for kind, want in wants.items():
            got = gots[kind]
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (case, kind)


def test_block_equals_one_day_calls():
    rng = np.random.default_rng(19)
    m, n = 6, 5
    classes = ("stock", "bond", "stock", "fx", "bond")
    corr = rand_spd(rng, n)
    d = 1 / np.sqrt(np.diag(corr))
    corr = corr * np.outer(d, d)
    vols = rng.uniform(0.5, 2.0, size=(m, n))
    sig = rng.standard_normal((m, n))
    sig[2] = 0.0  # a flat day inside the block
    cov = corr * (vols[:, :, None] * vols[:, None, :])
    for size in (pf.finish, lambda raw: raw):
        builds = {
            "rp": lambda c, v, s, r: size(pf.risk_parity(System(c, r), v, classes)),
            "nm": lambda c, v, s, r: size(pf.naive_markowitz(System(c, r), s)),
            "arp": lambda c, v, s, r: size(pf.agnostic_risk_parity(corr, v, s, r)),
            "torp": lambda c, v, s, r: size(pf.trend_on_risk_parity(System(c, r), v, s, classes)),
            "ew": lambda c, v, s, r: size(pf.equally_weighted(v)),
        }
        for kind, build in builds.items():
            for ridge in (None, 0.0, 1e-3):
                block = build(cov, vols, sig, ridge)
                days = [build(cov[t], vols[t], sig[t], ridge) for t in range(m)]
                assert type(block) is np.ndarray and block.shape == (m, n), kind
                assert np.array_equal(block, np.stack(days))


def test_blocks_of_days_equal_one_day_calls():
    """The engine's layout: k blocks of w days, one correlation per block."""
    rng = np.random.default_rng(23)
    k, w, n = 3, 4, 5
    classes = ("stock", "bond", "stock", "fx", "bond")
    corr = np.stack([np.corrcoef(rng.standard_normal((40, n)), rowvar=False) for _ in range(k)])
    vols = rng.uniform(0.5, 2.0, size=(k, w, n))
    sig = rng.standard_normal((k, w, n))
    cov = corr[:, None] * (vols[..., :, None] * vols[..., None, :])
    builds = {
        "rp": lambda c, cv, v, s: pf.finish(pf.risk_parity(System(cv), v, classes)),
        "nm": lambda c, cv, v, s: pf.finish(pf.naive_markowitz(System(cv), s)),
        "arp": lambda c, cv, v, s: pf.finish(pf.agnostic_risk_parity(c, v, s)),
        "torp": lambda c, cv, v, s: pf.finish(pf.trend_on_risk_parity(System(cv), v, s, classes)),
        "ew": lambda c, cv, v, s: pf.finish(pf.equally_weighted(v)),
        "omega": lambda c, cv, v, s: (pf.optimal_weight_matrix(
            System(cv), np.broadcast_to(c, cv.shape), v[..., :, None] * v[..., None, :],
            1.0, 0.5)
            @ s[..., None])[..., 0],
    }
    for kind, build in builds.items():
        blocks = build(corr[:, None], cov, vols, sig)
        assert type(blocks) is np.ndarray and blocks.shape == (k, w, n), kind
        for b in range(k):
            for t in range(w):
                day = build(corr[b], cov[b, t], vols[b, t], sig[b, t])
                assert np.array_equal(blocks[b, t], day), (kind, b, t)


def test_indefinite_covariance_is_not_positive_definite():
    cov = np.diag([1.0, -0.5, 2.0])  # non-singular, so a bare solve would pass it
    s, vols = np.ones(3), np.ones(3)
    for build in (lambda: pf.naive_markowitz(System(cov), s),
                  lambda: pf.risk_parity(System(cov), vols, STOCKS3),
                  lambda: pf.trend_on_risk_parity(System(cov), vols, s, STOCKS3),
                  lambda: pf.optimal_weight_matrix(System(cov), np.eye(3), np.zeros((3, 3)),
                                                   1.0, 0.0)):
        with pytest.raises(NotPositiveDefinite):
            build()


def test_the_system_ridge_is_the_one_every_book_solves_with():
    """NM, RP, ToRP and omega solve (c + ridge*I) with the System's ridge; none takes a
    ridge of its own beside it."""
    c, s, vols = np.array([[1.0, 0.3], [0.3, 0.8]]), np.array([1.0, -0.5]), np.array([1.0, 2.0])
    shifted = c + 0.5 * np.eye(2)
    system = System(c, 0.5)
    nm = pf.naive_markowitz(system, s)
    assert np.allclose(nm, np.linalg.solve(shifted, s), rtol=1e-14, atol=0.0)
    assert np.allclose(nm, [0.780, -0.565], atol=5e-4)
    rp = np.linalg.solve(shifted, vols)
    assert np.allclose(pf.risk_parity(system, vols, ("stock", "bond")), rp,
                       rtol=1e-14, atol=0.0)
    assert np.allclose(pf.trend_on_risk_parity(system, vols, s, ("stock", "bond")), (rp @ s) * rp,
                       rtol=1e-14, atol=0.0)
    inv = np.linalg.inv(shifted)
    omega = pf.optimal_weight_matrix(system, c, np.zeros((2, 2)), 1.0, 0.0)
    assert np.allclose(omega, inv @ c @ inv, rtol=1e-13, atol=0.0)
    for call in (lambda: pf.naive_markowitz(System(c), s, ridge=0.5),
                 lambda: pf.risk_parity(System(c), vols, ("stock", "bond"), ridge=0.5),
                 lambda: pf.trend_on_risk_parity(System(c), vols, s, ("stock", "bond"), ridge=0.5),
                 lambda: pf.optimal_weight_matrix(System(c), c, np.zeros((2, 2)), 1.0, 0.0,
                                                  ridge=0.5),
                 lambda: symmat.solve_sandwich(System(c), c, System(c), ridge=0.5),
                 # a book has no size of its own: finish is the one sizing step
                 lambda: pf.naive_markowitz(System(c), s, normalize=True),
                 lambda: pf.risk_parity(System(c), vols, ("stock", "bond"), normalize=True),
                 lambda: pf.agnostic_risk_parity(c, vols, s, normalize=True),
                 lambda: pf.trend_on_risk_parity(System(c), vols, s, ("stock", "bond"),
                                                 normalize=True),
                 lambda: pf.trend_on(rp, s, normalize=True),
                 lambda: pf.equally_weighted(vols, normalize=True),
                 lambda: pf.finish(nm, normalize=True)):
        with pytest.raises(TypeError):
            call()


def test_weight_matrix_checks_its_one_system_once(monkeypatch):
    """Both sides of the sandwich are the one System: C is Cholesky-tested once."""
    calls = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
    rng = np.random.default_rng(25)
    c = np.stack([rand_spd(rng, 3) for _ in range(4)])
    omega = pf.optimal_weight_matrix(System(c, 0.0), c, np.zeros((4, 3, 3)), 1.0, 0.0)
    assert calls == [(4, 3, 3)]
    assert np.allclose(omega, np.linalg.inv(c), rtol=1e-9, atol=1e-12)
