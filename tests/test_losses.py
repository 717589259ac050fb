import warnings
from math import gamma

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from mmfit import losses
from mmfit.errors import InvalidConfig
from mmfit.losses import LossFunction, LossKind, _upper_gamma
from mmfit.models import ModelType

from conftest import run_fresh

ALL_KINDS = list(LossKind)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loss_zero_at_zero(kind):
    fn = LossFunction(kind, 2.0)
    assert fn.losses([0.0])[0] == pytest.approx(0.0, abs=1e-12)


def test_magsacpp_loss_at_zero_is_below_machine_epsilon():
    # subtracting Gamma(a+1) leaves a rounding remainder at r = 0
    for dof in range(1, 41):
        fn = LossFunction(LossKind.MAGSACPP, 3.0, dof)
        assert 0.0 <= fn.losses([0.0])[0] < np.finfo(float).eps


def test_msac_quarter():
    fn = LossFunction(LossKind.MSAC, 2.0)
    assert fn.losses([1.0])[0] == pytest.approx(0.25)


def test_hard01_weight_examples():
    fn = LossFunction(LossKind.HARD01, 2.0)
    assert fn.weights([1.0, 3.0]).tolist() == [1.0, 0.0]


def test_tukey_weight_identity():
    eps = 3.0
    fn = LossFunction(LossKind.TUKEY_BISQUARE, eps)
    grid = np.linspace(0.0, eps * 0.999, 40)
    expected = (1.0 - (grid / eps) ** 2) ** 2
    w = fn.weights(grid)
    assert np.allclose(w / fn.weights([0.0])[0], expected, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loss_saturates_at_cutoff(kind):
    fn = LossFunction(kind, 1.7, dof=2)
    beyond = np.array([fn.cutoff, fn.cutoff * 1.1, fn.cutoff * 10.0])
    assert np.all(fn.losses(beyond) == 1.0)
    assert np.all(fn.weights(beyond) == 0.0)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    dof=st.sampled_from([1, 2, 4]),
    eps=st.floats(1e-3, 1e3),
    factors=st.lists(st.floats(1.0, 1e6), max_size=20),
)
def test_loss_is_one_and_weight_zero_from_the_cutoff_on(kind, dof, eps,
                                                        factors):
    # the engine scores and refines a candidate on r < cutoff alone
    fn = LossFunction(kind, eps, dof)
    cutoff = fn.cutoff
    r = np.array([cutoff, np.nextafter(cutoff, np.inf),
                  *(cutoff * f for f in factors)])
    assert np.all(r >= cutoff)
    assert np.all(fn.losses(r) == 1.0)
    assert np.all(fn.weights(r) == 0.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("dof", [1, 2, 4])
def test_infinite_residual_saturates_without_warning(kind, dof):
    # homography and Sampson residuals are inf for points mapped to infinity
    fn = LossFunction(kind, 3.0, dof)
    r = np.array([np.inf, fn.cutoff, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, weight = fn.losses(r), fn.weights(r)
    assert loss[:2].tolist() == [1.0, 1.0]
    assert loss[2] == pytest.approx(0.0, abs=1e-12)
    # w(0) is 1 but for magsacpp at dof 1, whose weight diverges at 0
    assert weight[:2].tolist() == [0.0, 0.0] and weight[2] > 0.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_loss_range_and_saturation_equivalence(kind):
    fn = LossFunction(kind, 2.5, dof=4)
    grid = np.linspace(0.0, 2.0 * fn.cutoff, 500)
    losses = fn.losses(grid)
    weights = fn.weights(grid)
    assert np.all((losses >= 0.0) & (losses <= 1.0))
    assert np.all(weights >= 0.0)
    # weight == 0 exactly where loss == 1
    assert np.array_equal(weights == 0.0, losses == 1.0)


@pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k != LossKind.HARD01])
def test_loss_continuity(kind):
    fn = LossFunction(kind, 2.0, dof=2)
    grid = np.linspace(0.0, 1.5 * fn.cutoff, 20001)
    losses = fn.losses(grid)
    assert np.max(np.abs(np.diff(losses))) < 2e-3


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    eps=st.floats(0.1, 50.0),
    dof=st.sampled_from([1, 2, 4]),
    data=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=40),
)
def test_monotonicity_property(kind, eps, dof, data):
    fn = LossFunction(kind, eps, dof)
    r = np.sort(np.asarray(data))
    losses = fn.losses(r)
    weights = fn.weights(r)
    assert np.all(np.diff(losses) >= -1e-12)
    assert np.all(np.diff(weights) <= 1e-12)


@pytest.mark.parametrize("kind", ["msac", "magsacpp", None, 1])
def test_loss_kind_must_be_a_loss_kind(kind):
    # a kind's name would fall through every kind test to huber_redesc;
    # LossKind.from_string reads names
    with pytest.raises(InvalidConfig, match="kind"):
        LossFunction(kind, 2.0)


@pytest.mark.parametrize("kind", [LossKind.MSAC, LossKind.HUBER])
@pytest.mark.parametrize("dof", [1, 2, 4])
def test_squared_losses_do_not_overflow(kind, dof):
    # the residual is squared clamped at epsilon, past which the loss is 1
    fn = LossFunction(kind, 2.5, dof)
    r = np.array([1e155, 1e300, np.finfo(float).max, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, weight = fn._losses_and_weights(r)
    assert loss.tolist() == [1.0] * 4 and weight.tolist() == [0.0] * 4


def test_invalid_epsilon_rejected():
    with pytest.raises(InvalidConfig):
        LossFunction(LossKind.MSAC, 0.0)
    with pytest.raises(InvalidConfig):
        LossFunction(LossKind.MAGSACPP, -1.0)
    with pytest.raises(InvalidConfig):
        LossFunction(LossKind.MAGSACPP, 1.0, dof=0)
    for eps in (np.nan, np.inf):
        for kind in LossKind:
            with pytest.raises(InvalidConfig):
                LossFunction(kind, eps)


# ---------------------------------------------------------------------------
# the marginalized loss against independent quadrature

def _chi_density(r, sigma, dof, C):
    return 2.0 * C * sigma ** (-dof) * r ** (dof - 1) * np.exp(
        -r * r / (2.0 * sigma * sigma))


def _marginal_weight(r, eps, dof, k, C):
    """Quadrature of the truncated chi density over sigma ~ U(0, eps]."""
    lo = r / k
    if lo >= eps:
        return 0.0
    val, _ = integrate.quad(lambda s: _chi_density(r, s, dof, C), lo, eps,
                            limit=200)
    return val / eps


@pytest.mark.parametrize("dof", [1, 2, 3, 4])
def test_magsac_loss_matches_quadrature_oracle(dof):
    eps = 2.0
    k = float(np.sqrt(stats.chi2.ppf(0.99, dof)))
    C = 1.0 / (2.0 ** (dof / 2.0) * gamma(dof / 2.0))
    cutoff = k * eps
    denom, _ = integrate.quad(
        lambda s: s * _marginal_weight(s, eps, dof, k, C), 0.0, cutoff,
        limit=400)

    fn = LossFunction(LossKind.MAGSACPP, eps, dof)
    for frac in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0):
        r = frac * eps
        num, _ = integrate.quad(
            lambda s: s * _marginal_weight(s, eps, dof, k, C), 0.0, r,
            limit=400)
        assert fn.losses([r])[0] == pytest.approx(num / denom, abs=1e-6)


@pytest.mark.parametrize("dof", [1, 2, 4])
def test_magsac_weight_matches_loss_derivative(dof):
    eps = 2.0
    fn = LossFunction(LossKind.MAGSACPP, eps, dof)
    h = 1e-6 * eps
    grid = np.linspace(0.15 * eps, 0.95 * fn.cutoff, 15)
    fd = (fn.losses(grid + h) - fn.losses(grid - h)) / (2.0 * h) / grid
    w = fn.weights(grid)
    # weights are proportional to loss'(r) / r; compare normalized shapes
    assert np.allclose(w / w[0], fd / fd[0], atol=1e-4)


# ---------------------------------------------------------------------------
# the elementary incomplete gamma kernel

@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
def test_upper_gamma_matches_mpmath(a):
    x = np.concatenate([np.geomspace(1e-12, 1.0, 60), np.linspace(1.0, 12.0, 60)])
    want = np.array([float(mpmath.gammainc(a, float(v))) for v in x])
    got = np.asarray(_upper_gamma(a, x))
    assert np.max(np.abs(got - want) / want) <= 1e-12
    # a scalar argument gives the same value as an array element
    assert float(_upper_gamma(a, x[7])) == got[7]


def _scipy_magsac(eps, dof, r):
    """Oracle: the MAGSAC++ loss and weight through scipy's regularized
    incomplete gamma functions, each Gu evaluated separately."""
    def gu(s, x):
        return special.exp1(x) if s == 0.0 else special.gammaincc(s, x) * gamma(s)

    a = (dof - 1) / 2.0
    k = float(np.sqrt(stats.chi2.ppf(0.99, dof)))
    gu_k = gu(a, k * k / 2.0)
    norm = eps ** 2 * gamma(a + 1.0) * special.gammainc(a + 1.0, k * k / 2.0)
    inside = r < k * eps
    ri = r[inside]
    loss, weight = np.ones_like(r), np.zeros_like(r)
    y = np.maximum(ri * ri / (2.0 * eps * eps), 1e-300)
    raw = (eps * eps * (y * gu(a, y) - gu(a + 1.0, y) + gamma(a + 1.0))
           - 0.5 * ri * ri * gu_k)
    loss[inside] = np.clip(raw / norm, 0.0, 1.0)
    y = ri * ri / (2.0 * eps * eps)
    if a == 0.0:
        weight[inside] = gu(a, np.maximum(y, 1e-15)) - gu_k
    else:
        weight[inside] = (gu(a, y) - gu_k) / (gamma(a) - gu_k)
    return loss, np.maximum(weight, 0.0)


@pytest.mark.parametrize("dof", range(1, 9))
def test_magsac_matches_scipy_incomplete_gamma_oracle(dof):
    eps = 2.5
    fn = LossFunction(LossKind.MAGSACPP, eps, dof)
    r = np.concatenate([[0.0, 1e-9, fn.cutoff],
                        np.linspace(0.0, 1.2 * fn.cutoff, 2001)])
    want_loss, want_weight = _scipy_magsac(eps, dof, r)
    assert np.max(np.abs(fn.losses(r) - want_loss)) <= 1e-14
    assert np.max(np.abs(fn.weights(r) - want_weight)) <= 1e-14


@pytest.mark.parametrize("dof", range(1, 9))
def test_magsac_cutoff_is_chi_quantile(dof):
    # bisection of the elementary P(dof/2, x) lands within 2 ulp of scipy's
    # quantile, and P there is 0.99 to double precision
    k = losses._magsac_constants(2.0, dof)[1]
    want = float(np.sqrt(stats.chi2.ppf(0.99, dof)))
    assert abs(k - want) <= 2 * np.spacing(want)
    with mpmath.workdps(40):
        p = mpmath.gammainc(mpmath.mpf(dof) / 2, 0, mpmath.mpf(k) ** 2 / 2,
                            regularized=True)
        assert abs(float(p - mpmath.mpf(0.99))) <= 1e-15


def test_exp1_matches_mpmath():
    x = np.concatenate([np.geomspace(1e-300, 1e-3, 100),
                        np.linspace(1e-3, 60.0, 6001), [2.5, np.nextafter(2.5, 3)]])
    want = np.array([float(mpmath.e1(float(v))) for v in x])
    got = losses._exp1(x)
    assert np.max(np.abs(got - want) / want) <= 5e-14
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert losses._exp1(0.0) == np.inf


@pytest.mark.parametrize("dof", [2, 4])
def test_magsac_needs_no_regularized_gamma(monkeypatch, dof):
    # the elementary kernel must not fall back to scipy's regularized gamma;
    # an epsilon no other in-process test uses makes _magsac_constants, which
    # is cached per (epsilon, dof), run under the patch too
    def refuse(*args, **kwargs):
        raise AssertionError("scipy regularized gamma called")

    monkeypatch.setattr(special, "gammaincc", refuse)
    monkeypatch.setattr(special, "gammainc", refuse)
    assert not hasattr(losses, "special")
    fn = LossFunction(LossKind.MAGSACPP, 1.2345, dof)
    r = np.linspace(0.0, 1.2 * fn.cutoff, 50)
    assert np.all(np.isfinite(fn.losses(r)))
    assert np.all(np.isfinite(fn.weights(r)))


def test_losses_import_no_scipy():
    # magsacpp's special functions come from math and numpy; a fresh
    # interpreter evaluates dof 1-8 without loading scipy
    code = ("import sys\n"
            "from mmfit.losses import LossFunction, LossKind\n"
            "for dof in range(1, 9):\n"
            "    fn = LossFunction(LossKind.MAGSACPP, 1.2345, dof)\n"
            "    fn.losses([0.0, 1.0, 9.0]), fn.weights([0.0, 1.0, 9.0])\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert run_fresh(code).strip() == "[]"


def _reference_losses(fn, r):
    """Oracle: each kind's loss as its own formula (magsacpp through
    LossFunction._magsac)."""
    eps = fn.epsilon
    if fn.kind is LossKind.HARD01:
        return np.where(r < eps, 0.0, 1.0)
    if fn.kind is LossKind.MSAC:
        return np.minimum(1.0, (r / eps) ** 2)
    if fn.kind is LossKind.TUKEY_BISQUARE:
        x = np.minimum(r / eps, 1.0)
        return 1.0 - (1.0 - x * x) ** 3
    if fn.kind is LossKind.HUBER:
        knee = eps / 2.0
        rho_max = 3.0 * eps * eps / 8.0
        rho = np.where(r <= knee, 0.5 * r * r, knee * (r - knee / 2.0))
        return np.minimum(1.0, rho / rho_max)
    if fn.kind is LossKind.HUBER_REDESCENDING:
        a, b, c = eps / 3.0, 2.0 * eps / 3.0, eps
        rc = np.minimum(r, c)
        rho_a = 0.5 * a * a
        rho_b = rho_a + a * (b - a)
        rho_c = rho_b + 0.5 * a * (c - b)
        rho = np.where(
            rc <= a,
            0.5 * rc * rc,
            np.where(
                rc <= b,
                rho_a + a * (rc - a),
                rho_b + a * ((c * (rc - b) - 0.5 * (rc * rc - b * b)) / (c - b)),
            ),
        )
        return np.where(r >= c, 1.0, rho / rho_c)
    return fn._magsac(r)[0]


def _reference_weights(fn, r):
    """Oracle: each kind's IRLS weight as its own formula."""
    eps = fn.epsilon
    if fn.kind in (LossKind.HARD01, LossKind.MSAC):
        return np.where(r < eps, 1.0, 0.0)
    if fn.kind is LossKind.TUKEY_BISQUARE:
        x = r / eps
        return np.where(r < eps, (1.0 - np.minimum(x, 1.0) ** 2) ** 2, 0.0)
    if fn.kind is LossKind.HUBER:
        knee = eps / 2.0
        safe = np.maximum(r, 1e-300)
        return np.where(r < eps, np.minimum(1.0, knee / safe), 0.0)
    if fn.kind is LossKind.HUBER_REDESCENDING:
        a, b, c = eps / 3.0, 2.0 * eps / 3.0, eps
        rc = np.minimum(r, c)
        safe = np.maximum(rc, 1e-300)
        psi_over_r = np.where(
            rc <= a,
            1.0,
            np.where(rc <= b, a / safe, a * (c - rc) / ((c - b) * safe)),
        )
        return np.where(r < c, np.maximum(psi_over_r, 0.0), 0.0)
    return fn._magsac(r)[1]


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("dof", range(1, 9))
def test_shared_kernel_equals_separate_calls(kind, dof):
    # the kernel that writes each kind's loss beside its weight, and the
    # losses and weights that return its halves, equal each kind's separate
    # loss and weight formulas bit for bit
    fn = LossFunction(kind, 2.5, dof)
    eps = fn.epsilon
    r = np.concatenate([[0.0, 1e-300, eps / 3.0, eps / 2.0, 2.0 * eps / 3.0,
                         eps, fn.cutoff, 1e300, np.inf],
                        np.random.default_rng(dof).uniform(0, 1.2 * fn.cutoff,
                                                           5000)])
    with np.errstate(over="ignore"):   # the oracle's r * r at r = 1e300
        want = _reference_losses(fn, r), _reference_weights(fn, r)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for got in (fn._losses_and_weights(r), (fn.losses(r), fn.weights(r))):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("dof", sorted({t.dof for t in ModelType}))
def test_losses_and_weights_warn_nowhere(kind, dof):
    fn = LossFunction(kind, 2.0, dof)
    r = np.concatenate([[0.0, 1e-300, 1e-12, fn.epsilon, fn.cutoff, 1e300],
                        np.linspace(0.0, 2.0 * fn.cutoff, 401)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss = fn.losses(r)
        weight = fn.weights(r)
    assert np.all(np.isfinite(loss)) and np.all(np.isfinite(weight))
