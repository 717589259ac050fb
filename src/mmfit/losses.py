"""Robust losses mapping residuals to [0, 1] and their IRLS weights.

Every kind has loss non-decreasing, loss(r) = 1 for r >= cutoff(kind,
epsilon), and loss(0) = 0, exactly except for magsacpp: there loss(0) is
what rounding leaves of subtracting Gamma(a+1) below, under the machine
epsilon 2.2e-16 for dof 1-40 (1.3e-16 at dof 2, 1.7e-16 at dof 4). The
IRLS weight is proportional to loss'(r)/r, normalized so w(0) = 1 where
that value is finite, and w(r) = 0 exactly where the loss saturates;
_losses_and_weights writes each kind's loss beside its weight.

Kinds and cutoffs (epsilon is the single user-facing threshold):

  hard01        0/1 step at epsilon                       cutoff = epsilon
  msac          min(1, r^2 / eps^2)                        cutoff = epsilon
  huber         truncated Huber, knee at eps/2             cutoff = epsilon
  huber_redesc  Hampel three-part, knots eps/3, 2eps/3     cutoff = epsilon
  tukey         1 - (1 - (r/eps)^2)^3                      cutoff = epsilon
  magsacpp      noise-scale-marginalized loss (below)      cutoff = k(dof)*epsilon

The magsacpp kind treats epsilon as a loose upper bound of the unknown
noise scale sigma. Inlier residuals at scale sigma follow a sigma-scaled
chi distribution with `dof` degrees of freedom, truncated at its 0.99
quantile k(dof)*sigma, where k^2/2 solves P(dof/2, x) = 1 - Gu(dof/2, x) /
Gamma(dof/2) = 0.99 (the chi^2 quantile), found by bisection.
Marginalizing the truncated density over sigma ~ U(0, epsilon] gives the
weight

    w(r)  propto  Gu(a, y) - Gu(a, k^2/2),   y = r^2 / (2 eps^2),

with a = (dof - 1)/2 and Gu the upper incomplete gamma function. The loss
is the weight-consistent integral loss(r) = C * integral_0^r s w(s) ds,
normalized to saturate at 1. Integrating by parts with Gu(a+1, y) =
a Gu(a, y) + y^a e^-y leaves one incomplete gamma value per residual, which
IRLS shares between a refit's losses and the next refit's weights:

    integral_0^r s w(s) ds  propto  (y - a) Gu(a, y) - y^a e^-y + Gamma(a+1)
                                    - y Gu(a, k^2/2).

Since dof is a positive integer, a is a whole or half-whole number, and
Gu(a, x) is elementary, computed with numpy and the math module alone:

    Gu(0, x)   = E1(x)       (dof 1; a numpy series or continued fraction)
    Gu(1/2, x) = sqrt(pi) erfc(sqrt(x))   (math.erfc per element)
    Gu(1, x)   = e^-x
    Gu(s+1, x) = s Gu(s, x) + x^s e^-x (upward, all terms positive)
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import erfc, factorial, sqrt
from math import gamma as _gamma_fn

import numpy as np

from .errors import InvalidConfig

# E1's Taylor coefficients (-1)^(j+1) / (j j!), j = 26 .. 1 (Horner order)
_E1_SERIES = tuple((-1.0) ** (j + 1) / (j * factorial(j)) for j in range(26, 0, -1))


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


class LossKind(Enum):
    HARD01 = "hard01"
    MSAC = "msac"
    HUBER = "huber"
    HUBER_REDESCENDING = "huber_redesc"
    TUKEY_BISQUARE = "tukey"
    MAGSACPP = "magsacpp"

    @classmethod
    def from_string(cls, name) -> "LossKind":
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):
            raise ValueError(f"unknown loss kind {name!r}") from None


def _exp1(x):
    """E1(x) = Gu(0, x) for x >= 0, E1(0) = inf: the series -gamma - ln x +
    sum_j (-1)^(j+1) x^j / (j j!) to j = 26 for x <= 2.5, else the continued
    fraction e^-x / (x + 1 - 1/(x + 3 - 4/(x + 5 - ...))) to depth 40."""
    x = np.asarray(x, dtype=float)
    out, near = np.empty_like(x), x <= 2.5
    s = x[near]
    acc = np.zeros_like(s)
    for c in _E1_SERIES:
        acc *= s
        acc += c
    with np.errstate(divide="ignore"):   # ln 0 = -inf: E1(0) = inf
        out[near] = s * acc - 0.5772156649015329 - np.log(s)
    s = x[~near]
    f = s + 81.0
    for j in range(40, 0, -1):
        f = (s + (2 * j - 1)) - j * j / f
    out[~near] = np.exp(-s) / f
    return out


def _upper_gamma(a: float, x):
    """Unregularized upper incomplete gamma Gu(a, x) for a whole or
    half-whole a >= 0, by the upward recurrence from Gu(1/2, x) or Gu(1, x)
    (see the module docstring)."""
    if a == 0.0:
        return _exp1(x)
    e = np.exp(-x)
    if a % 1.0:
        root = np.sqrt(x)
        erfcs = np.fromiter(map(erfc, memoryview(np.ravel(root))), float)
        g, term, s = np.sqrt(np.pi) * erfcs.reshape(np.shape(root)), root * e, 0.5
    else:
        g, term, s = e, x * e, 1.0
    # invariant: g = Gu(s, x) and term = x^s e^-x
    while s < a:
        g = s * g + term
        term = term * x
        s += 1.0
    return g


@lru_cache(maxsize=None)
def _magsac_constants(epsilon: float, dof: int):
    a = (dof - 1) / 2.0
    # k^2 / 2: the least double x with P(dof/2, x) = 1 - Gu(dof/2, x) /
    # Gamma(dof/2) >= 0.99, by bisection
    s, target = dof / 2.0, 0.01 * _gamma_fn(dof / 2.0)
    lo, hi = 0.0, 1.0
    while _upper_gamma(s, hi) > target:
        hi *= 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if _upper_gamma(s, mid) > target else (lo, mid)
    k = sqrt(2.0 * hi)
    gu_a_k = float(_upper_gamma(a, hi))
    # loss normalizer: raw loss value at the cutoff r = k * epsilon
    norm = epsilon ** 2 * (_gamma_fn(a + 1.0) - float(_upper_gamma(a + 1.0, hi)))
    # weight normalizer: raw weight at r = 0, infinite for dof = 1, where
    # the weight's Gu(0, y) is capped at Gu(0, 1e-15) instead
    w0 = float(_gamma_fn(a)) - gu_a_k if a > 0 else float(_exp1(1e-15))
    return a, k, gu_a_k, norm, w0


@dataclass(frozen=True)
class LossFunction:
    """Immutable loss configuration: kind, threshold, residual dof."""

    kind: LossKind
    epsilon: float
    dof: int = 2

    def __post_init__(self):
        if not isinstance(self.kind, LossKind):
            raise InvalidConfig("kind must be a LossKind")
        if not _is_real(self.epsilon) or not 0 < self.epsilon < np.inf:
            raise InvalidConfig("epsilon must be positive and finite")
        if not _is_integer(self.dof) or self.dof < 1:
            raise InvalidConfig("dof must be a positive integer")

    @property
    def cutoff(self) -> float:
        """Residual at and beyond which the loss is exactly 1 and the IRLS
        weight exactly 0, for every kind, epsilon and dof. The engine
        relies on it: it scores candidates and refits instances over the
        points with r < cutoff alone, and a residual kernel may return any
        value >= cutoff past it."""
        if self.kind is LossKind.MAGSACPP:
            _, k, *_ = _magsac_constants(self.epsilon, self.dof)
            return k * self.epsilon
        return self.epsilon

    def losses(self, r) -> np.ndarray:
        """Per-residual loss, same shape as r."""
        return self._losses_and_weights(r)[0]

    def weights(self, r) -> np.ndarray:
        """Per-residual IRLS weight, same shape as r."""
        return self._losses_and_weights(r)[1]

    def _losses_and_weights(self, r):
        """(losses(r), weights(r)): refine_irls takes a refit's losses and
        the next refit's weights from one call."""
        r = np.asarray(r, dtype=float)
        if self.kind is LossKind.MAGSACPP:
            return self._magsac(r)
        eps = self.epsilon
        inside = r < eps
        if self.kind is LossKind.HARD01:
            return np.where(inside, 0.0, 1.0), np.where(inside, 1.0, 0.0)
        rc = np.minimum(r, eps)   # no square overflows past eps, where loss = 1
        if self.kind is LossKind.MSAC:
            return (rc / eps) ** 2, np.where(inside, 1.0, 0.0)
        if self.kind is LossKind.TUKEY_BISQUARE:
            x = rc / eps
            return 1.0 - (1.0 - x * x) ** 3, np.where(inside, (1.0 - x * x) ** 2, 0.0)
        if self.kind is LossKind.HUBER:
            knee = eps / 2.0
            rho = np.where(rc <= knee, 0.5 * rc * rc, knee * (rc - knee / 2.0))
            return (np.minimum(1.0, rho / (3.0 * eps * eps / 8.0)),
                    np.where(inside, np.minimum(1.0, knee / np.maximum(r, 1e-300)), 0.0))
        # HUBER_REDESCENDING: Hampel's three parts, knots a and b, zero at c
        a, b, c = eps / 3.0, 2.0 * eps / 3.0, eps
        safe = np.maximum(rc, 1e-300)
        rho_a = 0.5 * a * a
        rho_b = rho_a + a * (b - a)
        rho = np.where(rc <= a, 0.5 * rc * rc, np.where(
            rc <= b, rho_a + a * (rc - a),
            rho_b + a * ((c * (rc - b) - 0.5 * (rc * rc - b * b)) / (c - b))))
        psi_over_r = np.where(rc <= a, 1.0, np.where(
            rc <= b, a / safe, a * (c - rc) / ((c - b) * safe)))
        return (np.where(r >= c, 1.0, rho / (rho_b + 0.5 * a * (c - b))),
                np.where(inside, np.maximum(psi_over_r, 0.0), 0.0))

    def _magsac(self, r: np.ndarray):
        """The magsacpp losses and weights of r, from one Gu(a, y) per
        residual below the cutoff."""
        a, k, gu_a_k, norm, w0 = _magsac_constants(self.epsilon, self.dof)
        eps = self.epsilon
        loss, weight = np.ones_like(r), np.zeros_like(r)
        inside = r < k * eps
        ri = r[inside]
        # the floor keeps y * Gu(0, y) from evaluating as 0 * inf at r = 0
        y = np.maximum(ri * ri / (2.0 * eps * eps), 1e-300)
        g = _upper_gamma(a, y)
        # integral_0^r s * [Gu(a, s^2/(2 eps^2)) - Gu(a, k^2/2)] ds
        term = eps * eps * ((y - a) * g - y ** a * np.exp(-y)
                            + _gamma_fn(a + 1.0))
        loss[inside] = np.clip((term - 0.5 * ri * ri * gu_a_k) / norm, 0.0, 1.0)
        if a == 0.0:
            # dof = 1: the marginal diverges logarithmically at r = 0
            weight[inside] = np.minimum(g, w0) - gu_a_k
        else:
            weight[inside] = (g - gu_a_k) / w0
        return loss, np.maximum(weight, 0.0)
