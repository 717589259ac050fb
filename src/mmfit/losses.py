"""Robust losses mapping residuals to [0, 1] and their IRLS weights.

Every kind has loss non-decreasing, loss(r) = 1 for r >= cutoff(kind,
epsilon), and loss(0) = 0, exactly except for magsacpp: there loss(0) is
what rounding leaves of subtracting Gamma(a+1) below, under the machine
epsilon 2.2e-16 for dof 1-40 (1.3e-16 at dof 2, 1.7e-16 at dof 4). The
IRLS weight is proportional to loss'(r)/r, normalized so w(0) = 1 where
that value is finite, and w(r) = 0 exactly where the loss saturates.

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
quantile k(dof)*sigma, where k^2 = 2 gammaincinv(dof/2, 0.99) (the chi^2
quantile, by scipy.special). Marginalizing the truncated density over
sigma ~ U(0, epsilon] gives the weight

    w(r)  propto  Gu(a, y) - Gu(a, k^2/2),   y = r^2 / (2 eps^2),

with a = (dof - 1)/2 and Gu the upper incomplete gamma function. The loss
is the weight-consistent integral loss(r) = C * integral_0^r s w(s) ds,
normalized to saturate at 1. Integrating by parts with Gu(a+1, y) =
a Gu(a, y) + y^a e^-y leaves one incomplete gamma value per residual:

    integral_0^r s w(s) ds  propto  (y - a) Gu(a, y) - y^a e^-y + Gamma(a+1)
                                    - y Gu(a, k^2/2).

Since dof is a positive integer, a is a whole or half-whole number, and
Gu(a, x) is elementary:

    Gu(0, x)   = E1(x)                 (dof 1, the exponential integral)
    Gu(1/2, x) = sqrt(pi) erfc(sqrt(x))
    Gu(1, x)   = e^-x
    Gu(s+1, x) = s Gu(s, x) + x^s e^-x (upward, all terms positive)
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import gamma as _gamma_fn

import numpy as np
from scipy import special

from .errors import InvalidConfig


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


def _upper_gamma(a: float, x):
    """Unregularized upper incomplete gamma Gu(a, x) for a whole or
    half-whole a >= 0, by the upward recurrence from Gu(1/2, x) or Gu(1, x)
    (see the module docstring)."""
    if a == 0.0:
        return special.exp1(x)
    e = np.exp(-x)
    if a % 1.0:
        root = np.sqrt(x)
        g, term, s = np.sqrt(np.pi) * special.erfc(root), root * e, 0.5
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
    k = float(np.sqrt(2.0 * special.gammaincinv(dof / 2.0, 0.99)))
    k2h = k * k / 2.0          # k^2 / 2
    gu_a_k = float(_upper_gamma(a, k2h))
    # loss normalizer: raw loss value at the cutoff r = k * epsilon
    norm = epsilon ** 2 * float(_gamma_fn(a + 1.0) * special.gammainc(a + 1.0, k2h))
    # weight normalizer: raw weight at r = 0 (infinite for dof = 1)
    w0 = float(_gamma_fn(a)) - gu_a_k if a > 0 else None
    return a, k, k2h, gu_a_k, norm, w0


@dataclass(frozen=True)
class LossFunction:
    """Immutable loss configuration: kind, threshold, residual dof."""

    kind: LossKind
    epsilon: float
    dof: int = 2

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise InvalidConfig("epsilon must be positive and finite")
        if self.dof < 1:
            raise InvalidConfig("dof must be a positive integer")

    @property
    def cutoff(self) -> float:
        """Residual at and beyond which the loss is exactly 1 and the IRLS
        weight exactly 0, for every kind, epsilon and dof. The engine
        relies on it: it scores candidates and refits instances over the
        points with r < cutoff alone."""
        if self.kind is LossKind.MAGSACPP:
            _, k, *_ = _magsac_constants(self.epsilon, self.dof)
            return k * self.epsilon
        return self.epsilon

    # -- loss ---------------------------------------------------------------

    def losses(self, r) -> np.ndarray:
        """Per-residual loss, same shape as r."""
        r = np.asarray(r, dtype=float)
        eps = self.epsilon
        if self.kind is LossKind.HARD01:
            return np.where(r < eps, 0.0, 1.0)
        if self.kind is LossKind.MSAC:
            return np.minimum(1.0, (r / eps) ** 2)
        if self.kind is LossKind.TUKEY_BISQUARE:
            x = np.minimum(r / eps, 1.0)
            return 1.0 - (1.0 - x * x) ** 3
        if self.kind is LossKind.HUBER:
            knee = eps / 2.0
            rho_max = 3.0 * eps * eps / 8.0
            rho = np.where(r <= knee, 0.5 * r * r, knee * (r - knee / 2.0))
            return np.minimum(1.0, rho / rho_max)
        if self.kind is LossKind.HUBER_REDESCENDING:
            return self._hampel_loss(r)
        return self._magsac_loss(r)

    def _hampel_loss(self, r: np.ndarray) -> np.ndarray:
        eps = self.epsilon
        a, b, c = eps / 3.0, 2.0 * eps / 3.0, eps
        rc = np.minimum(r, c)   # past c the loss is 1; inf - inf stays out
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

    def _magsac_loss(self, r: np.ndarray) -> np.ndarray:
        a, k, k2h, gu_a_k, norm, _ = _magsac_constants(self.epsilon, self.dof)
        eps = self.epsilon
        out = np.ones_like(r)
        inside = r < k * eps
        ri = r[inside]
        # the floor keeps y * Gu(0, y) from evaluating as 0 * inf at r = 0
        y = np.maximum(ri * ri / (2.0 * eps * eps), 1e-300)
        # integral_0^r s * [Gu(a, s^2/(2 eps^2)) - Gu(a, k^2/2)] ds
        term = eps * eps * ((y - a) * _upper_gamma(a, y)
                            - y ** a * np.exp(-y)
                            + _gamma_fn(a + 1.0))
        raw = term - 0.5 * ri * ri * gu_a_k
        out[inside] = np.clip(raw / norm, 0.0, 1.0)
        return out

    # -- IRLS weight --------------------------------------------------------

    def weights(self, r) -> np.ndarray:
        """Per-residual IRLS weight, same shape as r."""
        r = np.asarray(r, dtype=float)
        eps = self.epsilon
        if self.kind in (LossKind.HARD01, LossKind.MSAC):
            return np.where(r < eps, 1.0, 0.0)
        if self.kind is LossKind.TUKEY_BISQUARE:
            x = r / eps
            return np.where(r < eps, (1.0 - np.minimum(x, 1.0) ** 2) ** 2, 0.0)
        if self.kind is LossKind.HUBER:
            knee = eps / 2.0
            safe = np.maximum(r, 1e-300)
            return np.where(r < eps, np.minimum(1.0, knee / safe), 0.0)
        if self.kind is LossKind.HUBER_REDESCENDING:
            a, b, c = eps / 3.0, 2.0 * eps / 3.0, eps
            rc = np.minimum(r, c)
            safe = np.maximum(rc, 1e-300)
            psi_over_r = np.where(
                rc <= a,
                1.0,
                np.where(rc <= b, a / safe, a * (c - rc) / ((c - b) * safe)),
            )
            return np.where(r < c, np.maximum(psi_over_r, 0.0), 0.0)
        return self._magsac_weight(r)

    def _magsac_weight(self, r: np.ndarray) -> np.ndarray:
        a, k, k2h, gu_a_k, _, w0 = _magsac_constants(self.epsilon, self.dof)
        eps = self.epsilon
        out = np.zeros_like(r)
        inside = r < k * eps
        y = r[inside] ** 2 / (2.0 * eps * eps)
        if a == 0.0:
            # dof = 1: the marginal diverges logarithmically at r = 0
            y = np.maximum(y, 1e-15)
            out[inside] = _upper_gamma(a, y) - gu_a_k
        else:
            out[inside] = (_upper_gamma(a, y) - gu_a_k) / w0
        return np.maximum(out, 0.0)

