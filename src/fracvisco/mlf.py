"""Mittag-Leffler evaluation and the derived relaxation-kernel quantities.

The fractional kernel is

    beta(t) = gamma * tau**(-alpha) * t**(alpha-1) * E_{alpha,alpha}(-(t/tau)**alpha),

with total mass integral(beta, 0, inf) = gamma.  Its primitives have closed
forms through the two-parameter Mittag-Leffler function:

    B(t) = integral(beta, 0, t)  = gamma * (1 - E_alpha(-(t/tau)**alpha))
    C(t) = integral(B, 0, t)     = gamma * t * (1 - E_{alpha,2}(-(t/tau)**alpha))

C uses the identity integral(E_alpha(-lam*s**alpha), 0, t) = t*E_{alpha,2}(-lam*t**alpha);
beta uses d/dt E_alpha(-lam*t**alpha) = -lam*t**(alpha-1)*E_{alpha,alpha}(-lam*t**alpha),
which avoids numerical differentiation near the t=0 singularity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import eval_ml_neg

__all__ = [
    "KernelParams",
    "ml_e",
    "kernel_beta",
    "beta_primitive",
    "beta_double_primitive",
]


@dataclass(frozen=True)
class KernelParams:
    """Fractional kernel triple (alpha, tau, gamma).

    alpha: order, 0 < alpha <= 1 (alpha = 1 is the exponential-kernel
    degenerate, kept for testing).  tau: relaxation time in seconds, > 0.
    gamma: total kernel mass, 0 <= gamma < 1 (gamma = 0 is purely elastic).
    """

    alpha: float
    tau: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")

    @property
    def rate(self):
        """Decay rate lambda = tau**(-alpha) of the kernel argument."""
        return self.tau ** (-self.alpha)


def ml_e(alpha, b, x):
    """E_{alpha,b}(-x) for x >= 0, elementwise; a float for a scalar x."""
    x = np.asarray(x, dtype=np.float64)
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    b = float(b)
    if b not in (1.0, 2.0) and b != alpha:
        raise ValueError(f"b must be one of 1, 2, alpha; got {b}")
    if not np.all(x >= 0.0):
        raise ValueError("x must be nonnegative")
    out = eval_ml_neg(alpha, b, np.atleast_1d(x).ravel()).reshape(x.shape)
    return float(out) if x.ndim == 0 else out


def kernel_beta(p: KernelParams, t):
    """Kernel value beta(t); weakly singular, only defined for t > 0."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0):
        raise ValueError("kernel_beta requires t > 0")
    lam = p.rate
    e = ml_e(p.alpha, p.alpha, lam * np.power(t, p.alpha))
    out = p.gamma * lam * np.power(t, p.alpha - 1.0) * e
    return float(out) if t.ndim == 0 else out


def beta_primitive(p: KernelParams, t):
    """B(t) = integral of beta over (0, t]; B(0) = 0, B(inf) = gamma."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise ValueError("beta_primitive requires t >= 0")
    e = ml_e(p.alpha, 1.0, p.rate * np.power(t, p.alpha))
    out = p.gamma * (1.0 - e)
    return float(out) if t.ndim == 0 else out


def beta_double_primitive(p: KernelParams, t):
    """C(t) = integral of B over (0, t]; convex increasing, C(t) <= gamma*t."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0):
        raise ValueError("beta_double_primitive requires t >= 0")
    e = ml_e(p.alpha, 2.0, p.rate * np.power(t, p.alpha))
    out = p.gamma * t * (1.0 - e)
    return float(out) if t.ndim == 0 else out

