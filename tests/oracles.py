"""Reference implementations the tests compare the package against.

Each is independent of the route the package takes: ``ml_e_reference``
evaluates the Mittag-Leffler series in mpmath's arbitrary precision, and
``omega_by_quadrature`` integrates the kernel over a time cell by nested
quadrature instead of differencing the double primitive C.
``sorted_order`` renumbers an assembled system's free dofs in sorted order
instead of the band order of ``assemble``.
"""

import dataclasses

import mpmath as mp
import numpy as np
from scipy.integrate import quad

from fracvisco.mlf import KernelParams, ml_e
from fracvisco.weights import TimeGrid


def ml_e_reference(alpha, b, x, dps=60):
    """High-precision oracle for E_{alpha,b}(-x), x >= 0.

    Ascending series in adaptive working precision for moderate arguments;
    descending series (truncation below 1e-45 relative) when
    x**(1/alpha) > 60, where the ascending series would need excessive terms.
    """
    x = float(x)
    if x == 0.0:
        with mp.workdps(dps):
            return float(1 / mp.gamma(b))
    s = x ** (1.0 / alpha)
    if s <= 60.0:
        # cancellation costs ~ s/ln(10) digits
        work = int(dps + 0.55 * s + 20)
        with mp.workdps(work):
            al = mp.mpf(alpha)
            bb = mp.mpf(b)
            z = -mp.mpf(x)
            tot = mp.mpf(0)
            k = 0
            while True:
                t = z ** k / mp.gamma(bb + al * k)
                tot += t
                if k > 8 and abs(t) < mp.mpf(10) ** (-work + 8) * max(
                    abs(tot), mp.mpf("1e-300")
                ):
                    break
                k += 1
                if k > 200000:
                    raise RuntimeError("series did not converge")
            return float(tot)
    with mp.workdps(dps):
        al = mp.mpf(alpha)
        bb = mp.mpf(b)
        xx = mp.mpf(x)
        tot = mp.mpf(0)
        prev = mp.inf
        for k in range(1, 2000):
            y = bb - al * k
            env = (mp.rgamma(y) if y > 0.5 else mp.gamma(1 - y) / mp.pi) * xx ** (-k)
            if env >= prev:
                break
            prev = env
            tot += -((-xx) ** (-k)) * mp.rgamma(y)
            if env < mp.mpf(10) ** (-45) * max(abs(tot), mp.mpf("1e-300")):
                break
        return float(tot)


_GL32 = np.polynomial.legendre.leggauss(32)
_GL48 = np.polynomial.legendre.leggauss(48)


def omega_by_quadrature(grid: TimeGrid, p: KernelParams, n, j,
                        epsabs=1e-12, epsrel=1e-10):
    """Nested-quadrature reference for omega_nj (1-based indices).

    Outer integral over I_n is adaptive.  The inner kernel integral in the
    lag w = t - s is singularity-aware: the substitution w = z**(1/alpha)
    absorbs the weak w**(alpha-1) endpoint singularity exactly (the
    z-integrand is the analytic E_{alpha,alpha}(-lam*z)), and is then
    integrated by a Gauss rule whose 32- vs 48-point agreement is checked,
    escalating to fully adaptive quadrature on disagreement.  Independent of
    the closed-form route through the double primitive C; shares only the
    pointwise Mittag-Leffler evaluation.
    """
    if not (1 <= j <= n <= grid.n_steps):
        raise ValueError("need 1 <= j <= n <= N")
    if p.gamma == 0.0:
        return 0.0
    t0, t1 = grid.nodes[n - 1], grid.nodes[n]
    s0, s1 = grid.nodes[j - 1], grid.nodes[j]
    lam = p.rate
    alpha = p.alpha
    scale = p.gamma * lam / alpha

    def inner(t):
        # integral of beta over (max(t - s1, 0), t - s0) in the lag variable
        zl = max(t - s1, 0.0) ** alpha
        zh = (t - s0) ** alpha
        hw = 0.5 * (zh - zl)
        mid = 0.5 * (zh + zl)
        za = mid + hw * _GL32[0]
        zb = mid + hw * _GL48[0]
        e = ml_e(alpha, alpha, lam * np.concatenate([za, zb]))
        va = scale * hw * np.dot(_GL32[1], e[:32])
        vb = scale * hw * np.dot(_GL48[1], e[32:])
        if abs(va - vb) > max(epsabs * 1e-2, epsrel * abs(vb)):
            vb, _ = quad(lambda z: scale * ml_e(alpha, alpha, lam * z),
                         zl, zh, epsabs=epsabs * 1e-2, epsrel=epsrel,
                         limit=200)
        return vb

    val, _ = quad(inner, t0, t1, epsabs=epsabs, epsrel=epsrel, limit=200)
    return val


def sorted_order(sys_):
    """``sys_`` with its free dofs in sorted order: ``free_dofs``, ``Kff``,
    ``Mff`` and ``load`` taken from the full-size ``K``, ``M`` and load on
    that order."""
    free = np.sort(sys_.free_dofs)
    return dataclasses.replace(sys_, free_dofs=free,
                               Kff=sys_.K[free][:, free].tocsr(),
                               Mff=sys_.M[free][:, free].tocsr(),
                               load=sys_.expand(sys_.load)[free])
