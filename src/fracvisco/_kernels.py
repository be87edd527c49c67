"""Vectorized numpy evaluation of the Mittag-Leffler function.

``eval_ml_neg`` computes the two-parameter Mittag-Leffler function on the
negative real axis, E_{alpha,b}(-x) for x >= 0, b in {1, 2, alpha}.  Three
evaluation branches are selected by s = x**(1/alpha):

  s <= S_SERIES   ascending Taylor series, term-ratio recurrence, Kahan sum
  s >= S_ASYM     descending series truncated at the envelope minimum
  in between      spectral integral over the kernel's relaxation measure,
                  sinh-mapped so the near-pole at v = -cos(pi*alpha) and the
                  v**(1/alpha) endpoint branch point are both resolved by a
                  fixed tanh-sinh + Gauss-Legendre panel pair

The windows and node counts were calibrated against a 140-digit series
oracle: each branch stays within ~3e-11 relative over its window for
alpha in [0.25, 0.999], and well under 1e-12 for alpha in [0.3, 0.99].
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

S_SERIES = 5.0
S_ASYM = 40.0
U_CUT = 64.0  # exp(-u) is below double rounding past this
SPECTRAL_BLOCK = 1024  # points per _spectral call
_LN_PI = math.log(math.pi)
_LOG_STOP = math.log(1e-18)


def _tanh_sinh_rule(n, tmax=3.2):
    t = np.linspace(-tmax, tmax, n)
    h = t[1] - t[0]
    st = 0.5 * np.pi * np.sinh(t)
    return np.tanh(st), h * 0.5 * np.pi * np.cosh(t) / np.cosh(st) ** 2


_DE_X, _DE_W = _tanh_sinh_rule(200)
_GL_X, _GL_W = np.polynomial.legendre.leggauss(160)


@lru_cache(maxsize=64)
def series_coefficients(alpha, b):
    """Ratios r_k = Gamma(b+alpha k)/Gamma(b+alpha(k+1)) and the k=0 term."""
    n = min(1600, int(45.0 / alpha) + 64)
    g = gammaln(b + alpha * np.arange(n + 1))
    return np.exp(g[:-1] - g[1:]), float(np.exp(-g[0]))


@lru_cache(maxsize=64)
def asym_coefficients(alpha, b):
    """x-independent data for -sum_{k>=1} (-x)^{-k} / Gamma(b - alpha k).

    Returns (lenv, lmag, sign) for k = 1..n:  log envelope with the sine
    factor of the reflection formula dropped (adding -k log x makes it
    unimodal in k, so the first increase marks the optimal truncation),
    log |1/Gamma(b - alpha k)|, and the sign of the full term.
    """
    n = min(2000, int(42.0 / alpha) + 32)
    k = np.arange(1, n + 1)
    y = b - alpha * k
    lenv = np.empty(n)
    lmag = np.empty(n)
    sign = np.ones(n)
    hi = y > 0.5
    if np.any(hi):
        lg = gammaln(y[hi])
        lenv[hi] = -lg
        lmag[hi] = -lg
    lo = ~hi
    if np.any(lo):
        ylo = y[lo]
        lg1 = gammaln(1.0 - ylo)
        m = np.round(ylo)
        f = ylo - m
        spi = np.sin(np.pi * f) * np.where(m.astype(np.int64) % 2 == 0, 1.0, -1.0)
        lenv[lo] = lg1 - _LN_PI
        with np.errstate(divide="ignore"):
            lmag[lo] = lg1 + np.log(np.abs(spi) / np.pi)
        sign[lo] = np.where(spi >= 0.0, 1.0, -1.0)
    sign *= np.where(k % 2 == 1, 1.0, -1.0)
    lmag[~np.isfinite(lmag)] = -1e308
    return lenv, lmag, sign


def _series(x, srat, st0):
    # the working arrays hold only the points still summing: converged ones
    # are written out and dropped, so a term costs O(live points)
    out = np.full(x.shape, st0)
    live = np.arange(x.size)
    neg = -x
    t = np.full(x.shape, st0)
    acc = t.copy()
    comp = np.zeros_like(x)
    prev = np.abs(t)
    for k in range(srat.shape[0]):
        t = t * neg * srat[k]
        y = t - comp
        tt = acc + y
        comp = (tt - acc) - y
        acc = tt
        a = np.abs(t)
        done = (a < 1e-18 * np.abs(acc)) & (a <= prev)
        prev = a
        if done.any():
            out[live[done]] = acc[done]
            keep = ~done
            live = live[keep]
            if live.size == 0:
                return out
            t, acc, comp, prev, neg = (t[keep], acc[keep], comp[keep],
                                       prev[keep], neg[keep])
    out[live] = acc
    return out


def _asymptotic(x, lenv, lmag, sgn):
    lx = np.log(x)
    acc = np.zeros_like(x)
    comp = np.zeros_like(x)
    prev_env = np.full(x.shape, 1e308)
    active = np.ones(x.shape, dtype=bool)
    for k in range(lenv.shape[0]):
        e = lenv[k] - (k + 1) * lx[active]
        idx = np.where(active)[0]
        stop = e >= prev_env[active]
        live = idx[~stop]
        active[idx[stop]] = False
        if live.size == 0:
            break
        el = lenv[k] - (k + 1) * lx[live]
        prev_env[live] = el
        lt = lmag[k] - (k + 1) * lx[live]
        t = np.where(lt > -700.0, sgn[k] * np.exp(np.maximum(lt, -700.0)), 0.0)
        y = t - comp[live]
        tt = acc[live] + y
        comp[live] = (tt - acc[live]) - y
        acc[live] = tt
        conv = el < _LOG_STOP + np.log(np.abs(acc[live]) + 1e-300)
        active[live[conv]] = False
        if not np.any(active):
            break
    return acc


def _g_of(b, u, x):
    if b == 1.0:
        return np.exp(-u)
    if b == 2.0:
        safe = np.where(u == 0.0, 1.0, u)
        return np.where(u > 1e-8, -np.expm1(-u) / safe, 1.0 - 0.5 * u)
    return u * np.exp(-u) / x


def _spectral(alpha, b, x):
    ia = 1.0 / alpha
    w = math.sin(math.pi * alpha)
    vstar = -math.cos(math.pi * alpha)
    y0 = math.asinh(-vstar / w)
    v_exp = U_CUT ** alpha / x
    if b == 2.0:
        v_alg = (x ** (-ia) / (1.0 + ia) * 1e16) ** (alpha / (1.0 + alpha))
        v_top = np.maximum(np.maximum(v_exp, v_alg), vstar + 4.0 * w)
    else:
        v_top = v_exp
    ym = np.arcsinh((v_exp - vstar) / w)
    yt = np.arcsinh((v_top - vstar) / w)
    ym = np.minimum(ym, yt)
    hw = 0.5 * (ym - y0)
    mid = 0.5 * (ym + y0)
    y = mid[:, None] + hw[:, None] * _DE_X[None, :]
    v = np.maximum(vstar + w * np.sinh(y), 0.0)
    u = (v * x[:, None]) ** ia
    g = _g_of(b, u, x[:, None])
    # einsum sums each row on its own; a BLAS matrix-vector product rounds
    # rows differently by their position in the call, which would make a
    # point's value depend on the block it is evaluated in
    acc = hw * np.einsum("ij,j->i", g / np.cosh(y), _DE_W)
    tail = yt > ym
    if np.any(tail):
        hw2 = 0.5 * (yt[tail] - ym[tail])
        mid2 = 0.5 * (yt[tail] + ym[tail])
        y2 = mid2[:, None] + hw2[:, None] * _GL_X[None, :]
        v2 = vstar + w * np.sinh(y2)
        u2 = (v2 * x[tail][:, None]) ** ia
        g2 = _g_of(b, u2, x[tail][:, None])
        acc[tail] += hw2 * np.einsum("ij,j->i", g2 / np.cosh(y2), _GL_W)
    return acc * (1.0 / (alpha * math.pi))


def eval_ml_neg(alpha, b, xs):
    """E_{alpha,b}(-x) elementwise over xs >= 0.

    alpha == 1 is dispatched to exact exponential forms.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if alpha == 1.0:
        if b == 2.0:
            safe = np.where(xs == 0.0, 1.0, xs)
            return np.where(xs == 0.0, 1.0, -np.expm1(-xs) / safe)
        return np.exp(-xs)
    if b not in (1.0, 2.0, alpha):
        raise ValueError(f"unsupported second parameter b={b!r}")
    srat, st0 = series_coefficients(alpha, b)
    s_arg = np.where(xs > 0.0, xs, 1.0) ** (1.0 / alpha)
    zero = xs == 0.0
    ser = (~zero) & (s_arg <= S_SERIES)
    asy = (~zero) & (s_arg >= S_ASYM)
    bri = ~(zero | ser | asy)
    out = np.empty_like(xs)
    out[zero] = st0
    if np.any(ser):
        out[ser] = _series(xs[ser], srat, st0)
    if np.any(asy):
        out[asy] = _asymptotic(xs[asy], *asym_coefficients(alpha, b))
    if np.any(bri):
        # point blocks bound the (points x nodes) quadrature temporaries
        xb = xs[bri]
        vals = np.empty_like(xb)
        for i in range(0, xb.size, SPECTRAL_BLOCK):
            vals[i:i + SPECTRAL_BLOCK] = _spectral(alpha, b,
                                                   xb[i:i + SPECTRAL_BLOCK])
        out[bri] = vals
    return out
