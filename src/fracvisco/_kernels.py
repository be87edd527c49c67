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

Every branch is pointwise, so all three run on blocks that keep their
working arrays in cache: SERIES_BLOCK points for the series and asymptotic
branches, SPECTRAL_BLOCK points for the spectral one.  A spectral block
works in place in three (points x nodes) buffers; next to the
allocate-per-operation formulas only the operand order of commutative
operations differs.  Neither blocking nor the in-place panels change a bit:
a point's value does not depend on the batch it is in.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

S_SERIES = 5.0
S_ASYM = 40.0
U_CUT = 64.0  # exp(-u) is below double rounding past this
SPECTRAL_BLOCK = 256  # points per _spectral call
SERIES_BLOCK = 16384  # points per _series and _asymptotic call
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


def _g(b, u, x, out):
    # the spectral integrand's g(u) into out, u kept: exp(-u) for b = 1,
    # -expm1(-u) / u (1 - u/2 where u <= 1e-8) for b = 2, u exp(-u) / x
    # for b = alpha
    np.negative(u, out=out)
    if b == 2.0:
        np.expm1(out, out=out)
        np.negative(out, out=out)
        big = u > 1e-8
        np.divide(out, u, out=out, where=big)
        small = ~big
        if small.any():
            out[small] = 1.0 - 0.5 * u[small]
        return out
    np.exp(out, out=out)
    if b != 1.0:
        out *= u
        out /= x
    return out


def _panel(alpha, b, x, lo, hi, nodes, weights, work):
    # hw * sum_i weights_i g(u_i) / cosh(y_i) at y_i = mid + hw nodes_i on
    # each point's panel (lo, hi), in place in the three flat buffers of
    # work; only the operand order of commutative operations differs from
    # the elementwise formulas, so every bit is theirs
    w = math.sin(math.pi * alpha)
    vstar = -math.cos(math.pi * alpha)
    hw = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    shape = (x.size, nodes.size)
    y, u, g = (buf[:x.size * nodes.size].reshape(shape) for buf in work)
    np.multiply(hw[:, None], nodes, out=y)
    y += mid[:, None]
    np.sinh(y, out=u)
    u *= w
    u += vstar
    np.maximum(u, 0.0, out=u)      # a no-op on the tail, where v > 1
    u *= x[:, None]
    u **= 1.0 / alpha
    _g(b, u, x[:, None], g)
    g /= np.cosh(y, out=y)
    # einsum sums each row on its own; a BLAS matrix-vector product rounds
    # rows differently by their position in the call, which would make a
    # point's value depend on the block it is evaluated in
    return hw * np.einsum("ij,j->i", g, weights)


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
    work = np.empty((3, x.size * _DE_X.size))
    acc = _panel(alpha, b, x, y0, ym, _DE_X, _DE_W, work)
    tail = yt > ym
    if np.any(tail):
        acc[tail] += _panel(alpha, b, x[tail], ym[tail], yt[tail],
                            _GL_X, _GL_W, work)
    return acc * (1.0 / (alpha * math.pi))


def _in_blocks(fn, x, size):
    # fn on consecutive blocks of at most size points: every branch is
    # pointwise, so blocks bound the working set and never change a bit
    if x.size <= size:
        return fn(x)
    out = np.empty_like(x)
    for i in range(0, x.size, size):
        out[i:i + size] = fn(x[i:i + size])
    return out


def eval_ml_neg(alpha, b, xs):
    """E_{alpha,b}(-x) elementwise over xs >= 0, for b in {1, 2, alpha}
    (``mlf.ml_e`` checks b).

    alpha == 1 is dispatched to exact exponential forms.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if alpha == 1.0:
        if b == 2.0:
            safe = np.where(xs == 0.0, 1.0, xs)
            return np.where(xs == 0.0, 1.0, -np.expm1(-xs) / safe)
        return np.exp(-xs)
    srat, st0 = series_coefficients(alpha, b)
    # only picks the branch: an s that overflows to inf is asymptotic
    with np.errstate(over="ignore"):
        s_arg = np.where(xs > 0.0, xs, 1.0) ** (1.0 / alpha)
    zero = xs == 0.0
    ser = (~zero) & (s_arg <= S_SERIES)
    asy = (~zero) & (s_arg >= S_ASYM)
    bri = ~(zero | ser | asy)
    out = np.empty_like(xs)
    out[zero] = st0
    if np.any(ser):
        out[ser] = _in_blocks(lambda xb: _series(xb, srat, st0), xs[ser],
                              SERIES_BLOCK)
    if np.any(asy):
        coef = asym_coefficients(alpha, b)
        out[asy] = _in_blocks(lambda xb: _asymptotic(xb, *coef), xs[asy],
                              SERIES_BLOCK)
    if np.any(bri):
        out[bri] = _in_blocks(lambda xb: _spectral(alpha, b, xb), xs[bri],
                              SPECTRAL_BLOCK)
    return out
