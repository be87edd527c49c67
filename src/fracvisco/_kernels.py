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

The spectral rule has one node table per (alpha, b) (``spectral_nodes``),
on the panels that the window's left edge s = S_SERIES needs, which are as
wide as any point of the window needs.  A point then costs one power
s = x**(1/alpha) and, at each node, -a_i s, one exp (expm1 for b = 2) and
a term of one row sum.

The windows and node counts were calibrated against a 140-digit series
oracle.  Against the 60-digit ``ml_e_reference`` of the tests, the worst
relative errors at 30, 80 and 30 geometric points of s in [1e-3, 5],
[5, 40] and [40, 400], b in {1, 2, alpha}, are

  alpha     series   spectral   asymptotic
  0.25      1.5e-12  2.6e-15    1.6e-15
  0.3       1.1e-11  4.0e-15    1.2e-15
  2/3       2.0e-12  2.0e-15    1.6e-15
  0.99      3.1e-12  4.0e-15    1.0e-13
  0.999     2.5e-11  2.5e-11    5.8e-12

and every branch stays within ~3e-11 for alpha in [0.25, 0.999]; at
alpha = 2/3, b = 2 the series is within 3.0e-14.  The series and
asymptotic coefficient tables take log-gamma from ``math.lgamma``, which
is finite for every accepted alpha (Gamma(alpha) itself overflows for
alpha below about 5.6e-309).

Every branch is pointwise, so all three run on blocks that keep their
working arrays in cache: SERIES_BLOCK points for the series and asymptotic
branches, SPECTRAL_BLOCK points for the spectral one.  Blocking never
changes a bit: a point's value does not depend on the batch it is in.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

S_SERIES = 5.0
S_ASYM = 40.0
# The ascending series keeps 45/alpha + 64 term ratios, enough for every
# s <= S_SERIES, but at most SERIES_TERMS.  The cap binds below ALPHA_MIN =
# 45/1536, about 0.0293, and the series then runs out of terms at some
# s <= S_SERIES from alpha about 0.026 (b = alpha), 0.0236 (b = 1) and
# 0.0225 (b = 2) down, so a config refuses alpha < ALPHA_MIN.
SERIES_TERMS = 1600
ALPHA_MIN = 45.0 / (SERIES_TERMS - 64)
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


def _lgamma(x):
    # log |Gamma| of each entry of x, by math.lgamma; every argument the
    # coefficient tables take is positive
    return np.array([math.lgamma(v) for v in x.tolist()])


@lru_cache(maxsize=64)
def series_coefficients(alpha, b):
    """Ratios r_k = Gamma(b+alpha k)/Gamma(b+alpha(k+1)) and the k=0 term."""
    n = min(SERIES_TERMS, int(min(45.0 / alpha, SERIES_TERMS)) + 64)
    g = _lgamma(b + alpha * np.arange(n + 1))
    return np.exp(g[:-1] - g[1:]), float(np.exp(-g[0]))


@lru_cache(maxsize=64)
def asym_coefficients(alpha, b):
    """x-independent data for -sum_{k>=1} (-x)^{-k} / Gamma(b - alpha k).

    Returns (lenv, lmag, sign) for k = 1..n:  log envelope with the sine
    factor of the reflection formula dropped (adding -k log x makes it
    unimodal in k, so the first increase marks the optimal truncation),
    log |1/Gamma(b - alpha k)|, and the sign of the full term.
    """
    n = min(2000, int(min(42.0 / alpha, 2000.0)) + 32)
    k = np.arange(1, n + 1)
    y = b - alpha * k
    lenv = np.empty(n)
    lmag = np.empty(n)
    sign = np.ones(n)
    hi = y > 0.5
    if np.any(hi):
        lg = _lgamma(y[hi])
        lenv[hi] = -lg
        lmag[hi] = -lg
    lo = ~hi
    if np.any(lo):
        ylo = y[lo]
        lg1 = _lgamma(1.0 - ylo)
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
    raise ValueError(f"Mittag-Leffler series not converged in "
                     f"{srat.shape[0]} terms at x = {float(-neg[0])!r}")


def _asymptotic(x, lenv, lmag, sgn):
    # as in _series, the working arrays hold only the points still summing.
    # A point leaves before term k when its envelope has stopped falling
    # (the optimal truncation) or when term k - 1 fell below the stop
    # tolerance of its sum, so each term makes one compaction
    out = np.empty_like(x)
    live = np.arange(x.size)
    lx = np.log(x)
    acc = np.zeros_like(x)
    comp = np.zeros_like(x)
    prev = np.full(x.shape, 1e308)
    done = np.zeros(x.shape, dtype=bool)
    for k in range(lenv.shape[0]):
        env = lenv[k] - (k + 1) * lx
        drop = done | (env >= prev)
        if drop.any():
            out[live[drop]] = acc[drop]
            keep = ~drop
            live = live[keep]
            if live.size == 0:
                return out
            lx, acc, comp, env = lx[keep], acc[keep], comp[keep], env[keep]
        prev = env
        lt = lmag[k] - (k + 1) * lx
        t = np.where(lt > -700.0, sgn[k] * np.exp(np.maximum(lt, -700.0)), 0.0)
        y = t - comp
        tt = acc + y
        comp = (tt - acc) - y
        acc = tt
        done = env < _LOG_STOP + np.log(np.abs(acc) + 1e-300)
    out[live] = acc
    return out


@lru_cache(maxsize=64)
def spectral_nodes(alpha, b):
    """The spectral rule's node table (a, k, k0) for one (alpha, b).

    The rule is E_{alpha,b}(-x) = sum_i c_i g_b(a_i s) at s = x**(1/alpha),
    with g_1(u) = exp(-u), g_alpha(u) = u exp(-u) / x and
    g_2(u) = -expm1(-u) / u.  Its nodes y_i are those of the panels of the
    window's left edge s = S_SERIES: tanh-sinh from v = 0 to the exp(-u)
    cut u = U_CUT, and for b = 2 Gauss-Legendre on to where the algebraic
    tail is below double rounding; every point of the window needs panels
    no wider than these.  At v_i = -cos(pi alpha) + sin(pi alpha) sinh(y_i),
    a_i = v_i**(1/alpha) and c_i = h w_i / (cosh(y_i) alpha pi).  The factor
    of g_b that is not an exponential goes into the weights k:

      b = 1      sum_i c_i exp(-a_i s)
      b = alpha  (s / x) sum_i (c_i a_i) exp(-a_i s)
      b = 2      k0 + (1 / s) sum_i (-c_i / a_i) expm1(-a_i s)

    where k0 sums the c_i of the nodes with a_i < 1e-300 (g_2 = 1 to double
    rounding there), whose k_i are 0.
    """
    ia = 1.0 / alpha
    w = math.sin(math.pi * alpha)
    vstar = -math.cos(math.pi * alpha)
    y0 = math.asinh(-vstar / w)
    v_exp = (U_CUT / S_SERIES) ** alpha
    ym = math.asinh((v_exp - vstar) / w)
    panels = [(y0, ym, _DE_X, _DE_W)]
    if b == 2.0:
        v_alg = (1e16 / (S_SERIES * (1.0 + ia))) ** (alpha / (1.0 + alpha))
        v_top = max(v_exp, v_alg, vstar + 4.0 * w)
        panels.append((ym, math.asinh((v_top - vstar) / w), _GL_X, _GL_W))
    y = np.concatenate([0.5 * (hi + lo) + 0.5 * (hi - lo) * nodes
                        for lo, hi, nodes, _ in panels])
    hw = np.concatenate([0.5 * (hi - lo) * weights
                         for lo, hi, _, weights in panels])
    # v < 0 only by rounding at the v = 0 end
    a = np.maximum(vstar + w * np.sinh(y), 0.0) ** ia
    c = hw / (np.cosh(y) * (alpha * math.pi))
    k0 = 0.0
    if b == 1.0:
        k = c
    elif b == 2.0:
        flat = a < 1e-300
        k = np.zeros_like(c)
        k[~flat] = -c[~flat] / a[~flat]
        k0 = float(c[flat].sum())
    else:
        k = c * a
    # every caller shares the cached arrays
    a.flags.writeable = k.flags.writeable = False
    return a, k, k0


def _spectral(alpha, b, x):
    a, k, k0 = spectral_nodes(alpha, b)
    s = x ** (1.0 / alpha)
    t = np.multiply.outer(-s, a)
    if b == 2.0:
        np.expm1(t, out=t)
    else:
        np.exp(t, out=t)
    # einsum sums each row on its own; a BLAS matrix-vector product rounds
    # rows differently by their position in the call, which would make a
    # point's value depend on the block it is evaluated in
    acc = np.einsum("ij,j->i", t, k)
    if b == 2.0:
        return acc / s + k0
    if b != 1.0:
        acc *= s / x
    return acc


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
