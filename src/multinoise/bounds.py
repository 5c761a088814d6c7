"""Boundedness constants and the finite-sample probability-bound families.

The delta family bounds the nominal-estimate error tail and the eta family
the covariance-estimate error tail; both are explicit functions of the
population regression-matrix norms, the a.s. boundedness constants, the
number of rollouts and the deviation level.  They are union bounds: values
above 1 are meaningful (vacuous) and are clipped only at reporting time.

Probabilities are assembled in log space so large n_r cannot underflow
intermediate terms; covering-number prefactors like 9^(n+m) enter as
(n+m) log 9.  The log-space functions are elementwise over an array of
deviation levels eps (n_r stays a context field).  ``bound_curves`` is the
one evaluator of a named bound, at one eps or over a whole eps grid in one
pass; both families are its one-eps case.  Each input is checked once,
where it enters, as a mask: a bound is +inf (vacuous) for eps <= 0, the
Bernstein leaf and the Gram-inverse bound state their own rules, and
BoundContext rejects singular Grams.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .moment_oracle import assemble_population, check_excitation, lift
from .shape_ops import svec, svec_dim

__all__ = [
    "SystemBoundConstants",
    "boundedness_constants",
    "constants_from_setup",
    "BoundContext",
    "bound_context",
    "bound_curves",
    "delta_family",
    "eta_family",
    "ab_validity_limit",
    "sigma_validity_limit",
    "invert_bound",
    "epsilon_Y_closed_form",
]

_LOG9 = np.log(9.0)

#: Above this n+m the covering prefactors make every bound astronomically vacuous.
VACUOUS_DIMENSION = 20


@dataclass
class SystemBoundConstants:
    """Almost-sure bound inputs and the derived trajectory bounds.

    Inputs: c_x (initial state), c_u (input), c_abar/c_bbar (noise spectral
    norms), c_mu (initial-state deviation), c_dx (initial outer-product
    deviation), c_nu (input deviation), c_sap/c_sbp (Kronecker-square
    deviations), spectral norms of A, B and of the Kronecker-square means.

    Derived: c_a, c_b (noisy one-step gains), c_m (state norm), c_n (state
    deviation), c_w (state-input outer deviation), c_f (state outer-product
    deviation) and the c_fx/c_fu/c_fxu increments feeding c_f.
    """

    ell: int
    c_x: float
    c_u: float
    c_abar: float
    c_bbar: float
    c_mu: float
    c_dx: float
    c_nu: float
    c_sap: float
    c_sbp: float
    norm_a: float
    norm_b: float
    norm_sap: float
    norm_sbp: float
    c_a: float = 0.0
    c_b: float = 0.0
    c_m: float = 0.0
    c_n: float = 0.0
    c_w: float = 0.0
    c_fx: float = 0.0
    c_fu: float = 0.0
    c_fxu: float = 0.0
    c_f: float = 0.0


def boundedness_constants(consts):
    """Fill in the derived boundedness constants (maxima over t = 0..ell)."""
    c = consts
    for name in ("c_x", "c_u", "c_abar", "c_bbar", "c_mu", "c_dx", "c_nu", "c_sap", "c_sbp"):
        if getattr(c, name) < 0:
            raise ValueError(f"{name} must be nonnegative")
    c_a = c.norm_a + c.c_abar
    c_b = c.norm_b + c.c_bbar
    c_m = _geom_max(c_a, c.c_x, c_b * c.c_u, c.ell)
    drive_n = c.norm_b * c.c_nu + c.c_abar * c_m + c.c_bbar * c.c_u
    c_n = _geom_max(c.norm_a, c.c_mu, drive_n, c.ell)
    c_w = c_n * c.c_u + c_m * c.c_nu
    c_fx = (2.0 * c.norm_a * c.c_abar + c.c_sap) * c_m**2
    c_fu = 3.0 * (c.norm_b**2 + c.norm_sbp) * c.c_u * c.c_nu + (2.0 * c.norm_b * c.c_bbar + c.c_sbp) * c.c_u**2
    c_fxu = (
        2.0 * c.norm_a * c.norm_b * c_w
        + (2.0 * c.norm_a * c.c_bbar + 2.0 * c.norm_b * c.c_abar + 2.0 * c.c_abar * c.c_bbar) * c_m * c.c_u
    )
    rate_f = c.norm_a**2 + c.norm_sap
    c_f = _geom_max(rate_f, c.c_dx, c_fx + c_fu + c_fxu, c.ell)
    return replace(
        c, c_a=c_a, c_b=c_b, c_m=c_m, c_n=c_n, c_w=c_w, c_fx=c_fx, c_fu=c_fu, c_fxu=c_fxu, c_f=c_f
    )


def _geom_max(rate, start, drive, ell):
    """max over 0 <= t <= ell of rate^t * start + sum_{i<t} rate^i * drive."""
    best = start  # t = 0 term (empty sum)
    val = start
    for _ in range(ell):
        val = rate * val + drive
        best = max(best, val)
    return float(best)


def constants_from_setup(system, schedule, init):
    """A.s. bound constants read off a bounded-law system/schedule/init."""
    system.require_bounded()
    c_u, c_nu = schedule.deviation_bounds()
    if c_u is None:
        raise ValueError("input schedule uses an unbounded (gaussian) law")
    c_x, c_mu, c_dx = init.bounds()
    ld = lift(system)
    norm_sap = float(np.linalg.norm(ld.sigma_a_prime, 2))
    norm_sbp = float(np.linalg.norm(ld.sigma_b_prime, 2))
    raw = SystemBoundConstants(
        ell=schedule.ell,
        c_x=c_x,
        c_u=c_u,
        c_abar=system.c_abar,
        c_bbar=system.c_bbar,
        c_mu=c_mu,
        c_dx=c_dx,
        c_nu=c_nu,
        c_sap=system.c_abar**2 + norm_sap,
        c_sbp=system.c_bbar**2 + norm_sbp,
        norm_a=float(np.linalg.norm(system.A, 2)),
        norm_b=float(np.linalg.norm(system.B, 2)),
        norm_sap=norm_sap,
        norm_sbp=norm_sbp,
    )
    return boundedness_constants(raw)


@dataclass
class BoundContext:
    """Population quantities entering the bound formulas.

    n_r must be at least 1 (NaN is rejected), eps_max must lie in (0, 1] and
    both Grams must be nonsingular; otherwise construction, and so
    ``with_rollouts``, raises a ValueError.
    """

    n: int
    m: int
    ell: int
    n_r: int
    eps_max: float
    lam_min_zz: float
    lam_max_zz: float
    lam_min_dd: float
    lam_max_dd: float
    norm_Y: float
    norm_Z: float
    norm_C: float
    norm_D: float
    norm_A: float
    norm_B: float
    norm_M1: float
    norm_L1: float
    norm_U: float
    c_n: float
    c_f: float
    c_w: float

    def __post_init__(self):
        if not self.n_r >= 1:
            raise ValueError(f"n_r must be >= 1, got {self.n_r}")
        if not (0 < self.eps_max <= 1.0):
            raise ValueError("eps_max must lie in (0, 1]")
        for lo, hi in (("lam_min_zz", "lam_max_zz"), ("lam_min_dd", "lam_max_dd")):
            lam_min, lam_max = getattr(self, lo), getattr(self, hi)
            if not (0 < lam_min <= lam_max):
                raise ValueError(f"{lo} = {lam_min:.3e} must lie in (0, {hi} = {lam_max:.3e}]: singular Gram")
        if self.n + self.m > VACUOUS_DIMENSION:
            warnings.warn(
                f"n + m = {self.n + self.m} > {VACUOUS_DIMENSION}: covering prefactors "
                "make every bound vacuous",
                RuntimeWarning,
                stacklevel=2,
            )

    def with_rollouts(self, n_r):
        return replace(self, n_r=n_r)


def bound_context(system, schedule, init, n_r):
    """Assemble a BoundContext from population moments and boundedness constants."""
    consts = constants_from_setup(system, schedule, init)
    reg, tr = assemble_population(system, schedule, init.mean, svec(init.second_moment))
    nt = svec_dim(system.n)
    rep = check_excitation(reg, system.n, system.m)
    return BoundContext(
        n=system.n,
        m=system.m,
        ell=schedule.ell,
        n_r=n_r,
        eps_max=1.0,
        lam_min_zz=rep.lambda_min_zz,
        lam_max_zz=rep.lambda_max_zz,
        lam_min_dd=rep.lambda_min_dd,
        lam_max_dd=rep.lambda_max_dd,
        norm_Y=float(np.linalg.norm(reg.Y, 2)),
        norm_Z=float(np.linalg.norm(reg.Z, 2)),
        norm_C=float(np.linalg.norm(reg.C, 2)),
        norm_D=float(np.linalg.norm(reg.D, 2)),
        norm_A=consts.norm_a,
        norm_B=consts.norm_b,
        norm_M1=float(np.linalg.norm(reg.D[:nt], 2)),  # [Xt_{ell-1} ... Xt_0]
        norm_L1=float(np.linalg.norm(tr.w[::-1].T, 2)),  # [W_{ell-1} ... W_0]
        norm_U=float(np.linalg.norm(reg.D[nt:], 2)),  # [Ut_{ell-1} ... Ut_0]
        c_n=consts.c_n,
        c_f=consts.c_f,
        c_w=consts.c_w,
    )


# ---------------------------------------------------------------------------
# log-space Bernstein core


def _log_bernstein(pref_log, n_r, c2ell, eps):
    """log of pref * exp(-1.5 n_r eps^2 / (3 c2ell + eps sqrt(c2ell))), elementwise.

    c2ell = ell * c^2 with c the per-sample a.s. bound.  +inf where eps
    rounded to 0 on its way here (vacuous); -inf where it did not when the
    noise constant vanishes (the averaged quantity is exact).
    """
    if c2ell <= 0.0:
        return np.where(eps <= 0, np.inf, -np.inf)
    denom = 3.0 * c2ell + eps * np.sqrt(c2ell)
    return np.where(eps <= 0, np.inf, pref_log - 1.5 * n_r * eps * eps / denom)


def _logsumexp(terms):
    """log sum exp of equal-shape terms, elementwise: +inf if any term is, -inf if all are.

    The terms are stacked on a new leading axis, which numpy reduces in order,
    so each element sums its (at most four) terms as a scalar sum would.
    """
    vals = np.array(terms)
    hi = vals.max(axis=0)
    out = hi + np.log(np.exp(vals - hi).sum(axis=0))
    out = np.where(hi == -np.inf, -np.inf, out)
    return np.where((vals == np.inf).any(axis=0), np.inf, out)


# ---------------------------------------------------------------------------
# Gram-inverse perturbation chain, shared by the (Y, Z) and (C, D) problems


@dataclass(frozen=True)
class _Pair:
    """One least-squares pair of the chain: (Y, Z) for delta, (C, D) for eta."""

    deviation: Callable  # log tail of the averaged-moment deviation (delta_Y, eta_D)
    cross: Callable      # log tail of the product deviation (delta_YZ, eta_CD)
    lam: Callable        # ctx -> (lambda_min, lambda_max) of the regressor Gram
    dim: Callable        # ctx -> regressor dimension (covering-number exponent)
    scale: Callable      # ctx -> 3 ||response|| ||regressor||, in the pair's own rounding


def _log_gram_0(pair, ctx, eps):
    lam = pair.lam(ctx)[1]
    return pair.deviation(ctx, np.sqrt(lam + eps) - np.sqrt(lam))


def _log_covers(pair, ctx):
    """log covering prefactors of the _1 and _2 Gram bounds: dim log 9, dim log(16 kappa + 1)."""
    lam_min, lam_max = pair.lam(ctx)
    ratio = 16.0 * lam_max / lam_min + 1.0
    return pair.dim(ctx) * _LOG9, pair.dim(ctx) * np.log(ratio)


def _log_gram_1(pair, ctx, eps):
    return _log_covers(pair, ctx)[0] + _log_gram_0(pair, ctx, eps)


def _log_gram_2(pair, ctx, eps):
    return _log_covers(pair, ctx)[1] + _log_gram_0(pair, ctx, eps)


def _log_gram_m(pair, ctx, eps):
    g0 = _log_gram_0(pair, ctx, eps)
    return _logsumexp([cover + g0 for cover in _log_covers(pair, ctx)])


def _log_gram(pair, ctx, eps):
    """Gram-inverse deviation; vacuous (+inf) for eps >= eps_max.

    Not monotone in eps: the first term's argument 0.5 lam_min^2 (1 - eps/eps_max) eps
    peaks at eps_max / 2, so the bound rises again on (eps_max / 2, eps_max).
    """
    lam_min, lam_max = pair.lam(ctx)
    first = _log_gram_0(pair, ctx, 0.5 * lam_min**2 * (1.0 - eps / ctx.eps_max) * eps)
    second = _log_gram_m(pair, ctx, eps * lam_min / (ctx.eps_max * (2.0 + lam_min / lam_max)))
    return np.where(eps >= ctx.eps_max, np.inf, _logsumexp([first, second]))


def _log_product(pair, ctx, eps):
    # the first term uses lambda_min of the regressor Gram, as in the proof
    return _logsumexp(
        [
            pair.cross(ctx, pair.lam(ctx)[0] * eps / 3.0),
            pair.cross(ctx, np.sqrt(eps / 3.0)),
            _log_gram(pair, ctx, eps / pair.scale(ctx)),
            _log_gram(pair, ctx, np.sqrt(eps / 3.0)),
        ]
    )


# ---------------------------------------------------------------------------
# delta family (nominal-estimate tail bounds)


def _log_delta_Y(ctx, eps):
    return _log_bernstein(np.log(ctx.n + ctx.ell), ctx.n_r, ctx.ell * ctx.c_n**2, eps)


def _log_delta_YZ(ctx, eps):
    s = 0.5 * (ctx.norm_Y + ctx.norm_Z)
    return _log_delta_Y(ctx, np.sqrt(eps + s * s) - s)


_NOMINAL = _Pair(
    deviation=_log_delta_Y,
    cross=_log_delta_YZ,
    lam=lambda ctx: (ctx.lam_min_zz, ctx.lam_max_zz),
    dim=lambda ctx: ctx.n + ctx.m,
    scale=lambda ctx: 3.0 * np.sqrt(ctx.norm_Y**2 * ctx.norm_Z**2),  # 3 sqrt(lam_max_YY lam_max_ZZ)
)


_DELTA = {
    "delta_Y": _log_delta_Y,  # averaged-moment deviation of Y_hat - Y (and Z_hat - Z)
    "delta_YZ": _log_delta_YZ,
    "delta_0": partial(_log_gram_0, _NOMINAL),
    "delta_1": partial(_log_gram_1, _NOMINAL),
    "delta_2": partial(_log_gram_2, _NOMINAL),
    "delta_m": partial(_log_gram_m, _NOMINAL),
    "delta_ZZ": partial(_log_gram, _NOMINAL),  # Gram-inverse deviation: +inf outside (0, eps_max)
    "delta_AB": partial(_log_product, _NOMINAL),  # spectral error of [A_hat B_hat], see ab_validity_limit
}


def ab_validity_limit(ctx):
    """Upper end of the derivation range for delta_AB."""
    return 3.0 * ctx.eps_max * min(ctx.norm_Y * ctx.norm_Z, ctx.eps_max)


# ---------------------------------------------------------------------------
# eta family (covariance-estimate tail bounds)


def _log_eta_D(ctx, eps):
    pref = np.log(ctx.n * (ctx.n + 1) / 2 + ctx.ell)
    return _log_bernstein(pref, ctx.n_r, ctx.ell * ctx.c_f**2, eps)


def _log_eta_L(ctx, eps):
    pref = np.log(ctx.n * ctx.m + ctx.ell)
    return _log_bernstein(pref, ctx.n_r, ctx.ell * ctx.c_w**2, eps)


def _log_eta_kron(ctx, eps, norm):
    """Lifted-nominal tail: norm = ||A|| for eta_A, ||B|| for eta_B."""
    return _logsumexp(
        [
            _log_product(_NOMINAL, ctx, 0.5 * np.sqrt(eps)),
            _log_product(_NOMINAL, ctx, eps / (8.0 * np.sqrt(norm))),
        ]
    )


def _log_eta_AB(ctx, eps):
    root = _log_product(_NOMINAL, ctx, np.sqrt(eps / 3.0))
    return _logsumexp(
        [
            np.log(2.0) + root,
            _log_product(_NOMINAL, ctx, eps / (3.0 * np.sqrt(ctx.norm_B))),
            _log_product(_NOMINAL, ctx, eps / (3.0 * np.sqrt(ctx.norm_A))),
        ]
    )


def _log_eta_AM(ctx, eps):
    return _logsumexp(
        [
            _log_eta_kron(ctx, eps / (3.0 * ctx.norm_M1), ctx.norm_A),
            _log_eta_D(ctx, eps / (6.0 * ctx.norm_A**2)),
            _log_eta_kron(ctx, np.sqrt(eps / 3.0), ctx.norm_A),
            _log_eta_D(ctx, np.sqrt(eps / 3.0)),
        ]
    )


def _log_eta_KL(ctx, eps):
    return _logsumexp(
        [
            _log_eta_AB(ctx, eps / (3.0 * ctx.norm_L1)),
            _log_eta_L(ctx, eps / (3.0 * ctx.norm_A * ctx.norm_B)),
            _log_eta_AB(ctx, np.sqrt(eps / 3.0)),
            _log_eta_L(ctx, np.sqrt(eps / 3.0)),
        ]
    )


def _log_eta_C(ctx, eps):
    return _logsumexp(
        [
            _log_eta_D(ctx, eps / 5.0),
            _log_eta_AM(ctx, eps / 5.0),
            np.log(2.0) + _log_eta_KL(ctx, eps / 5.0),
            _log_eta_kron(ctx, eps / (5.0 * ctx.norm_U), ctx.norm_B),
        ]
    )


def _log_eta_CD(ctx, eps):
    return _logsumexp(
        [
            _log_eta_C(ctx, np.sqrt(eps / 3.0)),
            _log_eta_D(ctx, np.sqrt(eps / 3.0)),
            _log_eta_C(ctx, eps / (3.0 * ctx.norm_D)),
            _log_eta_D(ctx, eps / (3.0 * ctx.norm_C)),
        ]
    )


_COVARIANCE = _Pair(
    deviation=_log_eta_D,
    cross=_log_eta_CD,
    lam=lambda ctx: (ctx.lam_min_dd, ctx.lam_max_dd),
    dim=lambda ctx: (ctx.n * (ctx.n + 1) + ctx.m * (ctx.m + 1)) / 2.0,
    scale=lambda ctx: 3.0 * ctx.norm_C * ctx.norm_D,
)


_ETA = {
    "eta_D": _log_eta_D,
    "eta_L": _log_eta_L,
    "eta_A": lambda ctx, eps: _log_eta_kron(ctx, eps, ctx.norm_A),
    "eta_B": lambda ctx, eps: _log_eta_kron(ctx, eps, ctx.norm_B),
    "eta_AB": _log_eta_AB,
    "eta_AM": _log_eta_AM,
    "eta_KL": _log_eta_KL,
    "eta_C": _log_eta_C,
    "eta_CD": _log_eta_CD,
    "eta_0": partial(_log_gram_0, _COVARIANCE),
    "eta_m": partial(_log_gram_m, _COVARIANCE),
    "eta_DD": partial(_log_gram, _COVARIANCE),  # Gram-inverse deviation of D D': +inf outside (0, eps_max)
    "eta": partial(_log_product, _COVARIANCE),  # spectral error of the covariances, see sigma_validity_limit
}


def sigma_validity_limit(ctx):
    """Upper end of the derivation range for eta."""
    return 3.0 * ctx.eps_max * min(ctx.norm_C * ctx.norm_D, ctx.eps_max)


# ---------------------------------------------------------------------------
# evaluation

_LOG_BOUNDS = {**_DELTA, **_ETA}


def bound_curves(ctx, eps, names):
    """The named bounds of either family at a deviation level eps or over an array of them.

    Returns {name: float array shaped like eps}, 0-d for a scalar eps; element
    i is, bit for bit, the value at eps[i] alone.  Every bound is +inf
    (vacuous) for eps <= 0, and delta_ZZ and eta_DD also for eps >= eps_max.
    Only the named bounds are computed; values may exceed 1.
    """
    for name in names:
        if name not in _LOG_BOUNDS:
            raise ValueError(f"unknown bound {name!r}; the bounds are {', '.join(_LOG_BOUNDS)}")
    eps = np.asarray(eps, dtype=float)
    # masked entries still run through the formulas, so their invalid-value and
    # divide-by-zero warnings are silenced here, once
    with np.errstate(invalid="ignore", divide="ignore"):
        return {name: np.where(eps <= 0, np.inf, np.exp(_LOG_BOUNDS[name](ctx, eps))) for name in names}


def delta_family(ctx, eps):
    """All delta bounds at one deviation level; values may exceed 1."""
    values = {name: float(v) for name, v in bound_curves(ctx, eps, _DELTA).items()}
    values["valid_AB"] = bool(0 < eps < ab_validity_limit(ctx))
    return values


def eta_family(ctx, eps):
    """All eta bounds at one deviation level; values may exceed 1."""
    values = {name: float(v) for name, v in bound_curves(ctx, eps, _ETA).items()}
    values["valid_sigma"] = bool(0 < eps < sigma_validity_limit(ctx))
    return values


# ---------------------------------------------------------------------------
# inversion


def epsilon_Y_closed_form(ctx, delta):
    """Quadratic-formula root of delta_Y(eps) = delta (the positive branch)."""
    if not (0 < delta < ctx.n + ctx.ell):
        raise ValueError("delta outside the achievable range of delta_Y")
    lc2 = ctx.ell * ctx.c_n**2
    L = np.log((ctx.n + ctx.ell) / delta)
    root = np.sqrt(lc2)
    return float(
        root * L / (3.0 * ctx.n_r) + np.sqrt(lc2 * L * L / (9.0 * ctx.n_r**2) + 2.0 * lc2 * L / ctx.n_r)
    )


def invert_bound(fn, delta, hi=None):
    """Solve fn(eps) = delta by bisection on [0, hi]; fn must be non-increasing there.

    Every bound is non-increasing in n_r, but not every bound is in eps:
    delta_ZZ and eta_DD are non-increasing only on (0, eps_max / 2] and rise
    again on (eps_max / 2, eps_max), and delta_AB, eta and the composite eta
    bounds (eta_A to eta_CD) evaluate that Gram-inverse term at arguments that
    grow with eps, so each is non-increasing only until one of those arguments
    reaches eps_max / 2.  The bounds without that term are non-increasing for
    all eps > 0.  ``hi`` caps the search, else it doubles from 1 until fn drops
    below delta; bisection stops within 1e-10 * delta of it, or after 400 halvings.
    """
    if delta <= 0:
        raise ValueError("target delta must be positive")
    if hi is None:
        hi = 1.0
        for _ in range(200):
            if fn(hi) < delta:
                break
            hi *= 2.0
        else:
            raise ValueError("bound does not reach delta on any bounded interval")
    else:
        f_hi = fn(hi * (1 - 1e-12))
        if f_hi > delta:
            raise ValueError("delta below the bound's reachable values on this interval")
    a, b = 0.0, hi
    for _ in range(400):
        mid = 0.5 * (a + b)
        val = fn(mid)
        if abs(val - delta) <= 1e-10 * delta:
            return mid
        if val > delta:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)
