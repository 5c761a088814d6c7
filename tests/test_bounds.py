import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from multinoise import bounds
from multinoise.bounds import (
    BoundContext,
    SystemBoundConstants,
    ab_validity_limit,
    bound_context,
    bound_curves,
    constants_from_setup,
    delta_family,
    epsilon_Y_closed_form,
    eta_family,
    invert_bound,
    boundedness_constants,
    sigma_validity_limit,
)
from multinoise.mals import design_inputs
from multinoise.presets import PRESET_NAMES, get_preset
from multinoise.system_model import (
    CovarianceNoise,
    FixedInitial,
    InputSchedule,
    TruncatedGaussianInitial,
    UniformBoxInitial,
    make_system,
)

from conftest import BENCH_A, BENCH_B, BENCH_SIGMA_A, BENCH_SIGMA_B


def _raw_constants(**kw):
    base = dict(
        ell=4, c_x=1.0, c_u=1.0, c_abar=0.5, c_bbar=0.5, c_mu=0.5, c_dx=2.0, c_nu=0.5,
        c_sap=1.0, c_sbp=1.0, norm_a=1.0, norm_b=1.0, norm_sap=0.5, norm_sbp=0.5,
    )
    base.update(kw)
    return SystemBoundConstants(**base)


def _context(**kw):
    base = dict(
        n=2, m=1, ell=4, n_r=1000, eps_max=1.0,
        lam_min_zz=0.05, lam_max_zz=5.0, lam_min_dd=0.01, lam_max_dd=3.0,
        norm_Y=2.0, norm_Z=2.5, norm_C=1.0, norm_D=2.0,
        norm_A=1.1, norm_B=1.3, norm_M1=2.0, norm_L1=1.5, norm_U=1.2,
        c_n=2.0, c_f=5.0, c_w=3.0,
    )
    base.update(kw)
    return BoundContext(**base)


_FLAGS = {"valid_AB", "valid_sigma"}
_BOUND_NAMES = [k for family in (delta_family, eta_family) for k in family(_context(), 0.5) if k not in _FLAGS]
_RANGED = ("delta_ZZ", "eta_DD")


def _bound(name, ctx, eps):
    """The bound ``name`` at one deviation level."""
    return float(bound_curves(ctx, eps, [name])[name])


# --- boundedness constants ---------------------------------------------------------


def test_deterministic_degeneracy_kills_deviation_constants():
    c = boundedness_constants(
        _raw_constants(c_abar=0.0, c_bbar=0.0, c_mu=0.0, c_nu=0.0, c_dx=0.0,
                       c_sap=0.0, c_sbp=0.0)
    )
    assert c.c_n == 0.0
    assert c.c_f == 0.0
    assert c.c_w == 0.0


def test_zero_horizon_state_bound_is_initial_bound():
    c = boundedness_constants(_raw_constants(ell=0, c_x=3.7))
    assert c.c_m == 3.7


def test_one_step_gain_constant(bench_system):
    c_abar = 0.5
    c = boundedness_constants(
        _raw_constants(norm_a=float(np.linalg.norm(BENCH_A, 2)), c_abar=c_abar)
    )
    assert c.c_a == pytest.approx(np.linalg.norm(BENCH_A, 2) + c_abar)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        boundedness_constants(_raw_constants(c_x=-1.0))


def test_derived_constants_monotone_in_inputs():
    lo = boundedness_constants(_raw_constants())
    hi = boundedness_constants(_raw_constants(c_abar=1.0, c_u=2.0))
    for name in ("c_a", "c_m", "c_n", "c_w", "c_f"):
        assert getattr(hi, name) >= getattr(lo, name)


def test_constants_from_benchmark_setup(bench_system, bench_schedule, zero_init):
    c = constants_from_setup(bench_system, bench_schedule, zero_init)
    assert c.c_a == pytest.approx(np.linalg.norm(BENCH_A, 2) + bench_system.c_abar)
    assert c.c_x == 0.0 and c.c_mu == 0.0
    assert c.c_n > 0 and c.c_f > 0


def test_constants_require_bounded_laws(zero_init):
    s = make_system(BENCH_A, BENCH_B, CovarianceNoise(BENCH_SIGMA_A, BENCH_SIGMA_B, law="gaussian"))
    sched = design_inputs(1, 4, seed=48)
    with pytest.raises(ValueError, match="bound"):
        constants_from_setup(s, sched, zero_init)


# --- delta family ----------------------------------------------------------------


def test_delta_Y_display_value():
    ctx = _context(c_n=1.0, n_r=1000)
    expect = 6.0 * np.exp(-1.5 * 1000 * 0.01 / (12.0 + 0.1 * 2.0))
    assert _bound("delta_Y", ctx, 0.1) == pytest.approx(expect, rel=1e-12)


def test_delta_Y_zero_constant_gives_zero_bound():
    ctx = _context(c_n=0.0)
    assert _bound("delta_Y", ctx, 0.1) == 0.0


def test_delta_family_monotone_in_eps():
    rng = np.random.default_rng(23)
    for _ in range(5):
        ctx = _context(
            lam_min_zz=10 ** rng.uniform(-3, -1),
            lam_max_zz=10 ** rng.uniform(0, 1),
            c_n=rng.uniform(0.5, 5.0),
            n_r=int(10 ** rng.uniform(2, 5)),
        )
        grid = np.geomspace(1e-3, 0.9 * ctx.eps_max, 12)
        for name in ("delta_Y", "delta_YZ", "delta_ZZ", "delta_AB"):
            vals = [_bound(name, ctx, float(e)) for e in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_delta_family_monotone_in_n_r():
    ctx = _context()
    for name in ("delta_Y", "delta_YZ", "delta_AB"):
        vals = [_bound(name, ctx.with_rollouts(n), 0.3) for n in (10**3, 10**4, 10**5, 10**6)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_delta_AB_vanishes_for_large_n_r():
    # the lam_min^2 rescalings square-shrink eps, so the decay onset is late
    ctx = _context(n_r=10**16)
    assert _bound("delta_AB", ctx, 0.5) < 1e-30


def test_delta_family_dict_keys():
    fam = delta_family(_context(), 0.2)
    assert set(fam) == {
        "delta_Y", "delta_YZ", "delta_0", "delta_1", "delta_2", "delta_m",
        "delta_ZZ", "delta_AB", "valid_AB",
    }
    assert fam["valid_AB"]
    assert fam["delta_m"] == pytest.approx(fam["delta_1"] + fam["delta_2"], rel=1e-9)


def test_ab_validity_limit():
    ctx = _context()
    lim = ab_validity_limit(ctx)
    assert lim == pytest.approx(3.0 * min(ctx.norm_Y * ctx.norm_Z, 1.0))


# --- eta family --------------------------------------------------------------------


def test_eta_D_prefactor():
    # leading factor n(n+1)/2 + ell = 3 + ell for n = 2; at eps -> 0 the
    # exponential tends to 1 so the bound tends to the prefactor
    ctx = _context()
    assert _bound("eta_D", ctx, 1e-12) == pytest.approx(3 + ctx.ell, rel=1e-6)


def test_eta_C_dominates_component():
    ctx = _context()
    for eps in (0.05, 0.2, 1.0):
        assert _bound("eta_C", ctx, eps) >= _bound("eta_D", ctx, eps / 5.0)


def test_eta_finite_on_benchmark_context(bench_system, bench_schedule, zero_init):
    ctx = bound_context(bench_system, bench_schedule, zero_init, n_r=10**6)
    val = _bound("eta", ctx, 0.5)
    assert np.isfinite(val) and val > 0


def test_eta_family_monotone():
    ctx = _context()
    grid = np.geomspace(1e-3, 0.9, 10)
    vals = [_bound("eta", ctx, float(e)) for e in grid]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    vals_nr = [_bound("eta", ctx.with_rollouts(n), 0.3) for n in (10**3, 10**5, 10**7)]
    assert all(a >= b for a, b in zip(vals_nr, vals_nr[1:]))


def test_eta_family_dict_keys():
    fam = eta_family(_context(), 0.2)
    assert set(fam) == {
        "eta_D", "eta_L", "eta_A", "eta_B", "eta_AB", "eta_AM", "eta_KL",
        "eta_C", "eta_CD", "eta_0", "eta_m", "eta_DD", "eta", "valid_sigma",
    }


# --- inversion -----------------------------------------------------------------------


def test_closed_form_matches_bisection_on_random_contexts():
    rng = np.random.default_rng(29)
    for _ in range(50):
        ctx = _context(
            n=int(rng.integers(1, 5)),
            ell=int(rng.integers(1, 9)),
            c_n=rng.uniform(0.2, 4.0),
            n_r=int(10 ** rng.uniform(2, 6)),
        )
        delta = 10 ** rng.uniform(-6, -0.5)
        closed = epsilon_Y_closed_form(ctx, delta)
        bis = invert_bound(lambda e: _bound("delta_Y", ctx, e), delta)
        assert abs(bis - closed) <= 1e-8 * max(1.0, closed)


def test_invert_fixed_point():
    ctx = _context()
    eps_star = 0.37
    val = _bound("delta_Y", ctx, eps_star)
    back = invert_bound(lambda e: _bound("delta_Y", ctx, e), val)
    assert back == pytest.approx(eps_star, abs=1e-9)


def test_invert_rejects_unreachable_delta():
    ctx = _context()
    with pytest.raises(ValueError):
        epsilon_Y_closed_form(ctx, ctx.n + ctx.ell + 1.0)
    with pytest.raises(ValueError):
        invert_bound(lambda e: _bound("delta_ZZ", ctx, e), 1e-300, hi=ctx.eps_max)


def test_context_validates_eps_max():
    with pytest.raises(ValueError):
        _context(eps_max=0.0)
    with pytest.raises(ValueError):
        _context(eps_max=1.5)


@pytest.mark.parametrize(
    "lam",
    [
        {"lam_min_zz": 0.0},
        {"lam_min_zz": -1e-12},
        {"lam_min_zz": 6.0},  # above lam_max_zz = 5
        {"lam_min_zz": float("nan")},
        {"lam_min_dd": 0.0},
        {"lam_min_dd": 4.0},  # above lam_max_dd = 3
        {"lam_min_dd": 0.01, "lam_max_dd": float("nan")},
    ],
)
def test_context_rejects_singular_or_misordered_grams(lam):
    with pytest.raises(ValueError, match=next(iter(lam))):
        _context(**lam)


def test_context_accepts_equal_gram_extremes():
    _context(lam_min_zz=5.0, lam_max_zz=5.0, lam_min_dd=3.0, lam_max_dd=3.0)


def test_bound_context_rejects_a_singular_gram():
    # zero inputs from x0 = 0 keep every moment at 0, so Z Z' is exactly singular
    b = get_preset("paper-4.1")
    sched = InputSchedule(nu=np.zeros((4, 1)), ubar=np.zeros((4, 1, 1)), law="deterministic")
    with pytest.raises(ValueError, match="lam_min_zz = 0.000e\\+00 must lie in"):
        bound_context(b.system, sched, b.init, 1000)


def test_nan_eps_gives_nan_from_every_bound():
    b = get_preset("paper-4.1")
    ctx = bound_context(b.system, b.schedule, b.init, 2000)
    nan = float("nan")
    for family in (delta_family, eta_family):
        fam = family(ctx, nan)
        for key in set(fam) - _FLAGS:
            assert np.isnan(fam[key]) and np.isnan(_bound(key, ctx, nan)), key
        assert not any(fam[f] for f in _FLAGS & set(fam))


def test_vacuous_dimension_warning():
    with pytest.warns(RuntimeWarning, match="vacuous"):
        _context(n=15, m=10)


def test_bound_families_match_pinned_bits():
    # float.hex of every delta/eta family value on two presets at three deviation
    # levels: the shared Gram-inverse chain must keep each formula's rounding
    pins = json.loads((Path(__file__).parent / "bound_pins.json").read_text())
    for key, expected in pins["values"].items():
        preset, eps = key.rsplit(" ", 1)
        b = get_preset(preset)
        ctx = bound_context(b.system, b.schedule, b.init, pins["n_r"])
        fam = {**delta_family(ctx, float(eps)), **eta_family(ctx, float(eps))}
        got = {k: v if isinstance(v, bool) else float(v).hex() for k, v in fam.items()}
        assert got == expected, key


_PINNED_INITS = {
    "FixedInitial([0.3, -0.2])": FixedInitial([0.3, -0.2]),
    "UniformBoxInitial([0.1, -0.2], [0.3, 0.2])": UniformBoxInitial([0.1, -0.2], [0.3, 0.2]),
    "TruncatedGaussianInitial([0.1, 0.05], [[0.04, 0.01], [0.01, 0.02]], 2.0)": (
        TruncatedGaussianInitial([0.1, 0.05], [[0.04, 0.01], [0.01, 0.02]], 2.0)
    ),
}


def test_bound_contexts_match_pinned_bits():
    # float.hex of every BoundContext field on paper-4.1 under each initial law: every
    # law enters the population moments through the same svec(second_moment) path
    pins = json.loads((Path(__file__).parent / "bound_pins.json").read_text())["contexts"]
    assert set(pins) == set(_PINNED_INITS)
    b = get_preset("paper-4.1")
    for label, expected in pins.items():
        ctx = bound_context(b.system, b.schedule, _PINNED_INITS[label], 100000)
        got = {f.name: float(getattr(ctx, f.name)).hex() for f in dataclasses.fields(ctx)}
        assert got == expected, label


def test_public_bounds_are_the_family_entries():
    # each family entry is its bound at that eps alone, bit for bit, under its own name;
    # every bound is vacuous for eps <= 0, and delta_ZZ/eta_DD also past eps_max
    for preset in ("paper-4.1", "paper-4.2-rho0.8"):
        b = get_preset(preset)
        ctx = bound_context(b.system, b.schedule, b.init, 2000)
        for family in (delta_family, eta_family):
            for eps in (0.05, 0.5, 5.0):
                fam = family(ctx, eps)
                for key in set(fam) - _FLAGS:
                    assert _bound(key, ctx, eps).hex() == fam[key].hex(), (preset, key, eps)
                    assert _bound(key, ctx, 0.0) == np.inf and _bound(key, ctx, -1.0) == np.inf, key
        for key in _RANGED:
            assert _bound(key, ctx, 1.5) == np.inf and _bound(key, ctx, ctx.eps_max) == np.inf, key


def test_unknown_bound_name_is_a_value_error_listing_the_bounds():
    with pytest.raises(ValueError, match="unknown bound 'delta_XYZ'") as info:
        bound_curves(_context(), [0.1, 0.5], ["delta_Y", "delta_XYZ"])
    assert str(info.value).split("the bounds are ")[1].split(", ") == _BOUND_NAMES


# --- eps grids in one pass -------------------------------------------------------------


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_bound_curves_equal_the_scalar_bounds(preset):
    # each element of a curve is the bound at that eps alone (a 0-d eps), bit for bit,
    # including the masked entries: eps <= 0, NaN, eps at and around eps_max, past both
    # validity limits
    b = get_preset(preset, noise_law="uniform")
    ctx0 = bound_context(b.system, b.schedule, b.init, 100)
    em = ctx0.eps_max
    eps = np.array([
        -1.0, 0.0, np.nan, 1e-300, 0.05, 0.5, em * (1 - 1e-7), em, em * (1 + 1e-7), 2.5,
        1.001 * ab_validity_limit(ctx0), 1.001 * sigma_validity_limit(ctx0),
    ])
    for n_r in (100, 2000, 10**6, 10**20):
        ctx = ctx0.with_rollouts(n_r)
        curves = bound_curves(ctx, eps, _BOUND_NAMES)
        assert list(curves) == _BOUND_NAMES
        for name in _BOUND_NAMES:
            alone = [_bound(name, ctx, e).hex() for e in eps]
            assert [float(v).hex() for v in curves[name]] == alone, (preset, n_r, name)


def _random_context(rng):
    lam_min_zz, lam_min_dd = 10 ** rng.uniform(-3, 0, 2)
    wide = ("norm_Y", "norm_Z", "norm_C", "norm_D", "norm_M1", "norm_L1", "norm_U", "c_n", "c_f", "c_w")
    return _context(
        n=int(rng.integers(1, 4)), m=int(rng.integers(1, 3)), ell=int(rng.integers(1, 8)),
        eps_max=rng.uniform(0.2, 1.0),
        lam_min_zz=lam_min_zz, lam_max_zz=lam_min_zz * 10 ** rng.uniform(0, 3),
        lam_min_dd=lam_min_dd, lam_max_dd=lam_min_dd * 10 ** rng.uniform(0, 3),
        norm_A=10 ** rng.uniform(-1, 0.5), norm_B=10 ** rng.uniform(-1, 0.5),
        **{name: 10 ** rng.uniform(-1, 1) for name in wide},
    )


def test_every_bound_is_non_increasing_in_n_r():
    rng = np.random.default_rng(5)
    eps = np.geomspace(1e-4, 30.0, 60)
    for _ in range(10):
        ctx = _random_context(rng)
        curves = [
            bound_curves(ctx.with_rollouts(n_r), eps, _BOUND_NAMES) for n_r in (10, 10**3, 10**8, 10**20, 10**30)
        ]
        for name in _BOUND_NAMES:
            vals = np.array([c[name] for c in curves])
            assert np.all(vals[1:] <= vals[:-1]), name


def test_bounds_are_non_increasing_in_eps_while_every_gram_term_stays_below_half_eps_max(monkeypatch):
    # The Gram-inverse bound's first term has argument 0.5 lam_min^2 (1 - x/eps_max) x,
    # which peaks at x = eps_max / 2, so delta_ZZ and eta_DD rise again on (eps_max / 2,
    # eps_max).  delta_AB, eta and the composite eta bounds evaluate that term at
    # arguments growing with eps, so each is non-increasing up to the eps at which one
    # of them reaches eps_max / 2; the bounds without it are non-increasing for all eps.
    reach = {}
    log_gram = bounds._log_gram

    def recording(pair, ctx, x):
        reach["max"] = np.maximum(reach["max"], x / ctx.eps_max)
        return log_gram(pair, ctx, x)

    monkeypatch.setattr(bounds, "_log_gram", recording)  # what _log_product calls
    rng = np.random.default_rng(29)
    eps = np.geomspace(1e-4, 30.0, 400)
    for _ in range(30):
        ctx = _random_context(rng)
        for name in _BOUND_NAMES:
            reach["max"] = eps / ctx.eps_max if name in _RANGED else np.zeros_like(eps)
            vals = bound_curves(ctx, eps, [name])[name]
            calm = reach["max"] <= 0.5
            assert np.all(calm[:-1] >= calm[1:]), name  # a prefix of the grid
            assert np.all(vals[1:][calm[1:]] <= vals[:-1][calm[1:]]), name


def test_gram_inverse_bounds_rise_again_past_half_eps_max():
    b = get_preset("paper-4.1")
    ctx = bound_context(b.system, b.schedule, b.init, 10**20)
    zz = bound_curves(ctx, [0.01, 0.5, 0.99], ["delta_ZZ"])["delta_ZZ"]
    assert zz[0] > 0.9 and zz[1] == 0.0 and zz[2] > 0.9
    dd = bound_curves(ctx.with_rollouts(10**24), [0.495, 0.545], ["eta_DD"])["eta_DD"]
    assert 6.9 < dd[0] < dd[1] < 7.0


def test_bound_context_rejects_fewer_than_one_rollout():
    bundle = get_preset("paper-4.1")
    with pytest.raises(ValueError, match="^n_r must be >= 1, got 0$"):
        bound_context(bundle.system, bundle.schedule, bundle.init, 0)
    ctx = bound_context(bundle.system, bundle.schedule, bundle.init, 10)
    for n_r in (-5, 0.5, np.nan):
        with pytest.raises(ValueError, match=f"^n_r must be >= 1, got {n_r}$"):
            ctx.with_rollouts(n_r)
