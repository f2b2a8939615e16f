"""Inverse problem, entropy derivatives and the thermodynamic map."""

import dataclasses
import hashlib
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

import hierstat.ensemble as ensemble
import hierstat.thermostatics as thermostatics
from hierstat import (
    Delta,
    GibbsParams,
    HierstatError,
    Histogram,
    NoConvergence,
    ParametricFamily,
    SingularInversion,
    TwoPoint,
    Uniform,
    ValidationError,
    condensation_abscissa,
    critical_temperature,
    ensemble_moments,
    entropy_per_element,
    eos_sweep,
    fermi_market_share,
    invert_to_params,
    maxwell_check,
    thermo_derivatives,
    thermo_state,
)
from hierstat.thermostatics import EOS_COLUMNS


def _family(theta):
    """TwoPoint whose weight drifts with the Gibbs parameters."""
    def build(alpha, beta):
        w = 0.4 + theta * 0.25 * math.tanh(0.5 * alpha + 0.25 * (beta - 1.0))
        return TwoPoint(1.0, 3.0, w)
    return ParametricFamily(build)


# --- derivatives -------------------------------------------------------------

def test_derivatives_match_finite_differences_fixed():
    d = 5
    params = GibbsParams(-2.0, 1.0)
    h = 1e-5
    for dist in (TwoPoint(1.0, 3.0, 0.4), Uniform(0.5, 2.5)):
        der = thermo_derivatives(dist, d, params)

        def moments(a, b):
            m = ensemble_moments(dist, d, GibbsParams(a, b))
            return m.n, m.u, m.omega

        for idx, (da, db) in enumerate(((h, 0.0), (0.0, h))):
            hi = moments(params.alpha + da, params.beta + db)
            lo = moments(params.alpha - da, params.beta - db)
            fd = [(a - b) / (2 * h) for a, b in zip(hi, lo)]
            got = [(der.dn_dalpha, der.dn_dbeta)[idx],
                   (der.du_dalpha, der.du_dbeta)[idx],
                   (der.domega_dalpha, der.domega_dbeta)[idx]]
            for g, f in zip(got, fd):
                assert g == pytest.approx(f, rel=1e-5, abs=1e-9)


def test_derivatives_match_finite_differences_parametric():
    d = 5
    fam = _family(1.0)
    params = GibbsParams(-1.5, 0.8)
    der = thermo_derivatives(fam, d, params)
    h = 1e-5

    def moments(a, b):
        m = ensemble_moments(fam, d, GibbsParams(a, b))
        return m.n, m.u, m.omega

    for idx, (da, db) in enumerate(((h, 0.0), (0.0, h))):
        hi = moments(params.alpha + da, params.beta + db)
        lo = moments(params.alpha - da, params.beta - db)
        fd = [(a - b) / (2 * h) for a, b in zip(hi, lo)]
        got = [(der.dn_dalpha, der.dn_dbeta)[idx],
               (der.du_dalpha, der.du_dbeta)[idx],
               (der.domega_dalpha, der.domega_dbeta)[idx]]
        for g, f in zip(got, fd):
            assert g == pytest.approx(f, rel=1e-4, abs=1e-8)


def test_phi_terms_one_kernel_call_per_node(monkeypatch):
    # the frozen integrand (f, eps f, log Z) takes all three from one fused
    # kernel call: at each end of a piece in closed form, per node of the
    # graded rule for a piece narrower than W_MIN
    calls = _count_kernels(monkeypatch)
    wide = ParametricFamily(lambda a, b: Uniform(0.5 + 0.05 * math.tanh(a),
                                                 2.5 + 0.05 * math.tanh(b - 1.0)))
    narrow = ParametricFamily(lambda a, b: Uniform(0.5 + 0.01 * math.tanh(a),
                                                   0.6 + 0.01 * math.tanh(b - 1.0)))
    # four perturbed pieces: two ends each, or one 12-node panel each (lambda
    # within [-1.51, -1.39] at d = 9, where no grading point falls)
    for fam, expected in ((wide, 8), (narrow, 48)):
        calls.clear()
        phi_a, phi_b = ensemble._phi_terms(fam, 9, -2.0, 1.0)
        assert len(calls) == expected
        assert len(phi_a) == len(phi_b) == 3
        assert all(type(v) is float and v != 0.0 for v in phi_a + phi_b)


def test_fixed_phi_omega_derivatives_closed_form():
    dist = Uniform(1.0, 2.0)
    params = GibbsParams(-1.2, 0.9)
    der = thermo_derivatives(dist, 4, params)
    mom = ensemble_moments(dist, 4, params)
    assert der.domega_dalpha == mom.n
    assert der.domega_dbeta == -mom.u * mom.n
    assert der.phi_omega_dalpha == 0.0 and der.phi_omega_dbeta == 0.0


def test_derivatives_at_underflowed_occupancy_name_the_parameters():
    # n underflows to 0.0: the ValidationError of ensemble_moments, not a
    # ZeroDivisionError from u = -m1 / n
    with pytest.raises(ValidationError) as err:
        thermo_derivatives(Uniform(0.5, 2.5), 9, GibbsParams(-760.0, 1.0))
    assert "alpha=-760.0, beta=1.0" in str(err.value)
    # a saturated level, n = d, is still a value with a zero Jacobian
    der = thermo_derivatives(TwoPoint(1.0, 3.0, 0.5), 2, GibbsParams(800.0, 1.0))
    assert der.jacobian == 0.0 and der.domega_dalpha == 2.0


def _count_kernels(monkeypatch):
    """The activities of every kernel call of the moment passes, as they run."""
    calls = []
    real = ensemble._kernels

    def counted(lam, d):
        calls.append(lam)
        return real(lam, d)

    monkeypatch.setattr(ensemble, "_kernels", counted)
    return calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, dist, alpha, kernel_calls", [
    (ensemble_moments, Uniform(0.0, 1e300), -1.0, 2 + 12 * 1004),
    (ensemble_moments, Histogram((0.0, 1.0, 1e10), (0.5, 0.5)), 1e300, 2 * 12),
])
def test_overflow_is_a_validation_error(monkeypatch, call, dist, alpha, kernel_calls):
    # extreme pieces name the parameters after a fixed amount of work.  On
    # [0, 1e300] the closed forms' omega overflows and their B cancels, so
    # the graded rule takes the piece in 1004 panels, one per doubling of
    # lambda; at alpha = 1e300 both histogram bins are 0 wide in activity,
    # one panel each.  Either way the level is full: n rounds to d or just
    # above it, outside (0, d)
    calls = _count_kernels(monkeypatch)
    with pytest.raises(ValidationError) as err:
        call(dist, 9, GibbsParams(alpha, 1.0))
    assert f"alpha={alpha!r}, beta=1.0" in str(err.value)
    assert len(calls) == kernel_calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dist, alpha, piece", [
    (Uniform(0.0, 1e300), -1.0, "[0.0, 1e+300]"),
    (Histogram((0.0, 1.0, 1e10), (0.5, 0.5)), 1e300, "[1.0, 10000000000.0]"),
])
def test_share_overflow_names_the_cost_piece(dist, alpha, piece):
    # the share integrates phi mirrored to -eps; at beta = 1e300 the activity
    # alpha - beta eps of the named piece is not finite, and the error names
    # that piece as given, not the mirrored one
    with pytest.raises(ValidationError) as err:
        fermi_market_share(dist, GibbsParams(alpha, 1e300))
    assert str(err.value) == (f"at alpha={alpha!r}, beta=1e+300: the d = 1 moments "
                              f"over the cost piece {piece} overflow")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dist", [TwoPoint(1.0, 1e300, 0.5), Delta(1e300)])
def test_saturated_atom_derivatives_are_finite(dist):
    # C is formed as eps (eps f'), so a saturated atom at eps ~ 1e300, where
    # f' = 0, adds 0 rather than inf * 0 = nan
    der = thermo_derivatives(dist, 9, GibbsParams(-1.0, 1.0))
    assert all(map(math.isfinite, dataclasses.astuple(der)))


def test_moments_stay_finite_where_derivatives_overflow():
    mom = ensemble_moments(TwoPoint(1.0, 1e300, 0.5), 9, GibbsParams(-1.0, 1.0))
    assert all(map(math.isfinite, dataclasses.astuple(mom)))


@pytest.mark.filterwarnings("error")
def test_extreme_inputs_raise_only_documented_errors(monkeypatch):
    # a fixed grid of extreme but valid inputs: each call returns finite
    # values or raises ValidationError, and evaluates the kernels at most
    # 13,000 times (the piece [0, 1e300] takes up to 1037 panels of 12 nodes,
    # one per doubling of lambda); the number of raising inputs is pinned per call
    calls = _count_kernels(monkeypatch)
    dists = (Uniform(0.0, 1e300), Histogram((0.0, 1.0, 1e10), (0.5, 0.5)),
             TwoPoint(1.0, 1e300, 0.5), Uniform(0.0, 1e-300),
             TwoPoint(1e-200, 1e200, 0.5), Delta(1e300))
    funcs = (ensemble_moments, thermo_derivatives,
             lambda dist, d, params: thermo_state(dist, d, params, 10),
             lambda dist, d, params: fermi_market_share(dist, params))
    raised = [0] * len(funcs)
    for dist, alpha, d, k in itertools.product(dists, (-1e300, -1.0, 0.5, 1e300),
                                               (1, 9, 10**6), range(len(funcs))):
        calls.clear()
        try:
            result = funcs[k](dist, d, GibbsParams(alpha, 1.0))
        except ValidationError as exc:
            raised[k] += 1
            assert f"alpha={alpha!r}, beta=1.0" in str(exc)
        else:
            values = (result,) if isinstance(result, float) else dataclasses.astuple(result)
            assert all(map(math.isfinite, values)), (dist, alpha, d, result)
        assert len(calls) <= 13_000, (dist, alpha, d, k, len(calls))
    # the share, the n of a d = 1 moment pass, checks only n, so it returns a
    # value everywhere (on [0, 1e300], 3.1326e-301 at alpha = -1, 9.7408e-301
    # at 0.5 and 1.0 at 1e300, each against a 60-digit oracle).  The graded
    # rule gives finite moments on [0, 1e300] at alpha = -1 and 0.5 (n = d to
    # a few ulp; at d = 9 it rounds above d and is refused) and finite
    # derivatives for the histogram at alpha = 1e300, where the adaptive
    # quadrature overflowed; on [0, 1e-300] at alpha = 1e300 and d = 9, n is
    # now d exactly (8.999999999999998 before), outside (0, d).  thermo_state
    # also refuses the 28 states whose identities fail by more than 1e-8, most
    # by O(1): psi = omega/n + beta u - alpha cancels when u or alpha is huge
    assert raised == [38, 22, 66, 0]


def test_delta_derivatives_are_rank_one():
    der = thermo_derivatives(Delta(2.0), 5, GibbsParams(-1.0, 1.0))
    assert der.du_dalpha == 0.0
    assert der.du_dbeta == 0.0
    assert der.jacobian == 0.0


# --- inversion ---------------------------------------------------------------

def test_inversion_roundtrip_two_point():
    dist = TwoPoint(1.0, 3.0, 0.4)
    params = GibbsParams(-2.0, 1.0)
    mom = ensemble_moments(dist, 5, params)
    rec = invert_to_params(dist, 5, mom.n, mom.u)
    assert rec.alpha == pytest.approx(params.alpha, abs=1e-8)
    assert rec.beta == pytest.approx(params.beta, abs=1e-8)


def test_inversion_roundtrip_random(rng):
    for k in range(12):
        if k % 2 == 0:
            dist = TwoPoint(1.0, 3.0, float(rng.uniform(0.2, 0.8)))
        else:
            dist = Uniform(float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.5, 3.0)))
        d = int(rng.integers(2, 12))
        params = GibbsParams(float(rng.uniform(-4, 0.5)), float(rng.uniform(0.3, 2.5)))
        mom = ensemble_moments(dist, d, params)
        rec = invert_to_params(dist, d, mom.n, mom.u)
        assert rec.alpha == pytest.approx(params.alpha, abs=1e-8)
        assert rec.beta == pytest.approx(params.beta, abs=1e-8)


def test_inversion_roundtrip_histogram():
    hist = Histogram((0.5, 1.5, 3.0), (0.6, 0.4))
    params = GibbsParams(-1.8, 1.1)
    mom = ensemble_moments(hist, 5, params)
    rec = invert_to_params(hist, 5, mom.n, mom.u)
    assert rec.alpha == pytest.approx(params.alpha, abs=1e-8)
    assert rec.beta == pytest.approx(params.beta, abs=1e-8)


def test_inversion_unattainable_target_reports_residuals():
    # u above minus the plain phi-average of epsilon needs beta < 0:
    # inside the support hull but outside the attainable set
    hist = Histogram((0.5, 1.5, 3.0), (0.6, 0.4))
    with pytest.raises(NoConvergence) as err:
        invert_to_params(hist, 5, 2.0, -1.4)
    assert err.value.residual_u is not None
    assert "unattainable" in str(err.value)


def test_inversion_refuses_delta():
    with pytest.raises(SingularInversion):
        invert_to_params(Delta(2.0), 5, 1.0, -2.0)


def test_inversion_preconditions():
    dist = TwoPoint(1.0, 3.0, 0.4)
    with pytest.raises(ValidationError):
        invert_to_params(dist, 5, 5.0, -2.0)  # density at capacity
    with pytest.raises(ValidationError):
        invert_to_params(dist, 5, 2.0, -3.5)  # energy outside (-3, -1)
    with pytest.raises(ValidationError):
        invert_to_params(dist, 5, 2.0, -1.0)  # boundary is excluded


# draw 37 of acceptance criterion 9 (seed 23) and one of its Newton iterates
_DRAW_37 = Uniform(0.26617575643854896, 2.609572822647894)


def test_derivatives_at_criterion_9_newton_iterate():
    # the Jacobian integrand crosses |lambda| (d+1) ~ 1e-2 here, where the
    # kernels' old round-off exceeded the quadrature's 1e-12 allowance
    params = GibbsParams(-22.944873451606554, 10.247197359556033)
    der = thermo_derivatives(_DRAW_37, 9, params)
    assert math.isfinite(der.jacobian) and der.jacobian != 0.0


def test_inversion_roundtrip_criterion_9_draw_37():
    params = GibbsParams(-3.9181784919889187, 1.6860635041223309)
    mom = ensemble_moments(_DRAW_37, 9, params)
    rec = invert_to_params(_DRAW_37, 9, mom.n, mom.u)
    assert abs(rec.alpha - params.alpha) < 1e-8
    assert abs(rec.beta - params.beta) < 1e-8


# Uniform draws at d >= 500 from a wide box (d, alpha, beta from
# default_rng(5)): every Newton iterate's quadrature must converge
@pytest.mark.parametrize("d, alpha, beta", [
    (1000, -5.21303680965688, 2.2909042757144293),
    (500, -4.335952010936178, 2.1420344924093686),
    (1000, -5.53252158840252, 4.320186408026348),
    (1000, -2.8555283254505675, 1.3229240970506315),
    (1000, -5.1834160853894655, 3.6994782378704425),
    (1000, -3.424257379799214, 2.8458429003662484),
    (500, -2.336842408994391, 1.1704229441634988),
])
def test_inversion_roundtrip_large_capacity(d, alpha, beta):
    dist = Uniform(0.5, 2.5)
    mom = ensemble_moments(dist, d, GibbsParams(alpha, beta))
    rec = invert_to_params(dist, d, mom.n, mom.u)
    assert abs(rec.alpha - alpha) < 1e-8
    assert abs(rec.beta - beta) < 1e-8


def test_inversion_jacobian_failure_is_no_convergence(monkeypatch):
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise ValidationError("the moments are not finite")

    monkeypatch.setattr(thermostatics, "_derivatives", failing)
    dist = TwoPoint(1.0, 3.0, 0.4)
    mom = ensemble_moments(dist, 5, GibbsParams(-2.0, 1.0))
    with pytest.raises(NoConvergence) as err:
        invert_to_params(dist, 5, mom.n, mom.u)
    assert calls
    assert err.value.residual_n is not None and err.value.residual_u is not None
    assert math.isfinite(err.value.alpha) and math.isfinite(err.value.beta)


@pytest.mark.parametrize("p, d, alpha, beta", [
    (0.45796921522870127, 4, -3.3353891501705766, 1.781397186007004),
    (0.3204613724967316, 11, -2.444134568099622, 1.3315979595294662),
])
def test_inversion_restarts_after_singular_scan_start(p, d, alpha, beta):
    # benchmark seed 11's two draws: a grid scan's best point for them was
    # alpha = -29.76, beta = 26.61, where the upper atom is saturated and the
    # two Jacobian columns are exactly proportional; the computed start must
    # recover both without any restart
    dist = TwoPoint(1.0, 3.0, p)
    mom = ensemble_moments(dist, d, GibbsParams(alpha, beta))
    rec = invert_to_params(dist, d, mom.n, mom.u)
    assert abs(rec.alpha - alpha) < 1e-8
    assert abs(rec.beta - beta) < 1e-8


@pytest.mark.parametrize("p, d, alpha, beta", [
    (0.5256548739362952, 8, 0.38351513137205373, 2.4745583222389516),
    (0.32034590869340157, 2, -3.462271241113557, 1.9669361812390944),
    (0.5785135458976106, 9, -3.304685425800258, 1.5993127205161375),
    (0.5583304524044435, 10, -3.1066570752886564, 1.5129974711727128),
])
def test_inversion_roundtrip_hard_two_point_draws(p, d, alpha, beta):
    # benchmark draws with the upper atom 95-100 % full: iterates that push
    # it to saturation make the Jacobian columns proportional, and a 1e-12
    # residual near saturation can still leave ~1e-8 of error in (alpha, beta)
    dist = TwoPoint(1.0, 3.0, p)
    mom = ensemble_moments(dist, d, GibbsParams(alpha, beta))
    rec = invert_to_params(dist, d, mom.n, mom.u)
    assert abs(rec.alpha - alpha) < 1e-8
    assert abs(rec.beta - beta) < 1e-8


def _zero_jacobian_after(monkeypatch, real_calls):
    """Make every Jacobian after the first ``real_calls`` exactly zero."""
    real = thermostatics._derivatives
    points = []

    def patched(dist, d, alpha, beta, m):
        der = real(dist, d, alpha, beta, m)
        points.append((alpha, beta))
        if len(points) <= real_calls:
            return der
        return 0.0, 0.0, 0.0, 0.0, der[4], der[5], 0.0, 0.0, 0.0

    monkeypatch.setattr(thermostatics, "_derivatives", patched)
    return points


def test_inversion_singular_at_start_raises(monkeypatch):
    points = _zero_jacobian_after(monkeypatch, 0)
    dist = TwoPoint(1.0, 3.0, 0.4)
    mom = ensemble_moments(dist, 5, GibbsParams(-2.0, 1.0))
    with pytest.raises(SingularInversion) as err:
        invert_to_params(dist, 5, mom.n, mom.u)
    assert len(points) == 1  # one computed start, no restart
    assert f"alpha={points[0][0]!r}" in str(err.value)
    assert "np.float64" not in str(err.value)


def test_inversion_start_moment_failure_is_no_convergence(monkeypatch):
    def failing(*args):
        raise ValidationError("the moments are not finite")

    monkeypatch.setattr(thermostatics, "_scaled_residual", failing)
    with pytest.raises(NoConvergence) as err:
        invert_to_params(TwoPoint(1.0, 3.0, 0.4), 5, 2.0, -2.0)
    assert "starting point" in str(err.value)
    assert type(err.value.alpha) is float and type(err.value.beta) is float


def test_inversion_start_off_the_parameter_domain_is_no_convergence():
    # a support two ulp wide near 1e-300 makes beta0 = 1 / (hi - lo) overflow;
    # the start is refused with the parameter record's own message
    mid = math.nextafter(1e-300, 1.0)
    dist = Uniform(1e-300, math.nextafter(mid, 1.0))
    with pytest.raises(NoConvergence, match="starting point failed .*"
                                            "beta must be a finite number > 0, got inf"):
        invert_to_params(dist, 3, 1.0, -mid)


def test_inversion_halves_past_a_failing_trial(monkeypatch):
    # the first line-search trial's moments fail: the step is halved, and
    # the solve still converges
    real = thermostatics._scaled_residual
    calls = []

    def flaky(*args):
        calls.append(args[2:4])
        if len(calls) == 2:
            raise ValidationError("the moments are not finite")
        return real(*args)

    monkeypatch.setattr(thermostatics, "_scaled_residual", flaky)
    dist = TwoPoint(1.0, 3.0, 0.4)
    mom = ensemble_moments(dist, 5, GibbsParams(-2.0, 1.0))
    rec = invert_to_params(dist, 5, mom.n, mom.u)
    (a0, b0), (a1, b1), (a2, b2) = calls[:3]
    assert a2 - a0 == pytest.approx(0.5 * (a1 - a0), rel=1e-12)
    assert b2 - b0 == pytest.approx(0.5 * (b1 - b0), rel=1e-12)
    assert abs(rec.alpha + 2.0) < 1e-8 and abs(rec.beta - 1.0) < 1e-8


def _underflow_moments_on(monkeypatch, calls_to_zero):
    """Make the listed moment passes (1-based) report an occupancy of 0."""
    real = thermostatics._moments
    calls = []

    def patched(dist, d, alpha, beta):
        calls.append((alpha, beta))
        m = real(dist, d, alpha, beta)
        return [0.0, *m[1:]] if len(calls) in calls_to_zero else m

    monkeypatch.setattr(thermostatics, "_moments", patched)
    return calls


def test_inversion_halves_past_an_underflowed_trial(monkeypatch):
    # n = 0 at the first line-search trial is refused before u = -m1 / n is
    # formed: the step is halved, and the solve still converges
    calls = _underflow_moments_on(monkeypatch, {2})
    dist = TwoPoint(1.0, 3.0, 0.4)
    mom = ensemble_moments(dist, 5, GibbsParams(-2.0, 1.0))
    rec = invert_to_params(dist, 5, mom.n, mom.u)
    (a0, b0), (a1, b1), (a2, b2) = calls[:3]
    assert a2 - a0 == pytest.approx(0.5 * (a1 - a0), rel=1e-12)
    assert b2 - b0 == pytest.approx(0.5 * (b1 - b0), rel=1e-12)
    assert abs(rec.alpha + 2.0) < 1e-8 and abs(rec.beta - 1.0) < 1e-8


def test_inversion_underflowed_start_is_no_convergence(monkeypatch):
    _underflow_moments_on(monkeypatch, {1})
    with pytest.raises(NoConvergence) as err:
        invert_to_params(TwoPoint(1.0, 3.0, 0.4), 5, 2.0, -2.0)
    assert "starting point" in str(err.value)
    assert "occupancy density 0.0 outside (0, 5)" in str(err.value)


@pytest.mark.parametrize("failure", ["singular", "raises"])
def test_inversion_keeps_converged_iterate_when_next_jacobian_fails(monkeypatch,
                                                                    failure):
    dist = TwoPoint(1.0, 3.0, 0.4)
    mom = ensemble_moments(dist, 5, GibbsParams(-2.0, 1.0))
    jacobians = _count_calls(monkeypatch, "_derivatives")
    invert_to_params(dist, 5, mom.n, mom.u)
    converged_at = len(jacobians)  # the last Jacobian is taken at the converged iterate
    assert converged_at >= 1
    monkeypatch.undo()

    real = thermostatics._derivatives
    points = []

    def patched(dist, d, alpha, beta, m):
        points.append(GibbsParams(alpha, beta))
        if len(points) < converged_at:
            return real(dist, d, alpha, beta, m)
        if failure == "raises":
            raise ValidationError("the moments are not finite")
        return (0.0,) * 9

    monkeypatch.setattr(thermostatics, "_derivatives", patched)
    rec = invert_to_params(dist, 5, mom.n, mom.u)
    assert len(points) == converged_at
    assert rec == points[-1]
    assert abs(rec.alpha + 2.0) < 1e-8 and abs(rec.beta - 1.0) < 1e-8


def _criterion_9_draws():
    """The 50 (distribution, capacity, params) draws of criterion 9 (seed 23)."""
    rng = np.random.default_rng(23)
    for k in range(50):
        if k % 2 == 0:
            dist = TwoPoint(1.0, 3.0, float(rng.uniform(0.2, 0.8)))
        else:
            dist = Uniform(float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.5, 3.0)))
        d = int(rng.integers(2, 12))
        params = GibbsParams(float(rng.uniform(-4, 0.5)), float(rng.uniform(0.3, 2.5)))
        yield k, dist, d, params


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(thermostatics, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(thermostatics, name, counted)
    return calls


def test_inversion_moment_evaluations_per_draw(monkeypatch):
    # criterion 9's draws (seed 23): a start scan would cost ~1700 each
    calls = _count_calls(monkeypatch, "_moments")
    for k, dist, d, params in _criterion_9_draws():
        mom = ensemble_moments(dist, d, params)
        calls.clear()
        invert_to_params(dist, d, mom.n, mom.u)
        assert 1 <= len(calls) <= 40, (k, len(calls))


def test_inversion_integrates_each_point_once(monkeypatch):
    # an accepted iterate's Jacobian reuses the moment pass of its residual
    passes = _count_calls(monkeypatch, "_moments")
    residuals = _count_calls(monkeypatch, "_scaled_residual")
    for k, dist, d, params in _criterion_9_draws():
        mom = ensemble_moments(dist, d, params)
        passes.clear()
        residuals.clear()
        invert_to_params(dist, d, mom.n, mom.u)
        assert residuals, k
        assert len(passes) == len(residuals), (k, len(passes), len(residuals))


def test_cold_solve_takes_no_activity_root(monkeypatch):
    # the start estimates its activities from a closed form and two Newton
    # steps on the kernel, not from a Brent root
    roots = _count_calls(monkeypatch, "activity_for_mean")
    for k, dist, d, params in _criterion_9_draws():
        mom = ensemble_moments(dist, d, params)
        invert_to_params(dist, d, mom.n, mom.u)
        entropy_per_element(dist, d, mom.n, mom.u)
    assert roots == []


def test_two_point_cold_solve_moment_passes(monkeypatch):
    # criterion 9's TwoPoint draws: the two-point start lies within about 1e-3
    # of the answer, so Newton needs at most 4 moment passes after the start's
    # own on average (3.04 measured; 6.96 from a start at beta0 = 1/(hi - lo))
    passes = _count_calls(monkeypatch, "_moments")
    after_start = []
    for k, dist, d, params in _criterion_9_draws():
        if isinstance(dist, TwoPoint):
            mom = ensemble_moments(dist, d, params)
            passes.clear()
            invert_to_params(dist, d, mom.n, mom.u)
            after_start.append(len(passes) - 1)
    assert len(after_start) == 25
    assert sum(after_start) / len(after_start) <= 4.0, after_start


def _round_trip_box(seed, capacities):
    """Forward moments of 240 draws, alternating Uniform(0.5, 2.5) and
    TwoPoint(1, 3, w), w in [0.1, 0.9], with d from ``capacities``, alpha in
    [-8, 2] and beta in [0.1, 5], inverted; draws whose forward moments raise
    are skipped.  Returns the number solved and the worst scaled residual of
    the forward moments at the returned points."""
    rng = np.random.default_rng(seed)
    solved, worst = 0, 0.0
    for k in range(240):
        if k % 2 == 0:
            dist = Uniform(0.5, 2.5)
        else:
            dist = TwoPoint(1.0, 3.0, float(rng.uniform(0.1, 0.9)))
        d = int(rng.choice(capacities))
        params = GibbsParams(float(rng.uniform(-8, 2)), float(rng.uniform(0.1, 5)))
        try:
            mom = ensemble_moments(dist, d, params)
        except ValidationError:
            continue
        back = ensemble_moments(dist, d, invert_to_params(dist, d, mom.n, mom.u))
        worst = max(worst, abs(back.n - mom.n) / mom.n, abs(back.u - mom.u) / abs(mom.u))
        solved += 1
    return solved, worst


@pytest.mark.parametrize("seed, capacities", [
    (5, (2, 5, 20, 50, 200, 500, 1000)),
    (6, (10**4, 10**5, 10**6)),
], ids=["d-to-1000", "d-to-1e6"])
def test_inversion_round_trips_over_the_capacity_range(seed, capacities):
    # a start at beta0 = 1/(hi - lo) raised SingularInversion on one draw of
    # each box and NoConvergence on one more at d >= 1e4; every draw now
    # solves (worst residuals measured: 2.4e-15 and 3.2e-15), and no draw's
    # forward moments raise
    solved, worst = _round_trip_box(seed, capacities)
    assert solved == 240
    assert worst <= 1e-12


def test_inversion_singular_at_later_iterate_raises(monkeypatch):
    # a start away from the answer (-2, 1), so one Newton step leaves the
    # first iterate unconverged however good the cold start is
    monkeypatch.setattr(thermostatics, "_cold_start", lambda *args: (-2.5, 1.3))
    points = _zero_jacobian_after(monkeypatch, 1)
    dist = TwoPoint(1.0, 3.0, 0.4)
    mom = ensemble_moments(dist, 5, GibbsParams(-2.0, 1.0))
    with pytest.raises(SingularInversion) as err:
        invert_to_params(dist, 5, mom.n, mom.u)
    assert len(points) == 2  # no restart from a later iterate
    res, _ = thermostatics._scaled_residual(dist, 5, *points[1], mom.n, mom.u, abs(mom.u))
    assert max(map(abs, res)) > 1e-12
    assert f"alpha={points[1][0]!r}" in str(err.value)
    assert "np.float64" not in str(err.value)


def test_lu_solve_2x2_matches_exact_solve():
    # random systems with a 1-norm condition number of at most 4, against
    # Cramer's rule in exact rationals, in ulps of the larger component
    rng = random.Random(23)
    checked = 0
    while checked < 500:
        j11, j12, j21, j22, b1, b2 = (rng.uniform(-1.0, 1.0) for _ in range(6))
        a11, a12, a21, a22 = map(Fraction, (j11, j12, j21, j22))
        det = a11 * a22 - a12 * a21
        inverse_norm = max(abs(a22) + abs(a21), abs(a12) + abs(a11)) / abs(det)
        if max(abs(a11) + abs(a21), abs(a12) + abs(a22)) * inverse_norm > 4:
            continue
        checked += 1
        exact = ((a22 * Fraction(b1) - a12 * Fraction(b2)) / det,
                 (a11 * Fraction(b2) - a21 * Fraction(b1)) / det)
        got = thermostatics._lu_solve_2x2(j11, j12, j21, j22, b1, b2)
        ulp = math.ulp(max(abs(float(x)) for x in exact))
        assert all(abs(Fraction(g) - x) <= 8 * ulp for g, x in zip(got, exact)), \
            (j11, j12, j21, j22, b1, b2)


@pytest.mark.parametrize("rows", [
    ((0.0, 2.0), (0.0, 1.0)),  # the alpha column is zero
    ((2.0, 4.0), (1.0, 2.0)),  # proportional rows
])
def test_inversion_exactly_singular_jacobian_raises(monkeypatch, rows):
    # every Jacobian has the given scaled rows (powers of two times the
    # targets, so the scaling is exact): the first pivot or the second is
    # exactly zero
    n_target, u_target = 2.0, -2.5
    (na, nb), (ua, ub) = rows

    calls = []

    def singular(dist, d, alpha, beta, m):
        calls.append((alpha, beta))
        return (na * n_target, nb * n_target, -ua * u_target, -ub * u_target,
                0.0, 0.0, 0.0, 0.0, 0.0)

    monkeypatch.setattr(thermostatics, "_derivatives", singular)
    with pytest.raises(SingularInversion, match="is singular at alpha="):
        invert_to_params(TwoPoint(1.0, 3.0, 0.4), 9, n_target, u_target)
    assert calls


def _outcome(fn, *args):
    try:
        return repr(fn(*args))
    except HierstatError as exc:
        return f"{type(exc).__name__}: {exc}"


def _solver_records():
    """Reprs (or errors) of round trips, states, derivatives and Maxwell reports."""
    rng = np.random.default_rng(31)
    capacities = (2, 3, 5, 9, 20, 50, 200, 1000)
    out = []
    for k in range(48):
        if k % 3 == 0:
            dist = Uniform(float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.5, 3.0)))
        elif k % 3 == 1:
            dist = TwoPoint(1.0, 3.0, float(rng.uniform(0.1, 0.9)))
        else:
            dist = _family(float(rng.uniform(0.5, 1.5)))
        d = capacities[k % len(capacities)]
        params = GibbsParams(float(rng.uniform(-8, 2)), float(rng.uniform(0.1, 5)))
        mom = ensemble_moments(dist, d, params)
        out.append(_outcome(invert_to_params, dist, d, mom.n, mom.u))
        out.append(_outcome(thermo_state, dist, d, params, 7))
        out.append(_outcome(thermo_derivatives, dist, d, params))
    # u above minus the phi-mean salary: the last accepted iterate is reported
    out.append(_outcome(invert_to_params, Uniform(0.5, 2.5), 9, 4.0, -1.45))
    for dist, d in ((Uniform(0.5, 2.5), 9), (TwoPoint(1.0, 3.0, 0.5), 5)):
        out.append(_outcome(entropy_per_element, dist, d, 3.0, -1.8))
        out.append(_outcome(maxwell_check, dist, d, GibbsParams(-2.0, 1.0), 100))
    return out


def test_solver_results_bits_pinned():
    # recorded before the Jacobian reused the accepted iterate's moment pass,
    # then once more when the derivative fields became Python floats (every
    # record equal to the old one with np.float64(x) written as x), and again
    # when uniform pieces took the closed-form moments (61 records moved,
    # each checked against a 45-digit oracle; see CHANGES.md), and when the
    # Newton step became a float LU solve and the Maxwell probes started at
    # the state (33 records moved: round trips, two error messages and both
    # Maxwell reports, compared with the parent's in CHANGES.md), and when
    # narrow pieces took the graded rule (1 record moved: record 144, whose
    # NoConvergence at beta ~ 1e-6 reports residuals now within 2.7e-15 and
    # 2.4e-15 of a 60-digit oracle at its own last iterate, 3.7e-15 and 5.9e-15
    # before), and when the graded rule counted every node from the lower end
    # (record 144 again: 4.4e-15 and 2.4e-15 from the oracle at its own last
    # iterate), and when cold solves started on the line through two atoms
    # matched to phi (all 48 round trips moved, by at most 4.7e-9 in (alpha,
    # beta); against a 60-digit oracle 26 land closer to their targets and 21
    # farther, worst 1.34e-15 against 1.44e-15 before, and draw 13's
    # SingularInversion became a solve; the residuals reported for the two
    # unattainable targets, records 144 and 147, are within 1.6e-16 of the
    # oracle at their own last iterates; record 145's psi is 4.9e-16 from the
    # oracle's, 3.5e-16 before); 6 of the 149 records are errors (ValidationError,
    # SingularInversion, NoConvergence), pinned with their messages
    records = _solver_records()
    assert len(records) == 149
    errors = ("ValidationError:", "SingularInversion:", "NoConvergence:")
    assert sum(r.startswith(errors) for r in records) == 6
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "ba91f57cea1fcc197d8f9c3445d992d87de19bda28f1709d3a2984f395bc813e"


# --- thermodynamic state -----------------------------------------------------

@pytest.mark.parametrize("dist", [TwoPoint(1.0, 3.0, 0.4), _family(1.0)],
                         ids=["two-point", "family"])
def test_state_and_derivative_fields_are_python_floats(dist):
    params = GibbsParams(-1.5, 0.8)
    for record in (thermo_state(dist, 5, params, 100),
                   thermo_derivatives(dist, 5, params)):
        for field in dataclasses.fields(record):
            if field.type == "float":
                assert type(getattr(record, field.name)) is float, field.name

def test_state_closed_forms_fixed_phi():
    dist = TwoPoint(1.0, 3.0, 0.5)
    params = GibbsParams(-2.0, 1.25)
    state = thermo_state(dist, 5, params, 100)
    mom = ensemble_moments(dist, 5, params)
    assert state.temperature == 1.0 / params.beta
    assert state.financial_potential == pytest.approx(
        params.alpha / params.beta, rel=1e-12)
    assert state.pressure == pytest.approx(mom.omega / params.beta, rel=1e-12)
    res = state.residuals()
    assert res["euler_identity"] < 1e-12
    assert res["gibbs_identity"] < 1e-12
    assert res["entropy_decomposition"] < 1e-12


@pytest.mark.parametrize("dist", [Delta(1.0), Uniform(0.5, 2.5), TwoPoint(1, 3, 0.4),
                                  Histogram((0.5, 1.5, 2.5), (0.3, 0.7))],
                         ids=["delta", "uniform", "two-point", "histogram"])
def test_state_with_underflowed_n_squared_names_the_parameters(dist):
    # n ~ 2.7e-261 is accepted by ensemble_moments but n * n underflows to
    # 0.0: a ValidationError, not a ZeroDivisionError from dpsi/dn = -omega / n^2
    calls = [thermo_state] if isinstance(dist, Delta) else [thermo_state, maxwell_check]
    for call in calls:
        with pytest.raises(ValidationError, match="alpha=-600.0, beta=0.001: its square"):
            call(dist, 5, GibbsParams(-600.0, 0.001), 10)


@pytest.mark.parametrize("dist, d", [
    (Delta(1.0), 50), (Delta(1.0), 10**6), (Uniform(0.5, 2.5), 9), (TwoPoint(1.0, 3.0, 0.4), 1),
    (Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3)), 9)],
    ids=["delta", "delta-1e6", "uniform", "two-point", "histogram"])
def test_state_at_zero_alpha_keeps_its_identities(dist, d):
    # mu = alpha T = 0 makes G = N mu = 0, and E - TS + pV cancels to a
    # rounding residue: the Gibbs residual is measured against the terms of G
    state = thermo_state(dist, d, GibbsParams(0.0, 1.5), 100)
    assert abs(state.financial_potential) < 1e-12
    assert abs(state.gibbs_free_energy) <= 1e-12 * abs(state.energy_total)
    assert state.residuals()["gibbs_identity"] < 1e-15
    assert max(state.residuals().values()) < 1e-8


def test_state_extensivity():
    dist = Uniform(0.5, 2.5)
    params = GibbsParams(-1.0, 0.8)
    s1 = thermo_state(dist, 4, params, 50)
    s2 = thermo_state(dist, 4, params, 100)
    assert s2.elements == pytest.approx(2 * s1.elements, rel=1e-14)
    assert s2.energy_total == pytest.approx(2 * s1.energy_total, rel=1e-14)
    assert s2.entropy_total == pytest.approx(2 * s1.entropy_total, rel=1e-14)
    assert s2.gibbs_free_energy == pytest.approx(2 * s1.gibbs_free_energy, rel=1e-14)
    for field in ("temperature", "financial_potential", "pressure", "n", "u"):
        assert getattr(s2, field) == getattr(s1, field)


def test_parametric_reduces_to_closed_forms_when_dependence_off():
    fixed = TwoPoint(1.0, 3.0, 0.4)
    fam0 = _family(0.0)
    params = GibbsParams(-1.5, 0.8)
    a = thermo_state(fixed, 5, params, 100)
    b = thermo_state(fam0, 5, params, 100)
    assert b.temperature == pytest.approx(a.temperature, rel=1e-9)
    assert b.financial_potential == pytest.approx(a.financial_potential, rel=1e-9)
    assert b.pressure == pytest.approx(a.pressure, rel=1e-9)


def test_parametric_state_zero_jacobian_is_singular(monkeypatch):
    # the chain rule divides by the moment Jacobian; an exactly zero one is
    # refused instead
    def flat(dist, d, alpha, beta, m):
        return 1.0, 2.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0

    monkeypatch.setattr(thermostatics, "_derivatives", flat)
    with pytest.raises(SingularInversion, match="zero moment Jacobian"):
        thermo_state(_family(1.0), 5, GibbsParams(-1.5, 0.8), 100)


def test_parametric_phi_shifts_temperature_off_beta():
    fam = _family(1.0)
    params = GibbsParams(-1.5, 0.8)
    state = thermo_state(fam, 5, params, 100)
    # the naive identification 1/T = beta fails once phi moves with the
    # parameters; the shift is far above numerical noise
    assert abs(1.0 / state.temperature - params.beta) > 1e-8 * params.beta
    assert abs(1.0 / state.temperature - params.beta) > 1e-3


def test_parametric_state_integrates_its_point_once(monkeypatch):
    # n, u, omega and the chain-rule Jacobian share one moment pass
    points = []
    real = ensemble._moments

    def counted(dist, d, alpha, beta):
        points.append(GibbsParams(alpha, beta))
        return real(dist, d, alpha, beta)

    for module in (ensemble, thermostatics):
        monkeypatch.setattr(module, "_moments", counted)
    thermo_state(_family(1.0), 5, GibbsParams(-2.0, 1.0), 100)
    assert points == [GibbsParams(-2.0, 1.0)]


def test_parametric_chain_rule_matches_entropy_differences():
    fam = _family(1.0)
    params = GibbsParams(-1.5, 0.8)
    d = 5
    state = thermo_state(fam, d, params, 100)
    mom = ensemble_moments(fam, d, params)
    hn = 1e-5 * mom.n
    hu = 1e-5 * abs(mom.u)
    dpsi_du = (entropy_per_element(fam, d, mom.n, mom.u + hu)
               - entropy_per_element(fam, d, mom.n, mom.u - hu)) / (2 * hu)
    dpsi_dn = (entropy_per_element(fam, d, mom.n + hn, mom.u)
               - entropy_per_element(fam, d, mom.n - hn, mom.u)) / (2 * hn)
    assert 1.0 / state.temperature == pytest.approx(dpsi_du, rel=1e-5)
    implied = -state.pressure / (mom.n ** 2 * state.temperature)
    assert implied == pytest.approx(dpsi_dn, rel=1e-5)
    # identities survive the general path
    res = state.residuals()
    assert res["euler_identity"] < 1e-10
    assert res["gibbs_identity"] < 1e-10


def test_entropy_identities_random_states(rng):
    for k in range(8):
        if k % 2 == 0:
            dist = TwoPoint(1.0, 3.0, float(rng.uniform(0.2, 0.8)))
        else:
            dist = Uniform(float(rng.uniform(0.2, 1.0)), float(rng.uniform(1.5, 3.0)))
        params = GibbsParams(float(rng.uniform(-4, 0.5)), float(rng.uniform(0.3, 2.5)))
        state = thermo_state(dist, 6, params, int(rng.integers(10, 500)))
        res = state.residuals()
        assert res["euler_identity"] < 1e-8
        assert res["gibbs_identity"] < 1e-8
        assert res["entropy_decomposition"] < 1e-9


def test_entropy_per_element_consistent_with_state():
    dist = TwoPoint(1.0, 3.0, 0.4)
    params = GibbsParams(-2.0, 1.0)
    state = thermo_state(dist, 5, params, 100)
    psi = entropy_per_element(dist, 5, state.n, state.u)
    assert psi == pytest.approx(state.psi, rel=1e-9)


# --- maxwell relations -------------------------------------------------------

def test_maxwell_reference_state():
    rep = maxwell_check(TwoPoint(1.0, 3.0, 0.5), 5, GibbsParams(-2.0, 1.0), 100)
    assert all(r < 1e-4 for r in rep.residuals)
    assert all(o >= 1.8 for o in rep.orders)


def test_maxwell_solves_each_probe_point_once(monkeypatch):
    # E, N and V moved up and down at the step and at half step
    solves = _count_calls(monkeypatch, "_solve")
    for dist, d in ((TwoPoint(1.0, 3.0, 0.5), 5), (Uniform(0.5, 2.5), 9)):
        solves.clear()
        maxwell_check(dist, d, GibbsParams(-2.0, 1.0), 100)
        assert len(solves) == 12
        assert len({args[2:] for args in solves}) == 12


def test_maxwell_probes_start_at_the_state(monkeypatch):
    # 12 probe solves, each started from the first-order prediction at the
    # state's Jacobian: at most 4 moment passes each (5 when started at the
    # state itself), and no activity_for_mean root
    passes = _count_calls(monkeypatch, "_moments")
    roots = _count_calls(monkeypatch, "activity_for_mean")
    for dist, d in ((TwoPoint(1.0, 3.0, 0.5), 5), (Uniform(0.5, 2.5), 9)):
        passes.clear()
        maxwell_check(dist, d, GibbsParams(-2.0, 1.0), 100)
        assert 12 <= len(passes) <= 48, (dist, len(passes))
        assert roots == []


def test_maxwell_rejects_delta_and_parametric():
    with pytest.raises(ValidationError):
        maxwell_check(Delta(2.0), 5, GibbsParams(-2.0, 1.0), 100)
    with pytest.raises(ValidationError):
        maxwell_check(_family(1.0), 5, GibbsParams(-2.0, 1.0), 100)


# --- first law along finite paths ---------------------------------------------

@pytest.mark.parametrize("dist, d, nodes, bound", [
    (TwoPoint(1.0, 3.0, 0.4), 5, 24, 1e-13),
    (Uniform(0.5, 2.5), 9, 24, 1e-13),
    (TwoPoint(1.0, 3.0, 0.7), 50, 48, 1e-8),
    (_family(1.0), 5, 24, 1e-8),
], ids=["two-point", "uniform", "two-point-d50", "family"])
def test_first_law_along_a_straight_path(dist, d, nodes, bound):
    # integral of (1/T) dE - (mu/T) dN + (p/T) dV along the straight path in
    # (E, N, V) from the state at (-2, 1), V = 100, to the one at (-0.5, 0.6),
    # V = 130, by Gauss-Legendre over inverted nodes, equals S_B - S_A.
    # Measured: 6.8e-16, 7.6e-16, 1.6e-10 (the d = 50 path needs the
    # two-point start: beta0 = 1/(hi - lo) raised SingularInversion at 28
    # of its 48 nodes) and 7.8e-10 (the family's phi terms are central
    # differences)
    ends = (thermo_state(dist, d, GibbsParams(-2.0, 1.0), 100),
            thermo_state(dist, d, GibbsParams(-0.5, 0.6), 130))
    (e0, n0, v0), (e1, n1, v1) = ((s.energy_total, s.elements, s.volume) for s in ends)
    de, dn, dv = e1 - e0, n1 - n0, v1 - v0
    t, w = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    for x, weight in zip(0.5 * (t + 1.0), 0.5 * w):
        energy, elements, volume = (float(a + x * b) for a, b in ((e0, de), (n0, dn), (v0, dv)))
        params = invert_to_params(dist, d, elements / volume, energy / elements)
        s = thermo_state(dist, d, params, 1)
        total += weight * (de - s.financial_potential * dn + s.pressure * dv) / s.temperature
    change = ends[1].entropy_total - ends[0].entropy_total
    assert abs(total - change) <= bound * abs(change)


# --- equation of state -------------------------------------------------------

def test_eos_zero_activity_row_is_analytic():
    for d in (1, 7, 50000):
        table = eos_sweep(d, [-1.0, 0.0, 1.0])
        i = 1
        assert table.n_over_d[i] == 0.5
        assert table.x[i] == 1.0
        assert table.p_over_T[i] == pytest.approx(math.log1p(d), rel=1e-15)
    assert EOS_COLUMNS == ("lambda", "n_over_d", "p_over_T",
                           "mu_shifted_over_T", "x")


def test_eos_underflowed_omega_gives_infinite_x():
    # omega = log Z underflows to 0 far below lambda = 0: x is inf, without
    # a division warning or a ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = eos_sweep(3, [-1e300, -1000.0])
    assert table.p_over_T == (0.0, 0.0)
    assert table.x == (math.inf, math.inf)


def test_eos_ideal_gas_regime():
    from hierstat import activity_for_mean, log_partition
    for d in (100, 1000):
        for nv in (1e-4, 1e-3, 1e-2):
            lam = activity_for_mean(d, nv)
            om = log_partition(lam, d)
            assert abs(om / nv - 1.0) < 1.1 * nv / 2 + 1e-6
            assert abs(om - math.log1p(nv)) / om < 1e-3


def test_critical_temperature_values():
    assert critical_temperature(1, math.log(2.0)) == pytest.approx(1.0, rel=1e-15)
    assert critical_temperature(9, 2.0) == pytest.approx(2.0 / math.log(10.0), rel=1e-14)
    with pytest.raises(ValidationError):
        critical_temperature(5, -1.0)


def test_condensation_curve_shape():
    # the filling curve drops through (1, 1/2) and sharpens with capacity
    for d in (500, 50000):
        assert condensation_abscissa(d, 0.5) == pytest.approx(1.0, abs=1e-9)
    x10 = condensation_abscissa(50000, 0.1)
    x90 = condensation_abscissa(50000, 0.9)
    assert 1.24 <= x10 <= 1.28
    assert 0.57 <= x90 <= 0.61
    widths = [condensation_abscissa(d, 0.1) - condensation_abscissa(d, 0.9)
              for d in (500, 5000, 50000)]
    assert widths[0] > widths[1] > widths[2] > 0.0


def test_condensation_curve_monotone():
    table = eos_sweep(5000, np.linspace(-0.002, 0.002, 101))
    assert all(b < a for a, b in zip(table.x, table.x[1:]))
    assert all(b > a for a, b in zip(table.n_over_d, table.n_over_d[1:]))
