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

from conftest import ROUND_TRIP_BOXES, box_draws, mixed_draws, mp_kernels, spy

import hierstat.ensemble as ensemble
import hierstat.hierarchy as hierarchy
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
    activity_for_mean,
    condensation_abscissa,
    critical_temperature,
    ensemble_moments,
    entropy_per_element,
    eos_sweep,
    fermi_market_share,
    gentile_mean_dlambda,
    invert_to_params,
    log_partition,
    maxwell_check,
    thermo_derivatives,
    thermo_state,
)
from hierstat.gentile import _increasing_root
from hierstat.thermostatics import EOS_COLUMNS


def _family(theta):
    """TwoPoint whose weight drifts with the Gibbs parameters."""
    def build(alpha, beta):
        w = 0.4 + theta * 0.25 * math.tanh(0.5 * alpha + 0.25 * (beta - 1.0))
        return TwoPoint(1.0, 3.0, w)
    return ParametricFamily(build)


# --- derivatives -------------------------------------------------------------

@pytest.mark.parametrize("dist, alpha, beta, rel, abs_", [
    pytest.param(TwoPoint(1.0, 3.0, 0.4), -2.0, 1.0, 1e-5, 1e-9, id="two-point"),
    pytest.param(Uniform(0.5, 2.5), -2.0, 1.0, 1e-5, 1e-9, id="uniform"),
    pytest.param(_family(1.0), -1.5, 0.8, 1e-4, 1e-8, id="family"),
])
def test_derivatives_match_finite_differences(dist, alpha, beta, rel, abs_):
    d = 5
    h = 1e-5
    der = thermo_derivatives(dist, d, GibbsParams(alpha, beta))

    def moments(a, b):
        m = ensemble_moments(dist, d, GibbsParams(a, b))
        return m.n, m.u, m.omega

    for idx, (da, db) in enumerate(((h, 0.0), (0.0, h))):
        hi = moments(alpha + da, beta + db)
        lo = moments(alpha - da, beta - db)
        fd = [(a - b) / (2 * h) for a, b in zip(hi, lo)]
        got = [(der.dn_dalpha, der.dn_dbeta)[idx],
               (der.du_dalpha, der.du_dbeta)[idx],
               (der.domega_dalpha, der.domega_dbeta)[idx]]
        for g, f in zip(got, fd):
            assert g == pytest.approx(f, rel=rel, abs=abs_)


def test_phi_terms_one_kernel_call_per_node(monkeypatch):
    # the frozen integrand (f, eps f, log Z) takes all three from one fused
    # kernel call: at each end of a piece in closed form, per node of the
    # graded rule for a piece narrower than W_MIN
    calls = spy(monkeypatch, "_kernels", ensemble)
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
    calls = spy(monkeypatch, "_kernels", ensemble)
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
    calls = spy(monkeypatch, "_kernels", ensemble)
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

# draw 37 of acceptance criterion 9 (seed 23) and one of its Newton iterates
_DRAW_37 = Uniform(0.26617575643854896, 2.609572822647894)

#: (distribution, capacity, alpha, beta) whose forward moments invert back
_ROUND_TRIPS = [
    pytest.param(TwoPoint(1.0, 3.0, 0.4), 5, -2.0, 1.0, id="two-point"),
    pytest.param(Histogram((0.5, 1.5, 3.0), (0.6, 0.4)), 5, -1.8, 1.1, id="histogram"),
    # criterion 9's recipe at the rng fixture's seed
    *(pytest.param(dist, d, params.alpha, params.beta, id=f"random-{k}")
      for k, (dist, d, params) in enumerate(mixed_draws(20260808, 12))),
    pytest.param(_DRAW_37, 9, -3.9181784919889187, 1.6860635041223309,
                 id="criterion-9-draw-37"),
    # Uniform draws at d >= 500 from a wide box (d, alpha, beta from
    # default_rng(5)): every Newton iterate's quadrature must converge
    *(pytest.param(Uniform(0.5, 2.5), d, alpha, beta, id=f"large-capacity-{k}")
      for k, (d, alpha, beta) in enumerate([
          (1000, -5.21303680965688, 2.2909042757144293),
          (500, -4.335952010936178, 2.1420344924093686),
          (1000, -5.53252158840252, 4.320186408026348),
          (1000, -2.8555283254505675, 1.3229240970506315),
          (1000, -5.1834160853894655, 3.6994782378704425),
          (1000, -3.424257379799214, 2.8458429003662484),
          (500, -2.336842408994391, 1.1704229441634988),
      ])),
    *(pytest.param(TwoPoint(1.0, 3.0, p), d, alpha, beta, id=f"hard-two-point-{k}")
      for k, (p, d, alpha, beta) in enumerate([
          # benchmark seed 11's two draws: a grid scan's best point for them was
          # alpha = -29.76, beta = 26.61, where the upper atom is saturated and the
          # two Jacobian columns are exactly proportional; the computed start must
          # recover both without any restart
          (0.45796921522870127, 4, -3.3353891501705766, 1.781397186007004),
          (0.3204613724967316, 11, -2.444134568099622, 1.3315979595294662),
          # benchmark draws with the upper atom 95-100 % full: iterates that push
          # it to saturation make the Jacobian columns proportional, and a 1e-12
          # residual near saturation can still leave ~1e-8 of error in (alpha, beta)
          (0.5256548739362952, 8, 0.38351513137205373, 2.4745583222389516),
          (0.32034590869340157, 2, -3.462271241113557, 1.9669361812390944),
          (0.5785135458976106, 9, -3.304685425800258, 1.5993127205161375),
          (0.5583304524044435, 10, -3.1066570752886564, 1.5129974711727128),
      ])),
]


@pytest.mark.parametrize("dist, d, alpha, beta", _ROUND_TRIPS)
def test_inversion_round_trips(dist, d, alpha, beta):
    mom = ensemble_moments(dist, d, GibbsParams(alpha, beta))
    rec = invert_to_params(dist, d, mom.n, mom.u)
    assert abs(rec.alpha - alpha) < 1e-8
    assert abs(rec.beta - beta) < 1e-8


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


def test_derivatives_at_criterion_9_newton_iterate():
    # the Jacobian integrand crosses |lambda| (d+1) ~ 1e-2 here, where the
    # kernels' old round-off exceeded the quadrature's 1e-12 allowance
    params = GibbsParams(-22.944873451606554, 10.247197359556033)
    der = thermo_derivatives(_DRAW_37, 9, params)
    assert math.isfinite(der.jacobian) and der.jacobian != 0.0


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


def _zero_jacobian_after(monkeypatch, real_calls):
    """Make every Jacobian after the first ``real_calls`` exactly zero; the
    calls of ``_derivatives(dist, d, alpha, beta, m)``, as they run."""
    real = thermostatics._derivatives

    def zeroed(*args):
        der = real(*args)
        if len(points) <= real_calls:
            return der
        return 0.0, 0.0, 0.0, 0.0, der[4], der[5], 0.0, 0.0, 0.0

    points = spy(monkeypatch, "_derivatives", thermostatics, answer=zeroed)
    return points


def test_inversion_singular_at_start_raises(monkeypatch):
    points = _zero_jacobian_after(monkeypatch, 0)
    dist = TwoPoint(1.0, 3.0, 0.4)
    mom = ensemble_moments(dist, 5, GibbsParams(-2.0, 1.0))
    with pytest.raises(SingularInversion) as err:
        invert_to_params(dist, 5, mom.n, mom.u)
    assert len(points) == 1  # one computed start, no restart
    assert f"alpha={points[0][2]!r}" in str(err.value)
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
                                            "beta must be a finite number > 0, got inf") as err:
        invert_to_params(dist, 3, 1.0, -mid)
    # no residual exists yet, so the message names only (alpha, beta)
    assert "residual_n" not in str(err.value)
    assert str(err.value).endswith(f"(alpha={err.value.alpha!r}, beta=inf)")


@pytest.mark.parametrize("call", [invert_to_params, entropy_per_element])
def test_wide_histogram_start_is_no_convergence(call):
    # the two-point start's spread squares a bin midpoint 5e299 away from the
    # mean: inf, not an OverflowError.  The start is then off the parameter
    # domain and refused with the parameter record's own message
    with pytest.raises(NoConvergence, match=r"the moments at the starting point failed "
                                            r"\(alpha must be a finite number, got nan\)"):
        call(Histogram((0.0, 1.0, 1e300), (0.5, 0.5)), 1, 0.5, -1.0)


def test_inversion_halves_past_a_failing_trial(monkeypatch):
    # the first line-search trial's moments fail: the step is halved, and
    # the solve still converges
    real = thermostatics._scaled_residual

    def flaky(*args):
        if len(calls) == 2:
            raise ValidationError("the moments are not finite")
        return real(*args)

    calls = spy(monkeypatch, "_scaled_residual", thermostatics, answer=flaky)
    dist = TwoPoint(1.0, 3.0, 0.4)
    mom = ensemble_moments(dist, 5, GibbsParams(-2.0, 1.0))
    rec = invert_to_params(dist, 5, mom.n, mom.u)
    (a0, b0), (a1, b1), (a2, b2) = (args[2:4] for args in calls[:3])
    assert a2 - a0 == pytest.approx(0.5 * (a1 - a0), rel=1e-12)
    assert b2 - b0 == pytest.approx(0.5 * (b1 - b0), rel=1e-12)
    assert abs(rec.alpha + 2.0) < 1e-8 and abs(rec.beta - 1.0) < 1e-8


def _underflow_moments_on(monkeypatch, calls_to_zero):
    """Make the listed moment passes (1-based) report an occupancy of 0; the
    calls of ``_moments(dist, d, alpha, beta)``, as they run."""
    real = thermostatics._moments

    def zeroed(*args):
        m = real(*args)
        return [0.0, *m[1:]] if len(calls) in calls_to_zero else m

    calls = spy(monkeypatch, "_moments", thermostatics, answer=zeroed)
    return calls


def test_inversion_halves_past_an_underflowed_trial(monkeypatch):
    # n = 0 at the first line-search trial is refused before u = -m1 / n is
    # formed: the step is halved, and the solve still converges
    calls = _underflow_moments_on(monkeypatch, {2})
    dist = TwoPoint(1.0, 3.0, 0.4)
    mom = ensemble_moments(dist, 5, GibbsParams(-2.0, 1.0))
    rec = invert_to_params(dist, 5, mom.n, mom.u)
    (a0, b0), (a1, b1), (a2, b2) = (args[2:4] for args in calls[:3])
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
    jacobians = spy(monkeypatch, "_derivatives", thermostatics)
    invert_to_params(dist, 5, mom.n, mom.u)
    converged_at = len(jacobians)  # the last Jacobian is taken at the converged iterate
    assert converged_at >= 1
    monkeypatch.undo()

    real = thermostatics._derivatives

    def failing_at_convergence(*args):
        if len(points) < converged_at:
            return real(*args)
        if failure == "raises":
            raise ValidationError("the moments are not finite")
        return (0.0,) * 9

    points = spy(monkeypatch, "_derivatives", thermostatics, answer=failing_at_convergence)
    rec = invert_to_params(dist, 5, mom.n, mom.u)
    assert len(points) == converged_at
    assert rec == GibbsParams(*points[-1][2:4])
    assert abs(rec.alpha + 2.0) < 1e-8 and abs(rec.beta - 1.0) < 1e-8


def test_inversion_moment_evaluations_per_draw(monkeypatch):
    # criterion 9's draws (seed 23): a start scan would cost ~1700 each
    calls = spy(monkeypatch, "_moments", thermostatics)
    for k, (dist, d, params) in enumerate(mixed_draws(23, 50)):
        mom = ensemble_moments(dist, d, params)
        calls.clear()
        invert_to_params(dist, d, mom.n, mom.u)
        assert 1 <= len(calls) <= 40, (k, len(calls))


def test_inversion_integrates_each_point_once(monkeypatch):
    # an accepted iterate's Jacobian reuses the moment pass of its residual
    passes = spy(monkeypatch, "_moments", thermostatics)
    residuals = spy(monkeypatch, "_scaled_residual", thermostatics)
    for k, (dist, d, params) in enumerate(mixed_draws(23, 50)):
        mom = ensemble_moments(dist, d, params)
        passes.clear()
        residuals.clear()
        invert_to_params(dist, d, mom.n, mom.u)
        assert residuals, k
        assert len(passes) == len(residuals), (k, len(passes), len(residuals))


def test_cold_solve_takes_no_activity_root(monkeypatch):
    # the start estimates its activities from a closed form and two Newton
    # steps on the kernel, not from a Brent root
    roots = spy(monkeypatch, "activity_for_mean", thermostatics)
    for dist, d, params in mixed_draws(23, 50):
        mom = ensemble_moments(dist, d, params)
        invert_to_params(dist, d, mom.n, mom.u)
        entropy_per_element(dist, d, mom.n, mom.u)
    assert roots == []


def test_two_point_cold_solve_moment_passes(monkeypatch):
    # criterion 9's TwoPoint draws: the two-point start lies within about 1e-3
    # of the answer, so Newton needs at most 4 moment passes after the start's
    # own on average (3.04 measured; 6.96 from a start at beta0 = 1/(hi - lo))
    passes = spy(monkeypatch, "_moments", thermostatics)
    after_start = []
    for dist, d, params in mixed_draws(23, 50):
        if isinstance(dist, TwoPoint):
            mom = ensemble_moments(dist, d, params)
            passes.clear()
            invert_to_params(dist, d, mom.n, mom.u)
            after_start.append(len(passes) - 1)
    assert len(after_start) == 25
    assert sum(after_start) / len(after_start) <= 4.0, after_start


@pytest.mark.parametrize("seed, capacities", ROUND_TRIP_BOXES, ids=["d-to-1000", "d-to-1e6"])
def test_inversion_round_trips_over_the_capacity_range(seed, capacities):
    # a start at beta0 = 1/(hi - lo) raised SingularInversion on one draw of
    # each box and NoConvergence on one more at d >= 1e4; every draw now
    # solves (worst residuals measured: 2.4e-15 and 3.2e-15), and no draw's
    # forward moments raise.  Draws whose forward moments raise are skipped;
    # worst is the largest scaled residual of the forward moments at the
    # returned points
    solved, worst = 0, 0.0
    for dist, d, params in box_draws(seed, capacities):
        try:
            mom = ensemble_moments(dist, d, params)
        except ValidationError:
            continue
        back = ensemble_moments(dist, d, invert_to_params(dist, d, mom.n, mom.u))
        worst = max(worst, abs(back.n - mom.n) / mom.n, abs(back.u - mom.u) / abs(mom.u))
        solved += 1
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
    res, _ = thermostatics._scaled_residual(dist, 5, *points[1][2:4], mom.n, mom.u, abs(mom.u))
    assert max(map(abs, res)) > 1e-12
    assert f"alpha={points[1][2]!r}" in str(err.value)
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
    # oracle's, 3.5e-16 before), and when maxwell_check moved to central
    # differences of the forward map (2 records moved: the Maxwell reports,
    # records 146 and 148, now within 1.8e-11 of the same formula on exact
    # moments in every residual and 3.9e-6 in every order, see
    # test_maxwell_reports_match_an_mpmath_oracle); 6 of the 149 records are
    # errors (ValidationError, SingularInversion, NoConvergence), pinned with
    # their messages
    records = _solver_records()
    assert len(records) == 149
    errors = ("ValidationError:", "SingularInversion:", "NoConvergence:")
    assert sum(r.startswith(errors) for r in records) == 6
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == "b23494cd6ccb38a1e105082dd06c19bf23a1249653df623a89f49f8aaf11aa7e"


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
    points = spy(monkeypatch, "_moments", ensemble, thermostatics)
    thermo_state(_family(1.0), 5, GibbsParams(-2.0, 1.0), 100)
    assert [args[2:] for args in points] == [(-2.0, 1.0)]


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


@pytest.mark.parametrize("dist, d, passes", [
    (TwoPoint(1.0, 3.0, 0.4), 5, {"invert": 4, "state": 1, "maxwell": 9, "entropy": 4}),
    (Uniform(0.5, 2.5), 9, {"invert": 6, "state": 1, "maxwell": 9, "entropy": 6}),
])
def test_internals_build_no_records(monkeypatch, dist, d, passes):
    # a record is built only as a public call's return value: the solver, the
    # state and the Maxwell check run on floats, and a fixed phi takes no phi
    # terms.  The moment passes per call are pinned as they were measured
    # before this rule held, so that it cannot hide extra passes
    params = GibbsParams(-2.0, 1.0)
    mom = ensemble_moments(dist, d, params)
    counts = {"GibbsParams": spy(monkeypatch, "__init__", GibbsParams),
              "EnsembleMoments": spy(monkeypatch, "__init__", ensemble.EnsembleMoments),
              "_phi_terms": spy(monkeypatch, "_phi_terms", ensemble, thermostatics),
              "passes": spy(monkeypatch, "_moment_pass", ensemble)}
    calls = {"invert": lambda: invert_to_params(dist, d, mom.n, mom.u),
             "state": lambda: thermo_state(dist, d, params, 100),
             "maxwell": lambda: maxwell_check(dist, d, params, 100),
             "entropy": lambda: entropy_per_element(dist, d, mom.n, mom.u)}
    for name, call in calls.items():
        for spied in counts.values():
            spied.clear()
        call()
        built = {"GibbsParams": 1} if name == "invert" else {}
        got = {label: len(spied) for label, spied in counts.items() if spied}
        assert got == {"passes": passes[name], **built}, (name, got)


def test_atom_overflow_message():
    # an atom's lambda is checked inline; its overflow keeps the message of
    # the kernels' own check, and the share names the cost piece as given
    dist, params = TwoPoint(1.0, 1e300, 0.5), GibbsParams(-1.0, 1e300)
    with pytest.raises(ValidationError) as err:
        ensemble.moment_integrals(dist, 9, params)
    assert str(err.value) == "at alpha=-1.0, beta=1e+300: activity exponent must be finite, got inf"
    with pytest.raises(ValidationError) as err:
        fermi_market_share(dist, params)
    assert str(err.value) == ("at alpha=-1.0, beta=1e+300: the d = 1 moments over the cost "
                              "piece [1e+300, 1e+300] overflow")


def _log_power(factor, m, hi):
    """``factor`` to the power m >= 1 by squaring, as a ``hierarchy._log_convolve``
    factor with the coefficients of x^0 .. x^hi."""
    result = None
    while m:
        if m & 1:
            result = factor if result is None else hierarchy._log_convolve(
                result, factor, 0, min(hi, result[0] + factor[0]))
        m >>= 1
        if m:
            factor = hierarchy._log_convolve(factor, factor, 0, min(hi, 2 * factor[0]))
    return result


def _log_counts(beta, volume, hi):
    """log Z_N for N = 0 .. hi: the weight e^{beta sum eps k} summed over the
    ways to place N agents in 0.4 V companies at salary 1 and 0.6 V at salary
    3, each of d = 5 identical positions."""
    parts = [_log_power((5, 0, beta * eps * np.arange(6.0)), m, hi)
             for eps, m in ((1.0, 2 * volume // 5), (3.0, 3 * volume // 5))]
    return hierarchy._log_convolve(*parts, 0, hi)[2]


def _exact_count_gaps(dist, alpha, beta, a_width, bands, ratios):
    """The gaps of the exact count's alpha, u, omega, S and S - omega per
    company to thermo_state(dist, 5, (alpha, beta)) at V = 40, 160, 640 with
    N = 2V, omega and S with the saddle-point term added back (see the test
    below).  Checks each V x gap named in ``bands`` and each ratio of
    successive gaps named in ``ratios``; returns the gaps and the states."""
    h = 1e-5
    gaps, states = [], []
    for v in (40, 160, 640):
        n = 2 * v
        log_z = _log_counts(beta, v, n + 1)
        dlz = (_log_counts(beta + h, v, n)[n] - _log_counts(beta - h, v, n)[n]) / (2 * h)
        state = thermo_state(dist, 5, GibbsParams(alpha, beta), v)
        saddle = 0.5 * math.log(2 * math.pi * a_width * v) / v
        omega = (log_z[n] + alpha * n) / v + saddle - state.omega
        entropy = (log_z[n] - beta * dlz) / v + saddle - state.entropy_total / v
        gaps.append({"alpha": -(log_z[n + 1] - log_z[n - 1]) / 2 - alpha,
                     "u": -dlz / n - state.u, "omega": omega, "S": entropy,
                     "S - omega": entropy - omega})
        states.append(state)
        for name, (low, high) in bands.items():
            assert low <= v * gaps[-1][name] <= high, (v, name, v * gaps[-1][name])
    for wide, narrow in zip(gaps, gaps[1:]):
        for name, (low, high) in ratios.items():
            assert low <= wide[name] / narrow[name] <= high, (name, wide, narrow)
    return gaps, states


def test_thermostatics_approach_the_exact_count():
    # The paper's T, mu, p and S against an exact count: log Z_N of V
    # companies with N = 2V agents gives alpha = -d log Z_N / dN (central
    # difference at N +- 1), u = -(d log Z_N / d beta) / N (at beta +- 1e-5),
    # S = log Z_N - beta d log Z_N / d beta and omega = (log Z_N + alpha* N) / V,
    # compared with thermo_state at the alpha* where n = 2.  omega and S / V
    # differ by the count's saddle-point term -ln(2 pi A V) / (2V), A = dn/dalpha
    # (C. G. Darwin and R. H. Fowler, Phil. Mag. 44, 450, 1922), which is
    # added back.  Bands stated before the run, on V x gap: alpha in [-0.23,
    # -0.20], u in [-0.07, -0.055], |omega| <= 0.01, S in [-0.14, -0.12]; per
    # x4 in V the alpha, u and S gaps shrink by a factor in [3.7, 4.3], and
    # omega's, whose V x gap shrinks by about 4, by one in [12, 20]
    dist = TwoPoint(1.0, 3.0, 0.4)
    d, beta = 5, 1.0
    alpha = _increasing_root(lambda a: ensemble_moments(dist, d, GibbsParams(a, beta)).n, 2.0)
    a_width = 0.4 * gentile_mean_dlambda(alpha + beta, d) \
        + 0.6 * gentile_mean_dlambda(alpha + 3.0 * beta, d)
    bands = {"alpha": (-0.23, -0.20), "u": (-0.07, -0.055), "omega": (-0.01, 0.01),
             "S": (-0.14, -0.12)}
    ratios = {"alpha": (3.7, 4.3), "u": (3.7, 4.3), "omega": (12.0, 20.0), "S": (3.7, 4.3)}
    _exact_count_gaps(dist, alpha, beta, a_width, bands, ratios)


def test_exact_count_near_the_frozen_edge():
    # The comparison above at beta = 4, where the state sits at rho = 2.3e-4
    # of its strip u in (-3, -2.2) from the frozen edge u = -3: the level at
    # salary 1 holds f = 4.5e-4 agents per company.  The 1/V constants do not
    # grow there.  alpha's moves from -0.216 to -0.342, the first Edgeworth
    # term K3 / (2 A^2) of the ensemble (A and K3 the phi-averages of f' and
    # f''), now nearly the salary-3 level's alone; u's and S's shrink with rho,
    # from -0.064 to -1.2e-4 and from -0.128 to -9.8e-4; omega's gap stays
    # O(1/V^2) after the saddle-point term, and S carries that same term.
    # Bands set after a run to V = 2560 that showed the limits (alpha's V x
    # gap -0.3372, -0.3409, -0.3418 at V = 40, 160, 640, then -0.3420 at 2560;
    # u's -1.192e-4, -1.221e-4, -1.229e-4; S minus omega's -9.54e-4,
    # -9.77e-4, -9.83e-4): on V x gap, alpha in [-0.345, -0.335], u in
    # [-1.3e-4, -1.1e-4], |omega| <= 0.01 and S - omega in [-1.0e-3,
    # -0.9e-3]; per x4 in V the alpha and u gaps shrink by a factor in
    # [3.7, 4.3] and omega's by one in [12, 20]; at V = 640 alpha's is within
    # 1e-3 of K3 / (2 A^2) = -0.34212 (-0.21643 at beta = 1)
    dist = TwoPoint(1.0, 3.0, 0.4)
    d, beta = 5, 4.0
    alpha = _increasing_root(lambda a: ensemble_moments(dist, d, GibbsParams(a, beta)).n, 2.0)
    lams = ((0.4, alpha + beta), (0.6, alpha + 3.0 * beta))
    a_width = sum(w * gentile_mean_dlambda(lam, d) for w, lam in lams)
    k3 = sum(w * (gentile_mean_dlambda(lam + 1e-4, d) - gentile_mean_dlambda(lam - 1e-4, d))
             for w, lam in lams) / 2e-4
    bands = {"alpha": (-0.345, -0.335), "u": (-1.3e-4, -1.1e-4), "omega": (-0.01, 0.01),
             "S - omega": (-1.0e-3, -0.9e-3)}
    ratios = {"alpha": (3.7, 4.3), "u": (3.7, 4.3), "omega": (12.0, 20.0)}
    gaps, states = _exact_count_gaps(dist, alpha, beta, a_width, bands, ratios)
    for state in states:
        assert 0.0 < (state.u + 3.0) / 0.8 < 1e-3
    assert abs(640 * gaps[-1]["alpha"] - k3 / (2 * a_width * a_width)) <= 1e-3


def _log_splits(n, volume, d):
    """ln C_N, C_N the ways to split N into ``volume`` parts of at most d, by
    inclusion-exclusion over the parts that would exceed d, in exact integers."""
    return math.log(sum((-1) ** j * math.comb(volume, j)
                        * math.comb(n - j * (d + 1) + volume - 1, volume - 1)
                        for j in range(min(volume, n // (d + 1)) + 1)))


def test_point_mass_thermostatics_from_the_exact_count():
    # V companies of d = 50 positions at one salary eps0: Z_N = e^{beta eps0 N} C_N.
    # The count's activity is lambda_N = -(ln C_{N+1} - ln C_{N-1}) / 2 and its
    # p/T is omega_N = (ln C_N + lambda* N) / V plus the saddle-point term
    # ln(2 pi A V) / (2V), A = f'(lambda*), at the lambda* where the mean is N/V;
    # x = ln(d + 1) / omega_N is criterion 5's abscissa.  C_N is symmetric in
    # N -> Vd - N, so half filling gives lambda_N = 0 exactly and fill 0.9 the
    # negative of fill 0.1's.  Bands stated before the run, on V x gap: lambda
    # in +-[0.17, 0.19] at fills 0.1 and 0.9, omega in [-0.005, 0] at every
    # fill, x in [0, 0.005] at fill 0.1 and [0, 2e-4] at 0.9; per x4 in V the
    # lambda gap shrinks by a factor in [3.7, 4.3], the omega and x gaps by
    # one in [12, 20].  Without the saddle-point term V x (x gap) at fill 0.1
    # grows with V from above 5, like ln V.
    d, sizes = 50, (40, 160, 640)
    lam_count = {}
    for fill, lam_band, x_band in ((0.1, (0.17, 0.19), (0.0, 0.005)),
                                   (0.5, None, None),
                                   (0.9, (-0.19, -0.17), (0.0, 2e-4))):
        lam = activity_for_mean(d, fill * d)
        a_width = gentile_mean_dlambda(lam, d)
        x_exact = condensation_abscissa(d, fill)
        gaps, bare = [], []
        for v in sizes:
            n = round(fill * d * v)
            below, at, above = (_log_splits(m, v, d) for m in (n - 1, n, n + 1))
            lam_count[fill, v] = -(above - below) / 2
            bare.append((at + lam * n) / v)
            om = bare[-1] + 0.5 * math.log(2 * math.pi * a_width * v) / v
            gaps.append({"lambda": lam_count[fill, v] - lam,
                         "omega": om - log_partition(lam, d),
                         "x": math.log(d + 1) / om - x_exact})
            assert -0.005 <= v * gaps[-1]["omega"] <= 0.0, (fill, v, gaps[-1])
            if lam_band is not None:
                assert lam_band[0] <= v * gaps[-1]["lambda"] <= lam_band[1], (fill, v, gaps[-1])
                assert x_band[0] <= v * gaps[-1]["x"] <= x_band[1], (fill, v, gaps[-1])
        names = ("omega",) if lam_band is None else ("lambda", "omega", "x")
        for wide, narrow in zip(gaps, gaps[1:]):
            for name in names:
                low, high = (3.7, 4.3) if name == "lambda" else (12.0, 20.0)
                assert low <= wide[name] / narrow[name] <= high, (fill, name, wide, narrow)
        if fill == 0.1:
            x_bare = [v * (math.log(d + 1) / om - x_exact) for v, om in zip(sizes, bare)]
            assert 5.0 < x_bare[0] < x_bare[1] < x_bare[2], x_bare
    assert abs(activity_for_mean(d, 0.5 * d)) < 1e-12
    for v in sizes:
        assert lam_count[0.5, v] == 0.0
        assert lam_count[0.9, v] == -lam_count[0.1, v]


# --- maxwell relations -------------------------------------------------------

def test_maxwell_reference_state():
    rep = maxwell_check(TwoPoint(1.0, 3.0, 0.5), 5, GibbsParams(-2.0, 1.0), 100)
    assert all(r < 1e-4 for r in rep.residuals)
    assert all(o >= 1.8 for o in rep.orders)


def _atom_moments(mpmath, dist, d):
    """(n, m1, omega) of a TwoPoint at the floats (a, b), exactly, from the
    atoms' closed forms f(lambda) and log Z(lambda), lambda = a + b eps."""
    def moments(a, b):
        with mpmath.workdps(60):
            total = [0, 0, 0]
            for eps, w in ((dist.epsilon1, mpmath.mpf(dist.weight)),
                           (dist.epsilon2, 1 - mpmath.mpf(dist.weight))):
                log_z, f, _ = mp_kernels(mpmath, mpmath.mpf(a) + mpmath.mpf(b) * eps, d)
                total = [total[0] + w * f, total[1] + w * eps * f, total[2] + w * log_z]
            return total
    return moments


def _oracle_maxwell(mpmath, moments, alpha, beta, volume):
    """The residuals, half-step residuals and orders of :func:`maxwell_check`
    by its own formula at 40 digits, from exact moments at the same float
    abscissae and over the same float widths."""
    with mpmath.workdps(40):
        m = moments(alpha, beta)
        reports = []
        for h in (thermostatics.MAXWELL_STEP, 0.5 * thermostatics.MAXWELL_STEP):
            cols = []
            for da, db in ((h, 0.0), (0.0, h * beta)):
                plus, minus = moments(alpha + da, beta + db), moments(alpha - da, beta - db)
                width = 2.0 * (da + db)
                cols.append([(minus[1] - plus[1]) / width, (plus[0] - minus[0]) / width,
                             (plus[2] - minus[2]) / width])
            (nu_a, n_a, om_a), (nu_b, n_b, om_b) = cols
            k = mpmath.matrix([[nu_a, nu_b], [n_a, n_b]])
            grad = []
            for rhs in ((1, 0), (0, 1), (m[1], -m[0])):
                da, db = mpmath.lu_solve(k, mpmath.matrix(rhs) / volume)
                grad.append((db, da, om_a * da + om_b * db))
            (de_b, de_a, de_o), (dn_b, _, dn_o), (dv_b, dv_a, _) = grad
            pairs = ((dn_b, -de_a), (dv_b, de_o), (dn_o, -dv_a))
            reports.append([abs(a - b) / max(abs(a), abs(b)) for a, b in pairs])
        full, half = reports
        return full, half, [mpmath.log(f / g, 2) for f, g in zip(full, half)]


@pytest.mark.parametrize("dist, d", [(Uniform(0.5, 2.5), 9), (TwoPoint(1.0, 3.0, 0.5), 5)],
                         ids=["uniform", "two-point"])
def test_maxwell_reports_match_an_mpmath_oracle(dist, d):
    # the two Maxwell records of test_solver_results_bits_pinned against the
    # same formula on exact moments (test_closed_form's oracle for Uniform,
    # the atoms' closed forms for TwoPoint); bound set before the first run:
    # 1e-9 on each residual and 1e-2 on each order (measured: residuals
    # within 1.8e-11 and 4.2e-12, orders within 3.9e-6 and 6.9e-7)
    mpmath = pytest.importorskip("mpmath")
    if isinstance(dist, Uniform):
        from test_closed_form import _oracle_moments

        def moments(a, b):
            return _oracle_moments(mpmath, dist.lower, dist.upper, a, b, d)
    else:
        moments = _atom_moments(mpmath, dist, d)
    report = maxwell_check(dist, d, GibbsParams(-2.0, 1.0), 100)
    full, half, orders = _oracle_maxwell(mpmath, moments, -2.0, 1.0, 100)
    for got, exact, bound in ((report.residuals, full, 1e-9),
                              (report.residuals_half, half, 1e-9),
                              (report.orders, orders, 1e-2)):
        errors = [float(abs(g - e)) for g, e in zip(got, exact)]
        assert max(errors) <= bound, errors


def test_maxwell_takes_nine_moment_passes_and_no_inversion(monkeypatch):
    # the state's own pass and four per step (alpha and beta moved up and
    # down) at the step and at half step; no solve and no activity root
    passes = spy(monkeypatch, "_moments", ensemble, thermostatics)
    solves = spy(monkeypatch, "_solve", thermostatics)
    roots = spy(monkeypatch, "activity_for_mean", thermostatics)
    for dist, d in ((TwoPoint(1.0, 3.0, 0.5), 5), (Uniform(0.5, 2.5), 9)):
        passes.clear()
        maxwell_check(dist, d, GibbsParams(-2.0, 1.0), 100)
        assert len(passes) == 9, (dist, len(passes))
    assert solves == [] and roots == []


def _meets_criterion_8(report):
    return all(r < 1e-4 for r in report.residuals) and all(o >= 1.8 for o in report.orders)


@pytest.mark.parametrize("dist, d, alpha, beta", [
    (TwoPoint(1.0, 3.0, 0.4), 50, -1.0, 1.5),
    (TwoPoint(1.0, 3.0, 0.4), 50, -0.5, 1.5),
    (TwoPoint(1.0, 3.0, 0.4), 50, 0.0, 1.5),
    (TwoPoint(1.0, 3.0, 0.4), 9, -0.1, 1.5),
    (Histogram((0.0, 1.0, 4.0, 9.0), (0.2, 0.5, 0.3)), 1000, -3.0, 0.7),
], ids=["d50-a-1", "d50-a-0.5", "d50-a0", "d9-a-0.1", "histogram-d1000"])
def test_maxwell_near_saturation_meets_criterion_8(dist, d, alpha, beta):
    # n/d up to 0.9976: the (n, u) states a step away in E, N or V lie outside
    # the attainable strip, so a check that inverts them raises; the forward
    # map has no such states (measured: every residual <= 1.0e-5, orders 2.00)
    report = maxwell_check(dist, d, GibbsParams(alpha, beta), 100)
    assert _meets_criterion_8(report), report


def test_maxwell_on_the_thermo_sweep_grid():
    # the grid of the thermo group of tests/bits_sweep.py without the point
    # mass: every accepted state answers, and all but 10 meet criterion 8's
    # bounds (measured).  8 misses are at d = 1e6: 6 miss only on the order,
    # with residuals at the rounding floor, and 2 are truncation, the
    # Histogram((0, 1, 2, 4), (0.2, 0.5, 0.3)) at (alpha, beta) = (0, 1.5)
    # and (-1, 1), where a piece end sits at lambda = 0 and f climbs by
    # almost d across an activity width of 1/(d + 1), far inside the step.
    # The other 2 are orders of 1.76-1.77 at (-10, 0.3)
    accepted = meets = 0
    for dist in (Uniform(0.5, 2.5), TwoPoint(1.0, 3.0, 0.4),
                 Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3))):
        for d in (1, 3, 9, 50, 10**6):
            for alpha, beta in ((-3.0, 0.5), (-1.0, 1.0), (0.0, 1.5), (0.5, 2.0),
                                (-10.0, 0.3), (2.0, 1.0), (-800.0, 1.0)):
                params = GibbsParams(alpha, beta)
                try:
                    thermo_state(dist, d, params, 100)
                except HierstatError:
                    continue
                accepted += 1
                meets += _meets_criterion_8(maxwell_check(dist, d, params, 100))
    assert accepted == 90
    assert meets >= 77


def test_maxwell_singular_moment_jacobian_is_refused():
    # n/d = 0.9999996: the upper atom moves n by less than an ulp, so only the
    # lower one moves n and m1, and K is exactly rank one in floats; a
    # refusal, not a ZeroDivisionError
    with pytest.raises(SingularInversion, match="singular at alpha=0.0, beta=10.0"):
        maxwell_check(TwoPoint(1.0, 3.0, 0.4), 50, GibbsParams(0.0, 10.0), 100)


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
