"""Salary distribution variants: validation, JSON round trip, weighted pieces."""

import numpy as np
import pytest

from hierstat import (
    Delta,
    GibbsParams,
    Histogram,
    ParametricFamily,
    TwoPoint,
    Uniform,
    ValidationError,
    distribution_from_json,
    distribution_to_json,
)
from hierstat.distributions import _pieces, resolve, support
from hierstat.ensemble import _two_point_law


ALL_VARIANTS = [
    Delta(2.0),
    TwoPoint(1.0, 3.0, 0.4),
    Uniform(0.5, 2.5),
    Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3)),
]


@pytest.mark.parametrize("dist", ALL_VARIANTS)
def test_total_mass_is_one(dist):
    assert sum(mass for _, _, mass in _pieces(dist)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dist", ALL_VARIANTS)
def test_json_roundtrip(dist):
    assert distribution_from_json(distribution_to_json(dist)) == dist


def test_support_and_atoms():
    assert support(Delta(2.0)) == (2.0, 2.0)
    assert support(TwoPoint(3.0, 1.0, 0.4)) == (1.0, 3.0)
    assert support(Uniform(0.5, 2.5)) == (0.5, 2.5)
    assert support(Histogram((0.0, 1.0, 2.0), (0.0, 1.0))) == (1.0, 2.0)
    # an atom is a piece with lo == hi weighted exactly by its mass; a
    # density declares interval pieces only
    assert _pieces(Delta(2.0)) == ((2.0, 2.0, 1.0),)
    assert _pieces(TwoPoint(1.0, 3.0, 0.4)) == ((1.0, 1.0, 0.4), (3.0, 3.0, 1.0 - 0.4))
    assert _pieces(Uniform(0.0, 1.0)) == ((0.0, 1.0, 1.0),)


def _law_mean(dist):
    e1, e2, w = _two_point_law(dist)
    return w * e1 + (1.0 - w) * e2


def test_first_moment_per_variant():
    assert _law_mean(Delta(2.0)) == 2.0
    assert _law_mean(TwoPoint(1.0, 3.0, 0.4)) == pytest.approx(0.4 * 1 + 0.6 * 3, rel=1e-14)
    assert _law_mean(Uniform(0.5, 2.5)) == pytest.approx(1.5, rel=1e-12)
    hist = Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3))
    expected = 0.2 * 0.5 + 0.5 * 1.5 + 0.3 * 3.0
    assert _law_mean(hist) == pytest.approx(expected, rel=1e-12)


def test_two_point_law_matches_the_second_moment():
    # a TwoPoint is its own law; a density is matched by mean -/+ standard
    # deviation, weight 1/2 each, so its mean and variance are kept
    assert _two_point_law(TwoPoint(3.0, 1.0, 0.4)) == (3.0, 1.0, 0.4)
    assert _two_point_law(Delta(2.0)) == (2.0, 2.0, 0.5)
    hist = Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3))
    second = 0.2 * (1.0 / 3) + 0.5 * (7.0 / 3) + 0.3 * (28.0 / 3)  # mass (lo^2 + lo hi + hi^2) / 3
    for dist, mean, var in ((Uniform(0.5, 2.5), 1.5, 1.0 / 3),
                            (hist, _law_mean(hist), second - _law_mean(hist) ** 2)):
        e1, e2, w = _two_point_law(dist)
        assert w == 0.5 and e1 < e2
        assert 0.5 * (e1 + e2) == pytest.approx(mean, rel=1e-14)
        assert (0.5 * (e2 - e1)) ** 2 == pytest.approx(var, rel=1e-13)


def test_validation_failures():
    with pytest.raises(ValidationError):
        Delta(-1.0)
    with pytest.raises(ValidationError):
        TwoPoint(1.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        TwoPoint(1.0, 2.0, 1.0)
    with pytest.raises(ValidationError):
        Uniform(2.0, 1.0)
    with pytest.raises(ValidationError):
        Histogram((0.0, 1.0), (0.5,))  # mass not normalized
    with pytest.raises(ValidationError):
        Histogram((1.0, 0.5), (1.0,))  # edges not ascending


def test_validation_collects_all_violations():
    with pytest.raises(ValidationError) as err:
        TwoPoint(-1.0, -2.0, 3.0)
    assert len(err.value.violations) == 3


def test_json_errors_are_explicit():
    with pytest.raises(ValidationError):
        distribution_from_json({"type": "nope"})
    with pytest.raises(ValidationError) as err:
        distribution_from_json({"type": "two_point", "epsilon1": 1.0})
    assert any("epsilon2" in v for v in err.value.violations)
    assert any("weight" in v for v in err.value.violations)


def test_parametric_family_resolution():
    fam = ParametricFamily(lambda a, b: TwoPoint(1.0, 3.0, 0.3 + 0.1 * np.tanh(a)))
    assert isinstance(fam, ParametricFamily)
    params = GibbsParams(0.0, 1.0)
    concrete = resolve(fam, params)
    assert concrete == TwoPoint(1.0, 3.0, 0.3)
    assert resolve(concrete, params) is concrete
