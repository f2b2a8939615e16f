"""Salary distribution variants: validation, JSON round trip, integration."""

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
from hierstat.distributions import resolve, support
from hierstat.ensemble import integrate_against


ALL_VARIANTS = [
    Delta(2.0),
    TwoPoint(1.0, 3.0, 0.4),
    Uniform(0.5, 2.5),
    Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3)),
]


@pytest.mark.parametrize("dist", ALL_VARIANTS)
def test_total_mass_is_one(dist):
    assert integrate_against(dist, lambda e: 1.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dist", ALL_VARIANTS)
def test_json_roundtrip(dist):
    assert distribution_from_json(distribution_to_json(dist)) == dist


def test_support_and_atoms():
    assert support(Delta(2.0)) == (2.0, 2.0)
    assert support(TwoPoint(3.0, 1.0, 0.4)) == (1.0, 3.0)
    assert support(Uniform(0.5, 2.5)) == (0.5, 2.5)
    assert support(Histogram((0.0, 1.0, 2.0), (0.0, 1.0))) == (1.0, 2.0)
    # an atom is weighted exactly by its mass; a density has no atoms
    def at(*points):
        return lambda e: [float(e == p) for p in points]
    assert integrate_against(Delta(2.0), at(2.0)) == 1.0
    assert integrate_against(TwoPoint(1.0, 3.0, 0.4), at(1.0, 3.0)).tolist() \
        == [0.4, 1.0 - 0.4]
    assert integrate_against(Uniform(0.0, 1.0), at(0.0, 1.0)).tolist() == [0.0, 0.0]


def test_first_moment_per_variant():
    assert integrate_against(Delta(2.0), lambda e: e) == 2.0
    assert integrate_against(TwoPoint(1.0, 3.0, 0.4), lambda e: e) \
        == pytest.approx(0.4 * 1 + 0.6 * 3, rel=1e-14)
    assert integrate_against(Uniform(0.5, 2.5), lambda e: e) \
        == pytest.approx(1.5, rel=1e-12)
    hist = Histogram((0.0, 1.0, 2.0, 4.0), (0.2, 0.5, 0.3))
    expected = 0.2 * 0.5 + 0.5 * 1.5 + 0.3 * 3.0
    assert integrate_against(hist, lambda e: e) == pytest.approx(expected, rel=1e-12)


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
