"""Deterministic tables behind the seven standard charts.

1 occupied share of capacity-1 states vs cost (falling sigmoid)
2 occupied share of capacity-1 states vs salary (rising sigmoid)
3 mean level population vs activity, several capacities
4 the same, relative to capacity
5 equation of state: pressure over temperature vs filling
6 shifted financial potential over temperature vs filling
7 filling vs temperature in condensation units

Each builder returns (header, rows, svg) with the activity grids pinned
so the tables regenerate byte for byte.  Figures 5-7 share one builder and
differ only in the ends of their activity grids and the row of each point.
"""

from __future__ import annotations

import math

from .errors import ValidationError
from .gentile import (
    EnergySign,
    GibbsParams,
    OccupancyLevel,
    _grid,
    _increasing_root,
    activity,
    activity_for_mean,
    eos_sweep,
    fermi_dirac,
    gentile_mean,
    log_partition,
)
from .svgplot import line_chart

__all__ = ["FIGURE_IDS", "EOS_D_VALUES", "build_figure"]

FIGURE_IDS = (1, 2, 3, 4, 5, 6, 7)

#: capacities swept by the equation-of-state figures
EOS_D_VALUES = (1, 5, 50, 500, 5000, 50000)

_OVERLAY_D_VALUES = (1, 2, 5, 20)


def _share(sign: EnergySign, alpha: float):
    """Figures 1 and 2: occupied share of capacity-1 states vs their cost or salary."""
    params = GibbsParams(alpha, 1.0)
    eps = _grid(0.0, 10.0, 201)
    share = [fermi_dirac(activity(OccupancyLevel(1, e, sign), params))
             for e in eps]
    svg = line_chart([("occupied share", eps, share)],
                     x_label=f"{sign.value} epsilon", y_label="occupied share",
                     title=f"Share of occupied capacity-1 states vs {sign.value}")
    return ("epsilon", "share"), list(zip(eps, share)), svg


def _overlay(relative: bool):
    lams = _grid(-10.0, 10.0, 401)
    columns = []
    for d in _OVERLAY_D_VALUES:
        vals = [gentile_mean(l, d) for l in lams]
        columns.append([v / d for v in vals] if relative else vals)
    prefix = "rel" if relative else "f_g"
    header = ("lambda",) + tuple(f"{prefix}_d{d}" for d in _OVERLAY_D_VALUES)
    rows = list(zip(lams, *columns))
    series = [(f"d={d}", lams, c) for d, c in zip(_OVERLAY_D_VALUES, columns)]
    y = "mean population / d" if relative else "mean population"
    svg = line_chart(series, x_label="activity lambda", y_label=y,
                     title="Level population vs activity")
    return header, rows, svg


def _solve_omega(d: int, target: float) -> float:
    """Activity at which log Z equals ``target`` (log Z is increasing)."""
    return _increasing_root(lambda l: log_partition(l, d), target)


def _filling_ends(d: int):
    """Figures 5 and 6 run from filling 1e-3/d to 0.99."""
    return activity_for_mean(d, 1e-3), activity_for_mean(d, 0.99 * d)


def _condensation_ends(d: int):
    """Figure 7 runs from x = 2 to x = 0.4."""
    return _solve_omega(d, math.log1p(d) / 2.0), _solve_omega(d, math.log1p(d) / 0.4)


def _eos_figure(ends, row, header, x_label, y_label, title):
    """Figures 5-7: ``row(d, lambda, n/d, omega, x)`` at each point of every
    capacity's equation-of-state grid, 301 activities from ``ends(d)`` and
    lambda = 0; each chart plots the last column of its rows against the one before."""
    rows = []
    series = []
    for d in EOS_D_VALUES:
        table = eos_sweep(d, _grid(*ends(d), 301, zero=True))
        block = [row(d, *p) for p in zip(table.lam, table.n_over_d, table.p_over_T, table.x)]
        rows.extend(block)
        series.append((f"d={d}", *zip(*(r[-2:] for r in block))))
    svg = line_chart(series, x_label=x_label, y_label=y_label, title=title)
    return header, rows, svg


_BUILDERS = {1: lambda: _share(EnergySign.COST, 5.0),
             2: lambda: _share(EnergySign.SALARY, -5.0),
             3: lambda: _overlay(False), 4: lambda: _overlay(True),
             5: lambda: _eos_figure(_filling_ends,
                                    lambda d, l, v, o, x: (d, l, v * d, v * d / d, o),
                                    ("d", "lambda", "n_over_V", "n_over_Vd", "p_over_T"),
                                    "N/(Vd)", "p/T", "Thermal equation of state"),
             6: lambda: _eos_figure(_filling_ends, lambda d, l, v, o, x: (d, l, v * d / d, l),
                                    ("d", "lambda", "n_over_Vd", "mu_shifted_over_T"), "N/(Vd)",
                                    "(epsilon0 + mu)/T", "Financial potential vs filling"),
             7: lambda: _eos_figure(_condensation_ends, lambda d, l, v, o, x: (d, l, x, v),
                                    ("d", "lambda", "x", "n_over_d"), "(T/p) ln(d+1)",
                                    "N/(Vd)", "Condensation of a common-salary level")}


def build_figure(fig_id: int):
    """(header, rows, svg) for one figure id."""
    if isinstance(fig_id, bool) or fig_id not in _BUILDERS:
        raise ValidationError(
            f"figure id must be one of {FIGURE_IDS}, got {fig_id!r}")
    return _BUILDERS[fig_id]()
