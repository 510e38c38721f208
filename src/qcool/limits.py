"""Cooling-limit boundaries, their numerical cross-checks, and sweeps.

Two closed-form critical success probabilities are provided: the
unconditional one, a function of the environment excitation p_T alone,
and the conditional (heralded) one, a function of the joint error
P_TL = p_T * P_L alone.  `critical_ps_numeric` locates the same
boundaries independently by bisection on the minimum partial-transpose
eigenvalue of the explicitly constructed states, and `sweep` evaluates
grids of (p_T, P_L, P_S) points into flat records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .channel import (
    GROUND,
    ChannelParams,
    conditional_state,  # importable from here, as before
    conditional_states,
    project_b_states,
    tripartite_states,
    unconditional_states,
)
from .entanglement import pt_spectrum, spectrum_negativity
from .qmat import check_states

BISECTION_TOL = 1e-8

#: Grid points `sweep` evaluates per stacked call.  Evaluating a chunk
#: allocates about 700 bytes of stacked temporaries per feasible point on
#: top of its records (tracemalloc, 2048 feasible points), so the
#: temporaries stay near 1.4 MB whatever the grid size.  On the default
#: `surface` grid, chunks of 256 to 32768 points ran equally fast.
SWEEP_CHUNK = 2048


class BracketError(RuntimeError):
    """No sign change of the minimum PT eigenvalue over the feasible bracket."""


@dataclass(frozen=True)
class LimitVerdict:
    unconditional_ok: bool
    conditional_ok: bool
    uncond_boundary_ps: float
    cond_boundary_ps: float


@dataclass(frozen=True)
class SweepRecord:
    """One evaluated grid point; the row type of the sweep data files."""

    p_t: float
    p_s: float
    p_l: float
    p_tl: float
    verdicts: LimitVerdict
    numeric_negativity: float
    feasible: bool


def uncond_boundary(p_t: float) -> float:
    """Critical P_S without heralding; the channel is quantum iff P_S
    strictly exceeds it.  Equals sqrt(p(1-p)) / (1 + sqrt(p(1-p)))."""
    if not 0.0 <= p_t <= 0.5:
        raise ValueError(f"p_t={p_t} outside [0, 1/2]")
    q = math.sqrt(p_t * (1.0 - p_t))
    return q / (1.0 + q)


def uncond_approx_ok(p_s: float, p_t: float) -> bool:
    """Small-p_T criterion: true iff p_T / P_S^2 < 1 (strict; round-off
    ties at the boundary count as failing)."""
    _check_unit("p_s", p_s)
    _check_unit("p_t", p_t)
    return p_t < p_s * p_s * (1.0 - 1e-12)


def cond_boundary(p_tl: float) -> float:
    """Critical P_S with heralding on the auxiliary output, as a function
    of the joint error P_TL = p_T * P_L:

        (sqrt(P_TL (4 - 3 P_TL)) - P_TL) / 2

    Zero at P_TL = 0 and at most 1/3 (attained at P_TL = 1/3)."""
    if not 0.0 <= p_tl <= 1.0:
        raise ValueError(f"p_tl={p_tl} outside [0, 1]")
    return (math.sqrt(p_tl * (4.0 - 3.0 * p_tl)) - p_tl) / 2.0


def cond_approx_ok(p_s: float, p_t: float, p_l: float) -> bool:
    """Small-p_T heralded criterion: true iff (p_T P_L) / P_S^2 < 1
    (strict; round-off ties count as failing)."""
    _check_unit("p_s", p_s)
    _check_unit("p_t", p_t)
    _check_unit("p_l", p_l)
    return p_t * p_l < p_s * p_s * (1.0 - 1e-12)


def high_temp_boundary(p_l: float) -> float:
    """Hot-environment (p_T ~ 1/2), small-loss critical P_S: sqrt(P_L/2)."""
    _check_unit("p_l", p_l)
    return math.sqrt(p_l / 2.0)


def _check_unit(name: str, v: float) -> None:
    if not (math.isfinite(v) and 0.0 <= v <= 1.0):
        raise ValueError(f"{name}={v} outside [0, 1]")


def _closure(p_s: np.ndarray, p_l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_F = max(1 - P_S - P_L, 0) of each point, and whether the triple
    sums to 1 within the 1e-12 that `ChannelParams` allows."""
    p_f = np.maximum(1.0 - p_s - p_l, 0.0)
    return p_f, np.abs(p_s + p_f + p_l - 1.0) <= 1e-12


def _flip_probability(p_s: np.ndarray, p_l: np.ndarray) -> np.ndarray:
    """P_F of each point, each triple checked as `ChannelParams` checks one."""
    p_f, ok = _closure(p_s, p_l)
    for v in (p_s, p_f, p_l):
        ok &= (0.0 <= v) & (v <= 1.0)
    if not ok.all():
        i = int(np.argmin(ok))
        ChannelParams(float(p_s[i]), float(p_f[i]), float(p_l[i]))  # raises
    return p_f


def _min_pt_eig_uncond(p_s: np.ndarray, p_t: float) -> np.ndarray:
    states = unconditional_states(p_s, p_t)
    check_states(states)
    return pt_spectrum(states)[..., 0]


def _min_pt_eig_cond(p_s: np.ndarray, p_l: float, p_t: float) -> np.ndarray:
    p_l = np.full_like(p_s, p_l)
    rho8 = tripartite_states(p_s, _flip_probability(p_s, p_l), p_l, p_t)
    heralded, _ = project_b_states(rho8, GROUND)
    check_states(heralded)
    return pt_spectrum(heralded)[..., 0]


def critical_ps_numeric(
    p_t: float,
    p_l: float = 0.0,
    which: Literal["unconditional", "conditional"] = "unconditional",
) -> float:
    """Locate the critical P_S by bisection on the minimum PT eigenvalue.

    For the conditional case the closure P_F = 1 - P_S - P_L is applied at
    every trial point and the bracket is [0, 1 - P_L].  Monotonicity of the
    eigenvalue in P_S is verified on the bracket before bisecting; a
    missing sign change raises BracketError reporting whether the feasible
    range is entirely entangled or entirely separable.
    """
    if not 0.0 < p_t <= 0.5:
        raise ValueError(f"p_t={p_t} outside (0, 1/2]")
    if not 0.0 <= p_l < 1.0:
        raise ValueError(f"p_l={p_l} outside [0, 1)")
    if which == "unconditional":
        f = lambda ps: _min_pt_eig_uncond(ps, p_t)
        lo, hi = 0.0, 1.0
    elif which == "conditional":
        f = lambda ps: _min_pt_eig_cond(ps, p_l, p_t)
        lo, hi = 0.0, 1.0 - p_l
    else:
        raise ValueError(f"unknown boundary kind {which!r}")

    # The nine bracket samples are one stack; each bisection step is a
    # stack of one.
    samples = f(np.array([lo + (hi - lo) * k / 8.0 for k in range(9)])).tolist()
    # Negativity (the clipped eigenvalue) must grow with P_S for the root
    # to be unique; the positive branch itself may wander.
    clipped = [min(s, 0.0) for s in samples]
    if any(b > a + 1e-9 for a, b in zip(clipped, clipped[1:])):
        raise BracketError("negativity is not monotone in P_S over the bracket")
    f_lo, f_hi = samples[0], samples[-1]
    if f_lo < 0.0:
        raise BracketError("always entangled over feasible P_S")
    if f_hi >= 0.0:
        raise BracketError("never entangled over feasible P_S")
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if f(np.array([mid]))[0] < 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class GridSpec:
    """Axis values for a sweep over (p_T, P_L, P_S)."""

    p_t_values: tuple[float, ...]
    p_l_values: tuple[float, ...]
    p_s_values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "p_t_values", tuple(float(v) for v in self.p_t_values))
        object.__setattr__(self, "p_l_values", tuple(float(v) for v in self.p_l_values))
        object.__setattr__(self, "p_s_values", tuple(float(v) for v in self.p_s_values))
        for v in self.p_t_values:
            if not 0.0 <= v <= 0.5:
                raise ValueError(f"grid p_t={v} outside [0, 1/2]")
        for name, values in (("p_l", self.p_l_values), ("p_s", self.p_s_values)):
            for v in values:
                _check_unit(f"grid {name}", v)

    @staticmethod
    def from_ranges(
        p_t: tuple[float, float, int],
        p_l: tuple[float, float, int],
        p_s: tuple[float, float, int],
    ) -> "GridSpec":
        """Inclusive linspace per axis; a count of 1 pins the start value."""

        def axis(lo, hi, n):
            if n < 0:
                raise ValueError("step count must be >= 0")
            if n <= 1:
                return (float(lo),) * n
            return tuple(np.linspace(lo, hi, n))

        return GridSpec(axis(*p_t), axis(*p_l), axis(*p_s))

    def points(self) -> list[tuple[float, float, float]]:
        """Grid points sorted lexicographically by (P_L, p_T, P_S)."""
        pts = [
            (p_l, p_t, p_s)
            for p_l in self.p_l_values
            for p_t in self.p_t_values
            for p_s in self.p_s_values
        ]
        pts.sort()
        return [(p_t, p_l, p_s) for (p_l, p_t, p_s) in pts]


def _evaluate(points: list[tuple[float, float, float]]) -> list[SweepRecord]:
    """Evaluate (p_T, P_L, P_S) points: closed-form verdicts per point, the
    heralded states of the feasible ones as one validated stack and their
    negativities from one stacked PT spectrum."""
    bounds = [(uncond_boundary(p_t), cond_boundary(p_t * p_l)) for p_t, p_l, _ in points]
    p_t, p_l, p_s = np.array(points, dtype=float).reshape(-1, 3).T
    # Feasible means the closure passes `ChannelParams`'s check, so
    # P_S + P_L may exceed 1 by at most 1e-12 after rounding.
    feasible = _closure(p_s, p_l)[1]
    f_s, f_l = p_s[feasible], p_l[feasible]
    states, _ = conditional_states(f_s, _flip_probability(f_s, f_l), f_l, p_t[feasible])
    check_states(states)
    negativities = iter(spectrum_negativity(pt_spectrum(states)).tolist())
    return [
        SweepRecord(
            p_t=p_t,
            p_s=p_s,
            p_l=p_l,
            p_tl=p_t * p_l,
            verdicts=LimitVerdict(
                unconditional_ok=p_s > ub,
                conditional_ok=p_s > cb,
                uncond_boundary_ps=ub,
                cond_boundary_ps=cb,
            ),
            numeric_negativity=next(negativities) if ok else math.nan,
            feasible=ok,
        )
        for (p_t, p_l, p_s), (ub, cb), ok in zip(points, bounds, feasible.tolist())
    ]


def evaluate_point(p_t: float, p_l: float, p_s: float) -> SweepRecord:
    """Evaluate closed-form verdicts and the numeric negativity of the
    heralded state at one grid point.  Infeasible points (P_S + P_L > 1
    beyond the 1e-12 closure tolerance) are flagged and carry NaN
    negativity.  Out-of-range or NaN coordinates raise ValueError, as
    they do on a `GridSpec` axis."""
    return _evaluate(GridSpec((p_t,), (p_l,), (p_s,)).points())[0]


def sweep(grid: GridSpec) -> list[SweepRecord]:
    """Evaluate every grid point, in the (P_L, p_T, P_S) order of
    `GridSpec.points`, `SWEEP_CHUNK` points per stacked evaluation."""
    points = grid.points()
    return [
        record
        for start in range(0, len(points), SWEEP_CHUNK)
        for record in _evaluate(points[start:start + SWEEP_CHUNK])
    ]
