"""Cooling-limit boundaries, their numerical cross-checks, and sweeps.

Two closed-form critical success probabilities are provided: the
unconditional one, a function of the environment excitation p_T alone,
and the conditional (heralded) one, a function of the joint error
P_TL = p_T * P_L alone.  `critical_ps_numeric` locates the same
boundaries independently by bisection on the minimum partial-transpose
eigenvalue of the explicitly constructed states, and `sweep` evaluates
grids of (p_T, P_L, P_S) points into one table of columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

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

#: Trial points per stacked call of `critical_ps_lanes` after the bracket
#: check: n active lanes each evaluate the 2**d - 1 midpoints of their
#: next d halvings, with the largest d >= 1 that keeps n (2**d - 1) within
#: it.  A lone lane takes d = 4 (15 points); 16 or more lanes halve once
#: per call.
BISECTION_STACK = 16

#: Grid points `sweep` evaluates per stacked call.  The build, check and
#: spectrum of a chunk's feasible points allocate about 920 bytes per point
#: (tracemalloc, 2048 feasible points), so they stay near 1.9 MB whatever
#: the grid size.  On the default `surface` grid, chunks of 256 to 32768
#: points ran within 15% of each other.
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
    """One evaluated grid point."""

    p_t: float
    p_s: float
    p_l: float
    p_tl: float
    verdicts: LimitVerdict
    numeric_negativity: float
    feasible: bool


class SweepTable(NamedTuple):
    """Evaluated grid points as 1-D columns, a row per point."""

    p_t: np.ndarray
    p_s: np.ndarray
    p_l: np.ndarray
    p_tl: np.ndarray
    uncond_boundary_ps: np.ndarray
    cond_boundary_ps: np.ndarray
    unconditional_ok: np.ndarray
    conditional_ok: np.ndarray
    numeric_negativity: np.ndarray
    feasible: np.ndarray


def _uncond(p_t):
    """`uncond_boundary` of a float or, elementwise, of an array."""
    q = np.sqrt(p_t * (1.0 - p_t))
    return q / (1.0 + q)


def uncond_boundary(p_t: float) -> float:
    """Critical P_S without heralding; the channel is quantum iff P_S
    strictly exceeds it.  Equals sqrt(p(1-p)) / (1 + sqrt(p(1-p)))."""
    if not 0.0 <= p_t <= 0.5:
        raise ValueError(f"p_t={p_t} outside [0, 1/2]")
    return float(_uncond(p_t))


def uncond_approx_ok(p_s: float, p_t: float) -> bool:
    """Small-p_T criterion: true iff p_T / P_S^2 < 1 (strict; round-off
    ties at the boundary count as failing)."""
    _check_unit("p_s", p_s)
    _check_unit("p_t", p_t)
    return p_t < p_s * p_s * (1.0 - 1e-12)


def _cond(p_tl):
    """`cond_boundary` of a float or, elementwise, of an array."""
    return (np.sqrt(p_tl * (4.0 - 3.0 * p_tl)) - p_tl) / 2.0


def cond_boundary(p_tl: float) -> float:
    """Critical P_S with heralding on the auxiliary output, as a function
    of the joint error P_TL = p_T * P_L:

        (sqrt(P_TL (4 - 3 P_TL)) - P_TL) / 2

    Zero at P_TL = 0 and at most 1/3 (attained at P_TL = 1/3)."""
    if not 0.0 <= p_tl <= 1.0:
        raise ValueError(f"p_tl={p_tl} outside [0, 1]")
    return float(_cond(p_tl))


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


def _min_pt_eig(
    p_s: np.ndarray, p_t: np.ndarray, p_l: np.ndarray, which: str
) -> np.ndarray:
    """Minimum PT eigenvalue of the unconditional or heralded state at
    each point, from one validated stack."""
    if which == "unconditional":
        states = unconditional_states(p_s, p_t)
    else:
        rho8 = tripartite_states(p_s, _flip_probability(p_s, p_l), p_l, p_t)
        states, _ = project_b_states(rho8, GROUND)
    check_states(states)
    return pt_spectrum(states)[..., 0]


def _midpoints(lo: float, hi: float, depth: int) -> list[float]:
    """The 2**depth - 1 midpoints the next `depth` halvings of [lo, hi]
    can visit, in heap order: the children of entry k are the midpoints
    of its lower and upper halves, at 2k + 1 and 2k + 2."""
    heap, intervals = [], [(lo, hi)]
    for _ in range(depth):
        halves = []
        for a, b in intervals:
            mid = 0.5 * (a + b)
            heap.append(mid)
            halves += [(a, mid), (mid, b)]
        intervals = halves
    return heap


def critical_ps_lanes(
    p_t,
    p_l=0.0,
    which: Literal["unconditional", "conditional"] = "unconditional",
) -> np.ndarray:
    """`critical_ps_numeric` for broadcast arrays of p_T and P_L (the
    lanes); returns the critical P_S of every lane in their shape.

    Every stacked state build, `check_states` and PT spectrum call covers
    all lanes still bisecting.  The nine bracket samples of each lane go
    into one call.  Each later call holds the 2**d - 1 midpoints of every
    active lane's next d halvings, with d = floor(log2(BISECTION_STACK /
    n_active + 1)) and at least 1, and each lane then walks its own
    midpoints until it meets `BISECTION_TOL`.  The midpoints come from the
    same `0.5 * (lo + hi)` recursion as one halving at a time, so a lane's
    result does not depend on d or on the other lanes.  The first lane
    without a sign change raises BracketError.
    """
    p_t, p_l = np.broadcast_arrays(np.asarray(p_t, dtype=float), np.asarray(p_l, dtype=float))
    shape = p_t.shape
    p_t, p_l = p_t.ravel(), p_l.ravel()
    for t, l in zip(p_t.tolist(), p_l.tolist()):
        if not 0.0 < t <= 0.5:
            raise ValueError(f"p_t={t} outside (0, 1/2]")
        if not 0.0 <= l < 1.0:
            raise ValueError(f"p_l={l} outside [0, 1)")
    if which == "unconditional":
        hi = [1.0] * p_t.size
    elif which == "conditional":
        hi = (1.0 - p_l).tolist()
    else:
        raise ValueError(f"unknown boundary kind {which!r}")
    lo = [0.0] * p_t.size  # each lane's bracket is [0, hi]

    def evaluate(lanes: list[int], points: list[list[float]]) -> list[list[float]]:
        """Minimum PT eigenvalue at each lane's points, in one stacked call."""
        sizes = [len(p) for p in points]
        at = np.repeat(np.array(lanes, dtype=int), sizes)
        flat = np.array([x for p in points for x in p], dtype=float)
        values = iter(_min_pt_eig(flat, p_t[at], p_l[at], which).tolist())
        return [[next(values) for _ in range(n)] for n in sizes]

    lanes = list(range(p_t.size))
    for samples in evaluate(lanes, [[h * k / 8.0 for k in range(9)] for h in hi]):
        # Negativity (the clipped eigenvalue) must grow with P_S for the
        # root to be unique; the positive branch itself may wander.
        clipped = [min(s, 0.0) for s in samples]
        if any(b > a + 1e-9 for a, b in zip(clipped, clipped[1:])):
            raise BracketError("negativity is not monotone in P_S over the bracket")
        if samples[0] < 0.0:
            raise BracketError("always entangled over feasible P_S")
        if samples[-1] >= 0.0:
            raise BracketError("never entangled over feasible P_S")

    active = lanes
    while active := [i for i in active if hi[i] - lo[i] > BISECTION_TOL]:
        depth = max(1, int(math.log2(BISECTION_STACK / len(active) + 1)))
        heaps = [_midpoints(lo[i], hi[i], depth) for i in active]
        for i, heap, values in zip(active, heaps, evaluate(active, heaps)):
            k = 0
            while k < len(heap) and hi[i] - lo[i] > BISECTION_TOL:
                if values[k] < 0.0:
                    hi[i], k = heap[k], 2 * k + 1
                else:
                    lo[i], k = heap[k], 2 * k + 2
    return np.array([0.5 * (a + b) for a, b in zip(lo, hi)]).reshape(shape)


def critical_ps_numeric(
    p_t: float,
    p_l: float = 0.0,
    which: Literal["unconditional", "conditional"] = "unconditional",
) -> float:
    """Locate the critical P_S by bisection on the minimum PT eigenvalue;
    one lane of `critical_ps_lanes`.

    For the conditional case the closure P_F = 1 - P_S - P_L is applied at
    every trial point and the bracket is [0, 1 - P_L].  Monotonicity of the
    eigenvalue in P_S is verified on the bracket before bisecting; a
    missing sign change raises BracketError reporting whether the feasible
    range is entirely entangled or entirely separable.
    """
    return float(critical_ps_lanes(p_t, p_l, which))


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


def evaluate_point(p_t: float, p_l: float, p_s: float) -> SweepRecord:
    """The row of a one-point `sweep` as a record of Python floats and
    bools.  Out-of-range or NaN coordinates raise ValueError, as they do
    on a `GridSpec` axis."""
    table = sweep(GridSpec((p_t,), (p_l,), (p_s,)))
    p_t, p_s, p_l, p_tl, ub, cb, u_ok, c_ok, neg, ok = (col.item() for col in table)
    return SweepRecord(p_t, p_s, p_l, p_tl, LimitVerdict(u_ok, c_ok, ub, cb), neg, ok)


def sweep(grid: GridSpec) -> SweepTable:
    """Evaluate every grid point: the closed-form boundaries and verdicts
    as array expressions, and the heralded state's negativity, NaN where
    P_S + P_L > 1 beyond the 1e-12 closure tolerance; each `SWEEP_CHUNK`
    points' feasible ones are one validated stack and PT spectrum.  Rows
    are in (P_L, p_T, P_S) order by a stable sort, so points that compare
    equal (a repeated axis value, -0.0 beside 0.0) keep their product order."""
    axes = (grid.p_l_values, grid.p_t_values, grid.p_s_values)
    l, t, s = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    order = np.lexsort((s, t, l))
    p_t, p_l, p_s = t[order], l[order], s[order]
    p_tl = p_t * p_l
    ub, cb = _uncond(p_t), _cond(p_tl)
    # Feasible means the closure passes `ChannelParams`'s check, so
    # P_S + P_L may exceed 1 by at most 1e-12 after rounding.
    feasible = _closure(p_s, p_l)[1]
    negativity = np.full(p_s.shape, math.nan)
    for start in range(0, p_s.size, SWEEP_CHUNK):
        at = start + np.flatnonzero(feasible[start:start + SWEEP_CHUNK])
        f_s, f_l = p_s[at], p_l[at]
        states, _ = conditional_states(f_s, _flip_probability(f_s, f_l), f_l, p_t[at])
        check_states(states)
        negativity[at] = spectrum_negativity(pt_spectrum(states))
    return SweepTable(p_t, p_s, p_l, p_tl, ub, cb, p_s > ub, p_s > cb, negativity, feasible)
