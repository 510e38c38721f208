"""Stochastic simulation of the two-beam-splitter heralding experiment.

A singlet-pair source clicks detector R and sends the partner photon into
the channel, where independent Poisson noise is coupled on a 50:50 beam
splitter; a second 50:50 splitter fans the channel out to detectors A and
B.  A residual-singles stream clicks R without a partner.  A heralded
triple is a window of width tau after an R click containing exactly one
click at A and one at B; triples are classified success / flip / loss by
the provenance of those clicks.  Polarization never filters a detection
in this topology, so the noise state enters the physics analytically (see
`channel`), not stochastically; the tally only counts provenance.

Only what reaches a detector is drawn, exactly in distribution by Poisson
superposition and thinning: one R stream at R_singlet + R_singles whose
clicks are pairs with chance R_singlet / (R_singlet + R_singles), a pair's
partner reaching A or B with chance 1/4 each, and two independent noise
streams at R_noise / 4, one at A and one at B.  A run is drawn and tallied
in blocks of fixed length (`BLOCK_ARRIVALS` expected draws, see
`_block_length`), block k of stream s from SeedSequence(seed,
spawn_key=(s, k)), so memory does not grow with the run's duration.
`RateConfig` refuses a window that expects more than
`MAX_WINDOW_ARRIVALS` draws, so a block grown to tau stays bounded too.

The analytic mapping from laboratory rates to channel parameters
(P_S = 1/(2 + ratio), P_L = ratio/(2 + ratio) with
ratio = R_N R_S tau / R_singlet) and the accessible-parameter bounds
live here as well.

This topology pins the parameters to the plane 2 P_S + P_L = 1.  A
generalized variant would couple noise of independent intensities into
outputs A and B separately, unlocking the third degree of freedom
(arbitrary P_S, P_F, P_L splits at fixed p_T); that extension is
documented here for completeness but deliberately not simulated.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelParams

RATE_TAU_WARN = 0.1

#: Stream indices of the seed scheme: block k of stream s draws from
#: SeedSequence(seed, spawn_key=(s, k)) (see `_blocks`).
STREAM_R = 0
STREAM_NOISE_A = 1
STREAM_NOISE_B = 2

#: Expected draws per block, up to a factor of 2 (see `_block_length`);
#: part of the seed scheme.
BLOCK_ARRIVALS = 2**17
#: A window [t, t + tau) may expect at most this many draws; above it
#: every window is discarded anyway.  A block grown to tau (see
#: `_block_length`) then holds at most 2 * MAX_WINDOW_ARRIVALS draws.
MAX_WINDOW_ARRIVALS = 2**17
#: Blocks are at most 2**MAX_BLOCK_EXP s long, the largest finite power
#: of two; a run with no arrivals is one or two blocks.
MAX_BLOCK_EXP = 1023

#: Where an R click's partner photon went.
PARTNER_A = 0
PARTNER_B = 1
PARTNER_LOST = 2
SINGLE = 3


@dataclass(frozen=True)
class RateConfig:
    """Laboratory rates (events per second) and coincidence window
    (seconds)."""

    rate_singlet: float
    rate_singles: float
    rate_noise: float
    tau: float

    def __post_init__(self):
        for name, v in (
            ("rate_singlet", self.rate_singlet),
            ("rate_singles", self.rate_singles),
            ("rate_noise", self.rate_noise),
        ):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name}={v} must be >= 0")
            if v * self.tau > RATE_TAU_WARN:
                warnings.warn(
                    f"{name}*tau = {v * self.tau:.3g} exceeds {RATE_TAU_WARN}; "
                    "multi-photon windows will be common",
                    stacklevel=3,
                )
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau={self.tau} must be > 0")
        drawn = (self.rate_singlet + self.rate_singles + self.rate_noise / 2.0) * self.tau
        if drawn > MAX_WINDOW_ARRIVALS:
            raise ValueError(
                f"(rate_singlet + rate_singles + rate_noise/2)*tau = {drawn:.3g} exceeds "
                f"{MAX_WINDOW_ARRIVALS} draws per window"
            )


@dataclass(frozen=True)
class CoincidenceTally:
    """Classified triple-coincidence counts from one simulated run."""

    n_success: int
    n_flip: int
    n_loss: int
    n_discarded: int
    config: RateConfig
    duration: float

    @property
    def n_triple(self) -> int:
        return self.n_success + self.n_flip + self.n_loss

    @property
    def empirical_params(self) -> ChannelParams:
        n = self.n_triple
        if n == 0:
            raise ValueError("no heralded triples in tally")
        return ChannelParams(self.n_success / n, self.n_flip / n, self.n_loss / n)

    @property
    def standard_errors(self) -> tuple[float, float, float]:
        """Binomial standard errors of the three empirical probabilities."""
        n = self.n_triple
        if n == 0:
            raise ValueError("no heralded triples in tally")
        return tuple(
            math.sqrt((k / n) * (1.0 - k / n) / n)
            for k in (self.n_success, self.n_flip, self.n_loss)
        )


def rate_ratio(config: RateConfig) -> float:
    """Dimensionless noise-to-signal ratio R_N * R_S * tau / R_singlet."""
    if config.rate_singlet <= 0.0:
        raise ValueError("rate_singlet must be > 0")
    return config.rate_noise * config.rate_singles * config.tau / config.rate_singlet


def params_from_ratio(r: float) -> ChannelParams:
    """Channel parameters produced by the topology at a given ratio:
    P_S = P_F = 1/(2+r), P_L = r/(2+r); satisfies 2 P_S + P_L = 1."""
    if not (math.isfinite(r) and r >= 0.0):
        raise ValueError(f"ratio={r} must be >= 0")
    p_s = 1.0 / (2.0 + r)
    return ChannelParams(p_s, p_s, 1.0 - 2.0 * p_s)


def window_law(config: RateConfig) -> tuple[float, float, float, float]:
    """Exact (P_success, P_flip, P_loss, P_discard) of one R window of
    `simulate_streams`; a run of length T opens about
    (R_singlet + R_singles) T windows.

    With w = R_singlet / (R_singlet + R_singles) the window's R click is a
    pair's, otherwise a single's.  Noise reaches each output as a Poisson
    count of mean x = R_noise tau / 4, noise and partners of other pairs
    in the window as one of mean lam = (R_singlet + R_noise) tau / 4, so
    an output is busy with chance 1 - exp(-lam) without the partner, and
    z = exp(-(R_singlet + R_singles) tau) is the chance of no second R
    click.  A success (flip) has the partner at A (B) and one noise click
    at the other output; a loss has one noise click at each output and no
    partner there.  A window with clicks at both outputs that is none of
    these is discarded.
    """
    r_total = config.rate_singlet + config.rate_singles
    if r_total <= 0.0:
        raise ValueError("rate_singlet + rate_singles must be > 0")
    w = config.rate_singlet / r_total
    x = config.rate_noise * config.tau / 4.0
    busy = -math.expm1(-(config.rate_singlet + config.rate_noise) * config.tau / 4.0)
    z = math.exp(-r_total * config.tau)
    p_success = w / 4.0 * x * math.exp(-2.0 * x) * z
    p_loss = (w / 2.0 + 1.0 - w) * x * x * math.exp(-2.0 * x) * z
    p_clicks = w * (busy / 2.0 + busy * busy / 2.0) + (1.0 - w) * busy * busy
    return p_success, p_success, p_loss, p_clicks - 2.0 * p_success - p_loss


def accessible_bounds(p_s: float, r_singlet: float) -> tuple[float, float]:
    """Upper bounds on P_L reachable at a given P_S for a source whose
    singlet rate relative to the R-arm singles background is
    r_singlet = R_singlet / (4 R_S):

        P_L < P_S / r_singlet   and   P_L < (1 - P_S) / (1 - r_singlet).

    For r_singlet >= 1 the second bound is inapplicable (reported inf).
    """
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(f"p_s={p_s} outside [0, 1]")
    if r_singlet <= 0.0:
        raise ValueError("r_singlet must be > 0")
    first = p_s / r_singlet
    second = (1.0 - p_s) / (1.0 - r_singlet) if r_singlet < 1.0 else math.inf
    return first, second


def stream_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Generator for one event stream, derived from the master seed as
    SeedSequence(seed, spawn_key=spawn_key).  Adding streams with new
    keys never perturbs existing ones."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in spawn_key))
    )


def poisson_arrivals(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival times of a Poisson process on [0, duration), by cumulative
    exponential inter-arrival gaps."""
    if rate <= 0.0:
        return np.empty(0, dtype=float)
    out = []
    t = 0.0
    mean = rate * duration
    chunk = int(mean + 5.0 * math.sqrt(mean + 1.0)) + 16
    while True:
        gaps = rng.exponential(1.0 / rate, size=chunk)
        gaps[0] += t
        times = np.cumsum(gaps)
        if times[-1] >= duration:
            out.append(times[times < duration])
            break
        out.append(times)
        t = times[-1]
        chunk = max(int((duration - t) * rate * 1.2) + 16, 16)
    return np.concatenate(out) if len(out) > 1 else out[0]


class _Block(NamedTuple):
    """The draws of one block.  `partner` holds, for each R click, where
    its partner photon went: PARTNER_A, PARTNER_B, PARTNER_LOST, or
    SINGLE for a residual single with no partner."""

    r: np.ndarray
    partner: np.ndarray
    noise_a: np.ndarray
    noise_b: np.ndarray


def _block_length(config: RateConfig) -> float:
    """Length of one block of the seed scheme: the power of two at which
    the drawn rate R_singlet + R_singles + R_noise/2 expects more than
    BLOCK_ARRIVALS/2 and at most BLOCK_ARRIVALS arrivals, raised to at
    least tau so that a window reaches at most into the next block.  A
    power of two keeps every block edge k * length exact, so clicks stay
    in time order across edges."""
    rate = config.rate_singlet + config.rate_singles + config.rate_noise / 2.0
    exp = math.frexp(BLOCK_ARRIVALS / rate)[1] - 1 if rate > 0.0 else MAX_BLOCK_EXP
    return math.ldexp(1.0, min(max(exp, math.frexp(config.tau)[1]), MAX_BLOCK_EXP))


def _blocks(config: RateConfig, duration: float, seed: int) -> Iterator[_Block]:
    """The run's draws block by block: block k covers [k L, (k+1) L) of
    [0, duration) and draws stream s from SeedSequence(seed,
    spawn_key=(s, k)).  The R stream's generator draws the click times,
    then one uniform per click that picks its `partner` code."""
    r_rate = config.rate_singlet + config.rate_singles
    w = config.rate_singlet / r_rate if r_rate > 0.0 else 0.0
    length = _block_length(config)
    for k in itertools.count():
        start = k * length
        if start >= duration:
            return
        span = min(start + length, duration) - start
        rng_r = stream_rng(seed, STREAM_R, k)
        r = start + poisson_arrivals(r_rate, span, rng_r)
        u = rng_r.random(r.size)
        partner = (u >= w / 4.0).view(np.int8) + (u >= w / 2.0) + (u >= w)
        noise_a, noise_b = (
            start + poisson_arrivals(config.rate_noise / 4.0, span, stream_rng(seed, stream, k))
            for stream in (STREAM_NOISE_A, STREAM_NOISE_B)
        )
        yield _Block(r, partner, noise_a, noise_b)


def _tally_block(block: _Block, nxt: _Block, tau: float) -> tuple[int, int, int, int]:
    """The (success, flip, loss, discarded) counts of the windows
    [t, t + tau) opened by `block`'s R clicks; they reach at most the
    head of the next block, `nxt`."""
    r = block.r
    n = r.size
    if n == 0:
        return 0, 0, 0, 0
    ends = r + tau
    head_r, head_a, head_b = (
        x[: np.searchsorted(x, ends[-1])] for x in (nxt.r, nxt.noise_a, nxt.noise_b)
    )
    r_all = np.concatenate((r, head_r))
    partner = np.concatenate((block.partner, nxt.partner[: head_r.size]))

    # An A click at s lies in the windows i with r_i <= s < ends_i, a run
    # lo <= i < hi of window indices, so a difference array over the
    # windows counts every window's A clicks.
    a = np.concatenate((r_all[partner == PARTNER_A], block.noise_a, head_a))
    lo = np.searchsorted(ends, a, side="right")
    hi = np.searchsorted(r, a, side="right")
    count_a = np.cumsum(np.bincount(lo, minlength=n + 1) - np.bincount(hi, minlength=n + 1))
    cand = np.flatnonzero(count_a[:n])

    # B only for windows with an A click: the first B click at or after t
    # and the one after it (or the two inf sentinels), against the window
    # end, tell 0, 1 or more.
    b = np.sort(np.concatenate((r_all[partner == PARTNER_B], block.noise_b, head_b, [np.inf] * 2)))
    first = np.searchsorted(b, r[cand])
    cand_ends = ends[cand]
    next_r = np.append(r_all, np.inf)[cand + 1]
    triple = b[first] < cand_ends
    single = (
        triple
        & (b[first + 1] >= cand_ends)
        & (count_a[cand] == 1)
        & (next_r >= cand_ends)
    )
    # With one click at each of R, A and B, the A (B) click is signal
    # exactly when the window's own partner went to A (B).
    own = np.bincount(block.partner[cand[single]], minlength=4)
    n_single = int(single.sum())
    return (
        int(own[PARTNER_A]),
        int(own[PARTNER_B]),
        int(own[PARTNER_LOST] + own[SINGLE]),
        int(triple.sum()) - n_single,
    )


_EMPTY = np.empty(0)
_NO_BLOCK = _Block(_EMPTY, _EMPTY.astype(np.int8), _EMPTY, _EMPTY)


def simulate_streams(config: RateConfig, duration: float, seed: int) -> CoincidenceTally:
    """Run the event-driven coincidence experiment.

    Every R click opens a window [t, t + tau).  Windows with one click at
    A and one at B form a triple classified by provenance: signal at A ->
    success, signal at B -> flip, noise at both -> loss.  Windows with
    multiple clicks at any one output -- including a second R click,
    which signals a second pair in flight -- are discarded, enforcing
    single occupancy per output.  The run is drawn and tallied block by
    block (see `_blocks`), so memory does not grow with `duration`; each
    window belongs to the block of its R click, and the blocks' counts
    add up to the run's.  Deterministic for a fixed seed.
    """
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration={duration} must be finite and > 0")
    totals = np.zeros(4, dtype=np.int64)
    blocks = _blocks(config, duration, seed)
    block = next(blocks)
    for nxt in itertools.chain(blocks, [_NO_BLOCK]):
        totals += _tally_block(block, nxt, config.tau)
        block = nxt
    return CoincidenceTally(*totals.tolist(), config=config, duration=duration)


def mix_detections(
    tally_ground: CoincidenceTally,
    tally_excited: CoincidenceTally,
    p_t: float,
    seed: int,
) -> CoincidenceTally:
    """Resample a mixed-noise tally from two pure-noise runs.

    Each output event is drawn from the ground-noise record with
    probability 1-p_t and from the excited-noise record with probability
    p_t, which is statistically equivalent to simulating with the mixed
    noise polarization directly.  The two runs must share rates, tau and
    duration.  Polarization never filters a click, so the two pure-noise
    runs are independent draws of one configuration.
    """
    if not 0.0 <= p_t <= 0.5:
        raise ValueError(f"p_t={p_t} outside [0, 1/2]")
    if tally_ground.config != tally_excited.config:
        raise ValueError("tallies produced with different rates or tau")
    if tally_ground.duration != tally_excited.duration:
        raise ValueError("tallies produced with different durations")
    n_g, n_e = tally_ground.n_triple, tally_excited.n_triple
    if n_g == 0 or n_e == 0:
        raise ValueError("both tallies must contain heralded triples")

    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    n = int(round((1.0 - p_t) * n_g + p_t * n_e))
    k = int(rng.binomial(n, 1.0 - p_t))

    def resample(tally, size):
        if size == 0:
            return np.zeros(3, dtype=np.int64)
        probs = np.array([tally.n_success, tally.n_flip, tally.n_loss], dtype=float)
        return rng.multinomial(size, probs / probs.sum())

    counts = resample(tally_ground, k) + resample(tally_excited, n - k)
    return CoincidenceTally(
        n_success=int(counts[0]),
        n_flip=int(counts[1]),
        n_loss=int(counts[2]),
        n_discarded=0,
        config=tally_ground.config,
        duration=tally_ground.duration,
    )
