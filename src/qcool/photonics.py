"""Stochastic simulation of the two-beam-splitter heralding experiment.

A singlet-pair source clicks detector R and sends the partner photon into
the channel, where independent Poisson noise is coupled on a 50:50 beam
splitter; a second 50:50 splitter fans the channel out to detectors A and
B.  A residual-singles stream clicks R without a partner.  Every
environment-side photon takes two independent fair-coin routings (pass
the first splitter, then A-or-B).  A heralded triple is a window of width
tau after an R click containing exactly one click at A and one at B;
triples are classified success / flip / loss by the provenance of those
clicks.  Polarization never filters a detection in this topology, so the
noise state enters the physics analytically (see `channel`), not
stochastically; the tally only counts provenance.

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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, EnvironmentSpec, conditional_state
from .qmat import DensityMatrix

RATE_TAU_WARN = 0.1

#: Stream indices for the seed-derivation scheme (see `stream_rng`).
STREAM_PAIR_ARRIVALS = 0
STREAM_PAIR_ROUTING = 1
STREAM_SINGLES_ARRIVALS = 2
STREAM_NOISE_ARRIVALS = 3
STREAM_NOISE_ROUTING = 4


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


def stream_rng(seed: int, stream_index: int) -> np.random.Generator:
    """Generator for one event stream, derived from the master seed as
    SeedSequence(seed, spawn_key=(stream_index,)).  Adding streams with
    new indices never perturbs existing ones."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(int(stream_index),))
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


def _fair_coins(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 2, size=n).astype(bool)


def _dump_time_tags(path, r_times, r_from_pair, a_times, a_is_signal, b_times, b_is_signal):
    # One record per click: integer picoseconds, detector id, provenance.
    recs = []
    for times, dets, provs in (
        (r_times, "R", np.where(r_from_pair, "signal", "single")),
        (a_times, "A", np.where(a_is_signal, "signal", "noise")),
        (b_times, "B", np.where(b_is_signal, "signal", "noise")),
    ):
        ps = np.round(times * 1e12).astype(np.int64)
        recs.extend(zip(ps.tolist(), [dets] * len(ps), provs.tolist()))
    recs.sort()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# time_ps detector provenance\n")
        for t, det, prov in recs:
            fh.write(f"{t} {det} {prov}\n")


def simulate_streams(
    config: RateConfig,
    duration: float,
    seed: int,
    time_tag_path: str | None = None,
) -> CoincidenceTally:
    """Run the event-driven coincidence experiment.

    Three independent Poisson streams are generated (singlet pairs,
    residual singles at R, noise photons), each environment-side photon
    is routed by two fair coins, and every R click opens a window
    [t, t + tau).  Windows with one click at A and one at B form a triple
    classified by provenance: signal at A -> success, signal at B ->
    flip, noise at both -> loss.  Windows with multiple clicks at any one
    output -- including a second R click, which signals a second pair in
    flight -- are discarded, enforcing single occupancy per output.
    Deterministic for a fixed seed.
    """
    if not duration > 0.0:
        raise ValueError("duration must be > 0")

    pair_times = poisson_arrivals(
        config.rate_singlet, duration, stream_rng(seed, STREAM_PAIR_ARRIVALS)
    )
    single_times = poisson_arrivals(
        config.rate_singles, duration, stream_rng(seed, STREAM_SINGLES_ARRIVALS)
    )
    noise_times = poisson_arrivals(
        config.rate_noise, duration, stream_rng(seed, STREAM_NOISE_ARRIVALS)
    )

    rng_sig_route = stream_rng(seed, STREAM_PAIR_ROUTING)
    sig_pass = _fair_coins(rng_sig_route, pair_times.size)   # through splitter 1
    sig_to_a = _fair_coins(rng_sig_route, pair_times.size)   # splitter 2 output
    rng_noise_route = stream_rng(seed, STREAM_NOISE_ROUTING)
    noise_pass = _fair_coins(rng_noise_route, noise_times.size)
    noise_to_a = _fair_coins(rng_noise_route, noise_times.size)

    def detector(sig_mask, noise_mask):
        times = np.concatenate([pair_times[sig_mask], noise_times[noise_mask]])
        is_signal = np.zeros(times.size, dtype=bool)
        is_signal[: sig_mask.sum()] = True
        order = np.argsort(times, kind="stable")
        return times[order], is_signal[order]

    a_times, a_is_signal = detector(sig_pass & sig_to_a, noise_pass & noise_to_a)
    b_times, b_is_signal = detector(sig_pass & ~sig_to_a, noise_pass & ~noise_to_a)

    r_times = np.concatenate([pair_times, single_times])
    r_from_pair = np.zeros(r_times.size, dtype=bool)
    r_from_pair[: pair_times.size] = True
    order = np.argsort(r_times, kind="stable")
    r_times, r_from_pair = r_times[order], r_from_pair[order]

    if time_tag_path is not None:
        _dump_time_tags(
            time_tag_path, r_times, r_from_pair, a_times, a_is_signal, b_times, b_is_signal
        )

    # Windows lacking an A click can never form a triple; restrict the
    # remaining searches to candidates with at least one.
    r_ends = r_times + config.tau
    a_lo = np.searchsorted(a_times, r_times, side="left")
    a_hi = np.searchsorted(a_times, r_ends, side="left")
    cand = np.nonzero(a_hi > a_lo)[0]
    starts, ends = r_times[cand], r_ends[cand]
    count_a = (a_hi - a_lo)[cand]
    a_first = a_lo[cand]
    b_first = np.searchsorted(b_times, starts, side="left")
    count_b = np.searchsorted(b_times, ends, side="left") - b_first
    count_r = np.searchsorted(r_times, ends, side="left") - cand

    triple = count_b >= 1
    single_occupancy = triple & (count_a == 1) & (count_b == 1) & (count_r == 1)
    n_discarded = int((triple & ~single_occupancy).sum())

    a_sig = a_is_signal[a_first[single_occupancy]]
    b_sig = b_is_signal[b_first[single_occupancy]]
    n_success = int(a_sig.sum())
    n_flip = int((~a_sig & b_sig).sum())
    n_loss = int((~a_sig & ~b_sig).sum())

    return CoincidenceTally(
        n_success=n_success,
        n_flip=n_flip,
        n_loss=n_loss,
        n_discarded=n_discarded,
        config=config,
        duration=float(duration),
    )


def merge_tallies(a: CoincidenceTally, b: CoincidenceTally) -> CoincidenceTally:
    """Combine tallies from disjoint simulation shards; associative and
    order-independent in the totals."""
    if a.config != b.config:
        raise ValueError("cannot merge tallies with different rates or tau")
    return CoincidenceTally(
        n_success=a.n_success + b.n_success,
        n_flip=a.n_flip + b.n_flip,
        n_loss=a.n_loss + b.n_loss,
        n_discarded=a.n_discarded + b.n_discarded,
        config=a.config,
        duration=a.duration + b.duration,
    )


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


def heralded_state_estimate(tally: CoincidenceTally, spec: EnvironmentSpec) -> DensityMatrix:
    """Heralded two-qubit state predicted from the empirical channel
    parameters of a tally, for comparing simulation against theory."""
    if tally.n_triple == 0:
        raise ValueError("no heralded triples in tally")
    state, _ = conditional_state(tally.empirical_params, spec)
    return state
