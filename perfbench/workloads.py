"""The benchmark's workloads and the independent checks of their outputs.

A workload builds its inputs from the benchmark seed in its constructor
(the set-up the benchmark times), runs one round of work in `run_round`
(the timed part) and checks that round's outputs in `check`, which
returns the number of failed operations.  `KERNEL` names the reference
kernel (see reference.py) that does the same kind of work.

The checks use closed forms and spectra computed here, not qcool's own
functions, and hold for any seed: they bound statistical outputs by
standard errors and never pin a tally or a file digest.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
from collections.abc import Iterator

import numpy as np

from qcool import channel, cli, entanglement, limits, qmat, tomography


def uncond_closed(p_t: float) -> float:
    q = math.sqrt(p_t * (1.0 - p_t))
    return q / (1.0 + q)


def cond_closed(p_tl: float) -> float:
    return (math.sqrt(p_tl * (4.0 - 3.0 * p_tl)) - p_tl) / 2.0


def pt_spectrum(mat: np.ndarray) -> np.ndarray:
    """Ascending spectrum of the partial transpose on the second qubit,
    by swapping that qubit's row and column indices."""
    t = np.asarray(mat).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return np.linalg.eigvalsh(t)


def round_seed(seed: int, r: int) -> int:
    """Seed of round r, derived from the benchmark seed: it draws the
    round's inputs and is handed to the program as its run seed."""
    state = np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def local_unitaries(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-random two-qubit local unitaries U_A (x) U_B, each factor
    built from a uniformly drawn unit quaternion."""
    q = rng.standard_normal((n, 2, 4))
    a, b, c, d = np.moveaxis(q / np.linalg.norm(q, axis=-1, keepdims=True), -1, 0)
    su2 = np.stack([np.stack([a + 1j * b, c + 1j * d], -1),
                    np.stack([-c + 1j * d, a - 1j * b], -1)], -2)
    return np.einsum("nij,nkl->nikjl", su2[:, 0], su2[:, 1]).reshape(n, 4, 4)


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(text: str, value: float, tol: float) -> bool:
    return abs(float(text) - value) <= tol


class SurfaceSweep:
    """`qcool surface` in-process on a 26x19x41 grid, CSV out.

    The P_L and P_S axes are the command's defaults.  The p_T axis ends at
    the default 1/2, but each round starts it at its own offset, a fraction
    of a step drawn from the seed, so no round repeats another's points and
    a cache across rounds gains nothing.  Feasibility depends on P_L and
    P_S only, so every round has the default grid's 20,254 points and
    11,362 feasible ones.
    """

    AXES = {"p_t": (0.0, 0.5, 26), "p_l": (0.0, 0.9, 19), "p_s": (0.0, 1.0, 41)}
    KERNEL = "objects"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config = os.path.join(workdir, "surface.cfg")
        self.out = os.path.join(workdir, "surface.csv")
        self.ops_per_round = math.prod(n for _, _, n in self.AXES.values())
        self.work_per_round = self.ops_per_round

    def round_axes(self, r: int) -> dict[str, tuple[float, float, int]]:
        """The round's axes: p_T starts 0.05 to 0.5 of a step above 0."""
        lo, hi, n = self.AXES["p_t"]
        frac = np.random.default_rng(round_seed(self.seed, r)).uniform(0.05, 0.5)
        return {**self.AXES, "p_t": (lo + frac * (hi - lo) / (n - 1), hi, n)}

    def run_round(self, r: int) -> tuple[int, dict]:
        axes = self.round_axes(r)
        with open(self.config, "w", encoding="utf-8") as fh:
            for key, (lo, hi, n) in axes.items():
                fh.write(f"{key} = {lo!r}:{hi!r}:{n}\n")
        code = cli.main([
            "surface", "--config", self.config, "--seed", str(round_seed(self.seed, r)),
            "--out", self.out, "--format", "csv",
        ])
        return code, axes

    @staticmethod
    def expected_points(axes: dict) -> Iterator[tuple[float, float, float]]:
        """Grid points (p_T, P_L, P_S) in the file's (P_L, p_T, P_S) order."""
        p_t, p_l, p_s = (np.linspace(*axes[k]).tolist() for k in ("p_t", "p_l", "p_s"))
        return ((pt, pl, ps) for pl in p_l for pt in p_t for ps in p_s)

    def check(self, result: tuple[int, dict]) -> int:
        """Failed points; the file is read a row at a time, so the check
        adds almost nothing to the process's peak memory."""
        code, axes = result
        if code != 0:
            return self.ops_per_round
        failed = 0
        with open(self.out, newline="", encoding="utf-8") as fh:
            pairs = itertools.zip_longest(csv.DictReader(fh), self.expected_points(axes))
            for row, point in pairs:
                failed += row is None or point is None or not self.row_ok(row, *point)
        return failed

    @staticmethod
    def row_ok(row: dict[str, str], p_t: float, p_l: float, p_s: float) -> bool:
        ub, cb = uncond_closed(p_t), cond_closed(p_t * p_l)
        feasible = p_s + p_l <= 1.0 + 1e-12
        ok = (
            _close(row["p_T"], p_t, 1e-12)
            and _close(row["P_L"], p_l, 1e-12)
            and _close(row["P_S"], p_s, 1e-12)
            and _close(row["P_TL"], p_t * p_l, 1e-12)
            and _close(row["uncond_boundary"], ub, 1e-11)
            and _close(row["cond_boundary"], cb, 1e-11)
            and row["feasible"] == ("true" if feasible else "false")
        )
        if not ok:
            return False
        # Verdicts and the negativity sign are compared away from the boundary.
        if abs(p_s - ub) > 1e-9 and (row["uncond_ok"] == "true") != (p_s > ub):
            return False
        if abs(p_s - cb) > 1e-9 and (row["cond_ok"] == "true") != (p_s > cb):
            return False
        neg = float(row["numeric_negativity"])
        if not feasible:
            return math.isnan(neg)
        if not (math.isfinite(neg) and neg >= 0.0):
            return False
        return abs(p_s - cb) <= 1e-6 or (neg > 1e-12) == (row["cond_ok"] == "true")


class OracleBisect:
    """`limits.critical_ps_numeric` on lanes drawn within criterion 2's
    ranges, half unconditional and half conditional, checked to 1e-6
    against the closed-form boundaries.  Each round draws its own lanes
    from the seed."""

    LANES = 8  # per kind and round
    KERNEL = "objects"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.ops_per_round = 2 * self.LANES
        self.work_per_round = self.ops_per_round

    def round_lanes(self, r: int) -> list[tuple[float, float, str]]:
        rng = np.random.default_rng(round_seed(self.seed, r))
        uncond = rng.uniform(0.0025, 0.5, self.LANES)
        cond = rng.uniform((0.01, 0.012), (0.5, 0.6), (self.LANES, 2))
        return ([(float(p_t), 0.0, "unconditional") for p_t in uncond]
                + [(float(p_t), float(p_l), "conditional") for p_t, p_l in cond])

    def run_round(self, r: int) -> list[tuple[float, float, str, float | None]]:
        """(p_T, P_L, kind, critical P_S or None if it raised) per lane."""
        return [(p_t, p_l, which, _bisect(p_t, p_l, which))
                for p_t, p_l, which in self.round_lanes(r)]

    def check(self, lanes) -> int:
        failed = 0
        for p_t, p_l, which, got in lanes:
            want = uncond_closed(p_t) if which == "unconditional" else cond_closed(p_t * p_l)
            failed += got is None or not abs(got - want) <= 1e-6
        return failed


def _bisect(p_t: float, p_l: float, which: str) -> float | None:
    try:
        return limits.critical_ps_numeric(p_t, p_l, which=which)
    except Exception:  # counted as a failed operation by the check
        return None


class PipelineMC:
    """`qcool pipeline` on criterion 9's three designed scenarios (one per
    class), durations scaled to a fifth to keep a round near one second
    and its memory small.  Each round passes its own derived `--seed`.

    Throughput is counted in nominal Poisson arrivals,
    sum over scenarios of 2 (R_singlet + R_singles + R_noise) duration:
    two pure-noise runs per scenario.
    """

    # rate_singlet, rate_singles, rate_noise, tau, p_t, duration
    SCENARIOS = (
        (1e5, 0.0, 4e5, 1e-6, 0.0, 0.6),
        (1e5, 5e5, 4e5, 5e-7, 0.5, 2.0),
        (1e5, 9e5, 4e5, 1e-6, 0.5, 1.0),
    )
    SHOTS = 50_000
    KERNEL = "arrays"
    #: Allowed deviation of an empirical probability from the window law,
    #: in binomial standard errors of the mixed tally.  Resampling from two
    #: pure-noise runs roughly doubles the variance, so this is about 5.7
    #: of the true standard deviation.
    K_SE = 8.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config = os.path.join(workdir, "pipeline.cfg")
        self.out = os.path.join(workdir, "pipeline.csv")
        keys = ("rate_singlet", "rate_singles", "rate_noise", "tau", "p_t", "duration")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(f"shots_per_setting = {self.SHOTS}\n")
            for k, values in enumerate(self.SCENARIOS, start=1):
                for key, v in zip(keys, values):
                    fh.write(f"scenario{k}.{key} = {v!r}\n")
        self.ops_per_round = len(self.SCENARIOS)
        self.work_per_round = sum(
            2.0 * (r1 + r2 + r3) * d for r1, r2, r3, _, _, d in self.SCENARIOS
        )
        # Per scenario: triples, then triples times each empirical probability.
        self.pooled = np.zeros((len(self.SCENARIOS), 4))

    def run_round(self, r: int) -> int:
        return cli.main([
            "pipeline", "--config", self.config, "--seed", str(round_seed(self.seed, r)),
            "--out", self.out, "--format", "csv",
        ])

    def check(self, code: int) -> int:
        if code != 0:
            return self.ops_per_round
        rows = _read_csv(self.out)
        failed = abs(len(rows) - len(self.SCENARIOS))
        for k, (row, scenario) in enumerate(zip(rows, self.SCENARIOS), start=1):
            if self.row_ok(row, k, *scenario):
                emp = [float(row[c]) for c in ("p_s_emp", "p_f_emp", "p_l_emp")]
                self.pooled[k - 1] += int(row["n_triple"]) * np.array([1.0, *emp])
            else:
                failed += 1
        return failed

    def finish(self) -> int:
        """Scenarios whose triples, pooled over every round of the run,
        leave the window law; pooling shrinks the standard error."""
        return sum(
            n > 0 and not self.window_law_ok(counts / n, n, *scenario)
            for (n, *counts), scenario in zip(self.pooled, self.SCENARIOS)
        )

    @classmethod
    def window_law_ok(cls, emp, n, r_singlet, r_singles, r_noise, tau, *_) -> bool:
        """Empirical (P_S, P_F, P_L) within K_SE standard errors of the
        expected classification probabilities of a window with one R click.

        The noise at each output is Poisson with mean lam = R_noise tau / 4,
        so L/S = 2 lam + 4 lam R_singles / R_singlet: the rate ratio plus
        the noise-pair term R_noise tau / 2, which the first-order
        `params_from_ratio` law leaves out.
        """
        r_exact = r_noise * r_singles * tau / r_singlet + r_noise * tau / 2.0
        p_s = 1.0 / (2.0 + r_exact)
        return all(
            abs(got - want) <= cls.K_SE * math.sqrt(want * (1.0 - want) / n)
            for got, want in zip(emp, (p_s, p_s, 1.0 - 2.0 * p_s))
        )

    @classmethod
    def row_ok(cls, row, k, r_singlet, r_singles, r_noise, tau, p_t, duration) -> bool:
        ratio = r_noise * r_singles * tau / r_singlet
        n = int(row["n_triple"])
        emp = [float(row[c]) for c in ("p_s_emp", "p_f_emp", "p_l_emp")]
        if not (
            int(row["scenario"]) == k
            and _close(row["ratio"], ratio, 1e-12 * max(ratio, 1.0))
            and _close(row["p_t"], p_t, 1e-12)
            and _close(row["duration"], duration, 1e-12)
            and n > 0
            and abs(sum(emp) - 1.0) <= 1e-9
        ):
            return False
        if not cls.window_law_ok(emp, n, r_singlet, r_singles, r_noise, tau):
            return False
        ub, cb = uncond_closed(p_t), cond_closed(p_t * emp[2])
        if not (_close(row["uncond_boundary"], ub, 1e-11) and _close(row["cond_boundary"], cb, 1e-9)):
            return False
        uncond_ok = row["uncond_ok"] == "true"
        if abs(emp[0] - ub) > 1e-9 and uncond_ok != (emp[0] > ub):
            return False
        entangled = row["cond_entangled"] == "true"
        neg = float(row["recon_negativity"])
        if not (neg >= 0.0 and (not entangled or neg > 0.0)):
            return False
        want_class = (
            "unconditional" if uncond_ok
            else "conditional_only" if entangled else "separable"
        )
        return row["classification"] == want_class


class TomoClosure:
    """Born probabilities, sampled counts, reconstruction, fidelity and
    entanglement report over heralded states drawn from the seed, with
    both noise models and shots per setting from 1e3 to 1e6.

    Each operation takes one of `POOL` heralded states and turns it by a
    Haar-random local unitary drawn for its round, so no operation repeats
    another's input.  Local unitaries keep the partial transpose's
    spectrum, so the closed-form entanglement class still applies.
    """

    BATCH = 64
    KERNEL = "objects"
    POOL = 256
    #: Mean squared Frobenius error of the linear-inversion estimate is at
    #: most (9 correlators + 6 marginals / 3 groups) / 4 / shots.
    FROB_VAR = 2.75
    K_SE = 4.0

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.cases = []
        for i in range(self.POOL):
            p_s, p_f, p_l = rng.dirichlet([1.0, 1.0, 1.0])
            p_t = float(rng.uniform(0.0, 0.5))
            params = channel.ChannelParams(float(p_s), float(p_f), float(p_l))
            truth, _ = channel.conditional_state(params, channel.EnvironmentSpec(p_t))
            shots = int(round(10.0 ** rng.uniform(3.0, 6.0)))
            model = ("multinomial", "poisson")[i % 2]
            self.cases.append((truth, params, p_t, shots, model))
        self.seed_base = int(rng.integers(2**62))
        self.ops_per_round = self.BATCH
        self.work_per_round = self.BATCH

    def run_round(self, r: int) -> list:
        """(case with the turned state, (recon, fidelity, report) or None
        if a stage raised) per operation."""
        turns = local_unitaries(np.random.default_rng(round_seed(self.seed, r)), self.BATCH)
        out = []
        for j, u in enumerate(turns):
            op = r * self.BATCH + j
            base, params, p_t, shots, model = self.cases[op % self.POOL]
            m = u @ base.data @ u.conj().T
            try:
                truth = qmat.DensityMatrix(0.5 * (m + m.conj().T), base.dims)
                settings = tomography.TomographySettings(shots, self.seed_base + op, model)
                probs = tomography.born_probabilities(truth, settings)
                counts = tomography.sample_counts(probs, settings)
                recon = tomography.reconstruct(counts)
                fid = qmat.fidelity(truth, recon)
                rep = entanglement.report(recon)
            except Exception:  # counted as a failed operation by the check
                out.append((None, None))
                continue
            out.append(((truth, params, p_t, shots, model), (recon, fid, rep)))
        return out

    def check(self, results) -> int:
        return sum(res is None or not self.closure_ok(case, *res) for case, res in results)

    @classmethod
    def closure_ok(cls, case, recon, fid, rep) -> bool:
        truth, params, p_t, shots, _ = case
        delta = recon.data - truth.data
        frob = float(np.linalg.norm(delta))
        if not frob <= cls.K_SE * math.sqrt(cls.FROB_VAR / shots):
            return False
        # Fuchs-van de Graaf: 1 - sqrt(F) <= D <= sqrt(1 - F).
        dist = 0.5 * float(np.abs(np.linalg.eigvalsh(delta)).sum())
        if not (1.0 - math.sqrt(fid) <= dist + 1e-9 and dist * dist <= 1.0 - fid + 1e-9):
            return False
        lam_r, lam_t = pt_spectrum(recon.data), pt_spectrum(truth.data)
        neg_r = -float(lam_r[lam_r < 0].sum())
        neg_t = -float(lam_t[lam_t < 0].sum())
        if not (
            abs(rep.min_pt_eigenvalue - lam_r[0]) <= 1e-9
            and abs(rep.negativity - neg_r) <= 1e-9
            # |N(a) - N(b)| <= ||a - b||_1 / 2 <= ||a - b||_F for 4x4.
            and abs(rep.negativity - neg_t) <= frob + 1e-9
        ):
            return False
        # Weyl: the reconstruction's minimum PT eigenvalue lies within frob
        # of the truth's, so the verdict is fixed once the margin exceeds it.
        entangled_closed = params.p_s > cond_closed(p_t * params.p_l)
        if abs(lam_t[0]) > 1e-9 and entangled_closed != (lam_t[0] < 0.0):
            return False
        if abs(lam_t[0]) > frob + 1e-8:
            return rep.entangled == entangled_closed
        return True


WORKLOADS = {
    "surface_sweep": SurfaceSweep,
    "oracle_bisect": OracleBisect,
    "pipeline_mc": PipelineMC,
    "tomo_closure": TomoClosure,
}
