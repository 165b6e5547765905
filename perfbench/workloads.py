"""The benchmark's three workloads.

Each workload draws every random input from its seed, builds its
states, schemes and configs in ``setup`` (the part ``setup_s`` times),
runs one closed-loop pass of library calls in ``run_pass``, timing each
call, and checks a pass's outputs against the independent oracles in
``oracles.py``.

- ``unit_exact``: six convergence studies on [0,1)^d without per-bin
  tables; exercises the closed-form cell integrals and the Gram
  reduction, and barely touches grid construction.
- ``rd_cubes``: three R^d studies with few term pairs and many unit
  cubes; exercises the cube-list grid build and the captured-mass search.
- ``tables``: sampling, the joint table, the discretizer and the six CLI
  experiment kinds; exercises per-bin table materialisation and output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

import spatialzeno as sz
from spatialzeno import cli

import oracles

# rate fits are checked against the paper's n^-d law at this tolerance,
# the one the repository's acceptance suite uses
RATE_TOL = 0.1
# the extra rate check refits the library's rows from the smallest n the
# acceptance suite uses, so a failing "fitted rate vs d" can be told apart
# from a failure of the law itself
RATE_MIN_N = 4

# Checks that failed at the commit that added the benchmark, with the
# reason.  They run on every pass and are reported as known defects; a
# failure of any other check makes the result incorrect.  Remove an entry
# once the library passes it.
KNOWN_DEFECTS = {
    "mix^3/uniform3 fitted rate vs d":
        "the library fits the 3-d study over every usable row, n=2 included, "
        "which sits before the n^-3 regime; 2.88-2.92 on seeds 1-20, below 2.9 on "
        "13 of them",
}
# closed-form rows must agree with the oracles to this relative accuracy
REL_TOL = 1e-9
# empirical P(Y=1) must lie within this many standard errors of the oracle
Z_SAMPLE = 5.0


class Steps:
    """Times each library call of a pass separately, under a group name."""

    def __init__(self) -> None:
        self.times: list[tuple[str, float]] = []

    def __call__(self, group: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times.append((group, time.perf_counter() - t0))
        return out


class Checks:
    """Collects named pass/fail results."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    def close(self, name: str, got: float, want: float, tol: float) -> None:
        self.expect(name, abs(got - want) <= tol,
                    f"got {got!r} want {want!r} tol {tol:.3g}")


def _sines(pairs) -> tuple:
    """Oracle factor of a normalised sum of distinct sine modes."""
    pairs = list(pairs)
    norm = math.sqrt(sum(abs(c) ** 2 for _, c in pairs))
    return ("sines", tuple((int(k), complex(c) / norm) for k, c in pairs))


def _sine_state(pairs):
    return sz.superpose([(complex(c), sz.make_state("sine_mode", k=int(k)))
                         for k, c in pairs])


def _seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(2 ** 31 - 1))


# ---------------------------------------------------------------------------
# unit_exact


class UnitExact:
    """Six convergence studies on the unit cube, keep_per_bin=False."""

    name = "unit_exact"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._oracle = None

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        uniform = sz.make_state("uniform")
        sine1 = sz.make_state("sine_mode", k=1)
        modes = rng.choice(np.arange(1, 33), size=24, replace=False)
        coeffs = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        haar_seed = _seed_of(rng)
        weights = rng.dirichlet(np.ones(3))
        mix = sz.superpose([(0.8, sine1), (0.6j, sz.make_state("sine_mode", k=2))])
        haar = sz.make_state("haar_like", seed=haar_seed, pieces=512)
        breaks = np.asarray(haar.terms[0][1][0].breaks)
        values = np.asarray(haar.terms[0][1][0].values)
        jit = lambda d: sz.GridScheme("jittered", d=d, ratio_bound=2.0,
                                      seed=_seed_of(rng))
        pow2 = lambda lo, hi: [2 ** e for e in range(lo, hi + 1)]
        u1, s1 = ("uniform",), ("sines", ((1, 1.0),))
        # (label, state, phi, scheme, n_list, oracle p(level), predicted rate)
        self.studies = [
            ("sine1/uniform 2^20", sine1, uniform, jit(1), pow2(2, 20),
             lambda lv: oracles.prob_y1([u1], [s1], lv.breakpoints), 1.0),
            ("superpose24/uniform", _sine_state(zip(modes, coeffs)), uniform,
             sz.GridScheme("uniform", d=1), pow2(2, 11),
             lambda lv: oracles.prob_y1([u1], [_sines(zip(modes, coeffs))],
                                        lv.breakpoints), None),
            ("haar512/sine1", haar, sine1, jit(1), pow2(2, 10),
             lambda lv: oracles.prob_y1([s1], [("haar", breaks, values)],
                                        lv.breakpoints), None),
            ("power0.3/sine1", sz.make_state("power_singular", alpha=0.3), sine1,
             jit(1), pow2(2, 16),
             lambda lv: oracles.prob_y1([s1], [("power", 0.3)], lv.breakpoints), 1.0),
            ("mix^3/uniform3", sz.tensor_product([mix, mix, mix]),
             sz.make_state("uniform", d=3), jit(3), pow2(1, 7),
             lambda lv: oracles.prob_y1([u1] * 3, [_sines([(1, 0.8), (2, 0.6j)])] * 3,
                                        lv.breakpoints), 3.0),
            ("density3/uniform",
             sz.make_density([(float(w), sz.make_state("sine_mode", k=k))
                              for w, k in zip(weights, (1, 2, 3))]),
             uniform, jit(1), pow2(2, 16),
             lambda lv: sum(float(w) * oracles.prob_y1([u1], [("sines", ((k, 1.0),))],
                                                       lv.breakpoints)
                            for w, k in zip(weights, (1, 2, 3))), 1.0),
        ]
        self.power_psi, self.power_phi = self.studies[3][1], self.studies[3][2]
        self.power_scheme = self.studies[3][3]
        self.rng = rng

    def run_pass(self):
        step = Steps()
        records = [step("study_s", sz.convergence_study, state, phi, scheme, n_list)
                   for _, state, phi, scheme, n_list, _, _ in self.studies]
        return step.times, records

    def counters(self) -> dict:
        return {}

    def _oracle_values(self):
        if self._oracle is None:
            rows = [[fn(scheme.level(n)) for n in n_list]
                    for _, _, _, scheme, n_list, fn, _ in self.studies]
            # mpmath on a seeded sample of power_singular bins, against the
            # library's per-bin amplitudes and against the series oracle
            level = self.power_scheme.level(1024)
            amps = sz.prob_y1_pure(self.power_psi, self.power_phi, level,
                                   keep_per_bin=True).per_bin_amplitude
            picks = [0] + sorted(self.rng.choice(np.arange(1, level.num_bins),
                                                 size=7, replace=False).tolist())
            bp = level.breakpoints[0]
            series = oracles.cells(("sines", ((1, 1.0),)), ("power", 0.3), bp)
            mp = [(j, amps[j], series[j],
                   oracles.mp_power_sine(0.3, 1, float(bp[j]), float(bp[j + 1])))
                  for j in picks]
            self._oracle = rows, mp
        return self._oracle

    def check(self, records, checks: Checks, first: bool) -> None:
        rows, mp = self._oracle_values()
        if first:
            for j, lib, series, ref in mp:
                checks.close(f"power bin {j} library vs mpmath", abs(lib - ref), 0.0,
                             1e-8 * abs(ref) + 1e-10)
                checks.close(f"power bin {j} series oracle vs mpmath",
                             abs(series - ref), 0.0, 1e-12 * abs(ref))
        for (label, _, _, _, n_list, _, rate), rec, want in zip(
                self.studies, records, rows):
            for row, p in zip(rec.rows, want):
                checks.close(f"{label} n={row.n} p_y1", row.p_y1, p,
                             max(REL_TOL * p, row.error_bound))
            lo, hi = rec.fit_window
            used = [(n, p) for n, p, row in zip(n_list, want, rec.rows)
                    if lo <= n <= hi and row.p_y1 > 10.0 * row.error_bound]
            checks.close(f"{label} fitted rate vs oracle fit", rec.fitted_rate,
                         oracles.fit_rate(*zip(*used)), 1e-6)
            if rate is not None:
                checks.close(f"{label} fitted rate vs d", rec.fitted_rate, rate, RATE_TOL)
                law = [(row.n, row.p_y1) for row in rec.rows
                       if row.n >= RATE_MIN_N and row.p_y1 > 10.0 * row.error_bound]
                checks.close(f"{label} rate from n={RATE_MIN_N} vs d",
                             oracles.fit_rate(*zip(*law)), rate, RATE_TOL)


# ---------------------------------------------------------------------------
# rd_cubes


class RdCubes:
    """Three R^d studies: few term pairs, hundreds of unit cubes."""

    name = "rd_cubes"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._oracle = None

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 2])

        def gauss(d, sigma):
            return sz.make_state("gaussian", mu=[0.0] * d, sigma=[sigma] * d)

        # (label, state, scheme, n_list, mass_target, sigma)
        self.studies = [
            ("gauss2d s=2 uniform", gauss(2, 2.0), sz.GridScheme("uniform", d=2),
             [4, 8, 16], 1 - 1e-6, 2.0),
            ("gauss3d s=0.7 uniform", gauss(3, 0.7), sz.GridScheme("uniform", d=3),
             [2, 4, 8], 1 - 1e-8, 0.7),
            ("gauss2d s=1 jittered", gauss(2, 1.0),
             sz.GridScheme("jittered", d=2, ratio_bound=2.0, seed=_seed_of(rng)),
             [4, 8, 16], 1 - 1e-8, 1.0),
        ]

    def run_pass(self):
        step = Steps()
        out = [step("study_s", sz.rd_study, g, g, scheme, n_list, mass_target)
               for _, g, scheme, n_list, mass_target, _ in self.studies]
        return step.times, out

    def counters(self) -> dict:
        return {}

    def _oracle_values(self, results):
        if self._oracle is None:
            self._oracle = []
            for (_, _, scheme, n_list, _, sigma), (_, tail) in zip(self.studies, results):
                d = scheme.d
                mu, sg = [0.0] * d, [sigma] * d
                rd_scheme = scheme.with_cubes(tail.cubes)
                parts = [rd_scheme.level(n).parts for n in n_list]
                p = [sum(oracles.gaussian_self_prob(mu, sg, part.breakpoints)
                         for part in ps) for ps in parts]
                k = int(round(len(tail.cubes) ** (1.0 / d))) // 2
                inner = [c for c in tail.cubes if all(-k + 1 <= a < k - 1 for a in c)]
                full = None
                if scheme.kind == "uniform":
                    # every 1/n cell of a wide window, not only the truncated box
                    wide = [np.arange(-40 * n * sigma, 40 * n * sigma + 1) / n
                            for n in n_list]
                    full = [oracles.gaussian_self_prob(mu, sg, [bp] * d) for bp in wide]
                self._oracle.append((p, oracles.gaussian_cube_mass(mu, sg, tail.cubes),
                                     oracles.gaussian_cube_mass(mu, sg, inner), full))
        return self._oracle

    def check(self, results, checks: Checks, first: bool) -> None:
        for (label, _, scheme, _, target, _), (rec, tail), (p, cap, cap_inner, full) in zip(
                self.studies, results, self._oracle_values(results)):
            d = scheme.d
            checks.close(f"{label} captured mass", tail.captured_mass, cap, 1e-12)
            checks.expect(f"{label} captured mass reaches target", cap >= target,
                          f"{cap!r} < {target!r}")
            checks.expect(f"{label} cube box is the smallest that reaches target",
                          cap_inner < target, f"inner box captures {cap_inner!r}")
            checks.close(f"{label} tail bound", tail.tail_bound, 1.0 - cap, 1e-12)
            for i, (row, want) in enumerate(zip(rec.rows, p)):
                bound = row.error_bound - tail.tail_bound
                checks.close(f"{label} n={row.n} p_y1", row.p_y1, want,
                             max(REL_TOL * want, bound))
                if full is not None:
                    checks.expect(f"{label} n={row.n} truncation within tail bound",
                                  -REL_TOL * want <= full[i] - row.p_y1 <= tail.tail_bound,
                                  f"full {full[i]!r} truncated {row.p_y1!r}")
            checks.close(f"{label} fitted rate vs oracle fit", rec.fitted_rate,
                         oracles.fit_rate([r.n for r in rec.rows], p), 1e-6)
            checks.close(f"{label} fitted rate vs d", rec.fitted_rate, float(d), RATE_TOL)


# ---------------------------------------------------------------------------
# tables


SAMPLE_DRAWS = 10 ** 6
CLI_KINDS = ("probability", "convergence", "sample", "joint", "discretize", "rd_study")


class Tables:
    """Sampler, joint table, discretizer and the CLI: per-bin outputs."""

    name = "tables"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._oracle = None
        self._hashes = None

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        ks = [int(k) for k in rng.integers(1, 5, size=2)]
        self.ks = ks
        self.psi2 = sz.make_state("sine_product", ks=ks)
        self.phi2 = sz.make_state("uniform", d=2)
        self.grid_big = sz.jittered_grid(512, d=2, C=2.0, seed=_seed_of(rng))
        self.grid_small = sz.jittered_grid(128, d=2, C=2.0, seed=_seed_of(rng))
        self.dens_modes = [int(k) for k in rng.choice(np.arange(1, 9), 2, replace=False)]
        self.dens_weights = [float(w) for w in rng.dirichlet(np.ones(2))]
        self.density = sz.make_density(
            [(w, sz.make_state("sine_mode", k=k))
             for w, k in zip(self.dens_weights, self.dens_modes)])
        self.phi1 = sz.make_state("uniform")
        self.grid_line = sz.jittered_grid(2 ** 18, d=1, C=2.0, seed=_seed_of(rng))
        self.sample_seeds = (_seed_of(rng), _seed_of(rng))
        self.field = sz.product_field(self.phi2, self.psi2)

        grid_seed, haar_seed, cli_sample_seed = (_seed_of(rng) for _ in range(3))
        jittered = {"kind": "jittered", "C": 2.0, "seed": grid_seed}
        sine = lambda k: {"catalog": "sine_mode", "k": k}
        base = {"schema_version": "1"}
        self.configs = {
            "probability": dict(base, experiment="probability", d=1, psi=sine(ks[0]),
                                phi={"catalog": "uniform"}, grid=jittered, n=1000),
            "convergence": dict(base, experiment="convergence", d=1, psi=sine(1),
                                phi={"catalog": "uniform"}, grid=jittered,
                                n_list=[2 ** e for e in range(2, 9)]),
            "sample": dict(base, experiment="sample", d=1,
                           psi={"catalog": "haar_like", "seed": haar_seed, "pieces": 64},
                           phi=sine(1), grid=jittered, n=1024, count=10 ** 5,
                           seed=cli_sample_seed),
            "joint": dict(base, experiment="joint", d=2,
                          psi={"catalog": "sine_product", "ks": ks},
                          phi={"catalog": "uniform", "d": 2},
                          grid={"kind": "uniform"}, n=256),
            "discretize": dict(base, experiment="discretize", d=2,
                               psi={"catalog": "sine_product", "ks": ks},
                               phi={"catalog": "uniform", "d": 2},
                               grid={"kind": "uniform"}, n=128),
            "rd_study": dict(base, experiment="rd_study", d=1,
                             psi={"catalog": "gaussian", "mu": 0.0, "sigma": 1.0},
                             phi={"catalog": "gaussian", "mu": 0.0, "sigma": 1.0},
                             grid={"kind": "uniform"}, n_list=[4, 8, 16, 32],
                             mass_target=1 - 1e-6),
        }
        self.config_dir = self.workdir / "configs"
        self.out_dir = self.workdir / "out"
        self.config_dir.mkdir(parents=True, exist_ok=True)
        for kind, config in self.configs.items():
            config["output"] = {"stem": kind, "format": "both"}
            (self.config_dir / f"{kind}.json").write_text(json.dumps(config))

    def run_pass(self):
        step = Steps()
        big = step("sample_s", sz.sample_xy, self.psi2, self.phi2, self.grid_big,
                   count=SAMPLE_DRAWS, seed=self.sample_seeds[0])
        line = step("sample_s", sz.sample_xy, self.density, self.phi1, self.grid_line,
                    count=SAMPLE_DRAWS, seed=self.sample_seeds[1])
        joint = step("table_s", sz.joint_distribution, self.psi2, self.phi2, self.grid_big)
        disc = step("table_s", sz.discretize, self.field, self.grid_small)
        err = step("table_s", sz.discretization_error, self.field, self.grid_small)
        lhs, rhs = step("table_s", sz.norm_identity_check, self.phi2, self.psi2,
                        self.grid_small)
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for kind in CLI_KINDS:
                codes[kind] = step("cli_s", cli.main, [
                    "--output-dir", str(self.out_dir), "run",
                    str(self.config_dir / f"{kind}.json")])
        return step.times, (big, line, joint, disc, err, (lhs, rhs), codes)

    def counters(self) -> dict:
        return {"draws": 2 * SAMPLE_DRAWS,
                "bytes_written": sum(p.stat().st_size for p in self.out_dir.iterdir())}

    def _axis_amps(self, level):
        u1 = ("uniform",)
        return [oracles.cells(u1, ("sines", ((k, 1.0),)), bp)
                for k, bp in zip(self.ks, level.breakpoints)]

    def _axis_masses(self, level):
        return [oracles.cells(("sines", ((k, 1.0),)), ("sines", ((k, 1.0),)), bp).real
                for k, bp in zip(self.ks, level.breakpoints)]

    def _oracle_values(self):
        if self._oracle is None:
            amps = self._axis_amps(self.grid_big)
            masses = self._axis_masses(self.grid_big)
            p_big = float(np.prod([np.sum(np.abs(a) ** 2) for a in amps]))
            p1_bins = np.multiply.outer(np.abs(amps[0]) ** 2, np.abs(amps[1]) ** 2).ravel()
            mass_bins = np.multiply.outer(masses[0], masses[1]).ravel()
            # X marginal on an 8 x 8 block coarsening of the big grid
            blocks = [np.add.reduceat(m, np.linspace(0, m.size, 9).astype(int)[:-1])
                      for m in masses]
            block_mass = np.multiply.outer(blocks[0], blocks[1]).ravel()
            p_line = sum(w * oracles.prob_y1([("uniform",)], [("sines", ((k, 1.0),))],
                                             self.grid_line.breakpoints)
                         for w, k in zip(self.dens_weights, self.dens_modes))
            small = self._axis_amps(self.grid_small)
            vols = self.grid_small.volumes()
            avg = np.multiply.outer(small[0], small[1]).ravel() / vols
            bar = oracles.bar_norm([("uniform",)] * 2,
                                   [("sines", ((k, 1.0),)) for k in self.ks],
                                   self.grid_small.breakpoints)
            lib_keys = self._library_keys()
            self._oracle = dict(p_big=p_big, p1_bins=p1_bins, mass_bins=mass_bins,
                                block_mass=block_mass, p_line=p_line, avg=avg, bar=bar,
                                err=math.sqrt(max(1.0 - bar, 0.0)), keys=lib_keys,
                                p_lib=sz.prob_y1_pure(self.psi2, self.phi2,
                                                      self.grid_big).p_y1)
        return self._oracle

    def _library_keys(self) -> dict:
        """Each CLI key value computed by calling the library directly."""
        c = self.configs
        jit = lambda cfg: sz.GridScheme("jittered", d=cfg["d"], ratio_bound=2.0,
                                        seed=cfg["grid"]["seed"])
        sine = lambda k: sz.make_state("sine_mode", k=k)
        pr = c["probability"]
        conv = c["convergence"]
        smp = c["sample"]
        haar = sz.make_state("haar_like", seed=smp["psi"]["seed"], pieces=64)
        g = sz.make_state("gaussian", mu=0.0, sigma=1.0)
        field = sz.product_field(self.phi2, self.psi2)
        return {
            "probability": sz.prob_y1_pure(sine(pr["psi"]["k"]), self.phi1,
                                           jit(pr).level(pr["n"]), keep_per_bin=False).p_y1,
            "convergence": sz.convergence_study(sine(1), self.phi1, jit(conv),
                                                conv["n_list"]).fitted_rate,
            "sample": float(sz.sample_xy(haar, sine(1), jit(smp).level(smp["n"]),
                                         count=smp["count"], seed=smp["seed"]).y.mean()),
            "joint": sz.joint_distribution(self.psi2, self.phi2,
                                           sz.uniform_grid(256, d=2)).p_y1,
            "discretize": sz.discretization_error(field, sz.uniform_grid(128, d=2)),
            "rd_study": sz.rd_study(g, g, sz.GridScheme("uniform", d=1),
                                    c["rd_study"]["n_list"],
                                    c["rd_study"]["mass_target"])[0].fitted_rate,
        }

    def check(self, outputs, checks: Checks, first: bool) -> None:
        big, line, joint, disc, err, (lhs, rhs), codes = outputs
        o = self._oracle_values()
        for name, batch, p in (("2-d", big, o["p_big"]), ("1-d density", line, o["p_line"])):
            se = math.sqrt(p * (1.0 - p) / batch.count)
            checks.close(f"sample {name} empirical P(Y=1)", float(batch.y.mean()), p,
                         Z_SAMPLE * se)
        counts = np.bincount(big.x, minlength=self.grid_big.num_bins)
        shape = self.grid_big.shape
        blocks = np.add.reduceat(np.add.reduceat(
            counts.reshape(shape), np.linspace(0, shape[0], 9).astype(int)[:-1], axis=0),
            np.linspace(0, shape[1], 9).astype(int)[:-1], axis=1).ravel() / big.count
        q = o["block_mass"]
        pull = np.abs(blocks - q) / np.sqrt(q * (1.0 - q) / big.count)
        checks.expect("sample 2-d X marginal on 8x8 blocks within 5 SE",
                      np.all(pull <= Z_SAMPLE), f"worst pull {pull.max():.2f}")
        checks.close("joint rows sum to bin masses",
                     float(np.max(np.abs(joint.marginal_x - o["mass_bins"]))), 0.0,
                     REL_TOL * float(np.max(o["mass_bins"])))
        checks.close("joint P(Y=1) bins vs oracle",
                     float(np.max(np.abs(joint.p_y1_bins - o["p1_bins"]))), 0.0,
                     REL_TOL * float(np.max(o["p1_bins"])))
        checks.close("joint P(Y=1) vs prob_y1_pure", joint.p_y1, o["p_lib"],
                     REL_TOL * o["p_big"])
        checks.close("joint P(Y=1) vs oracle", joint.p_y1, o["p_big"], REL_TOL * o["p_big"])
        checks.close("discretize averages vs oracle",
                     float(np.max(np.abs(disc.averages - o["avg"]))), 0.0,
                     REL_TOL * float(np.max(np.abs(o["avg"]))))
        checks.close("discretization error vs oracle", err, o["err"], 1e-6 * o["err"])
        checks.close("norm identity lhs vs rhs", lhs, rhs, 1e-12 * rhs)
        checks.close("norm identity rhs vs oracle", rhs, o["bar"], REL_TOL * o["bar"])
        hashes = {}
        for kind in CLI_KINDS:
            checks.expect(f"cli {kind} exit code 0", codes[kind] == 0, f"exit {codes[kind]}")
            payload = json.loads((self.out_dir / f"{kind}.json").read_text())
            key = payload["result"].get(
                {"probability": "p_y1", "convergence": "fitted_rate",
                 "sample": "empirical_p_y1", "joint": "p_y1", "discretize": "l2_error",
                 "rd_study": "fitted_rate"}[kind])
            checks.expect(f"cli {kind} key value equals the library's",
                          key == o["keys"][kind], f"{key!r} vs {o['keys'][kind]!r}")
            for suffix in ("csv", "json"):
                data = (self.out_dir / f"{kind}.{suffix}").read_bytes()
                hashes[f"{kind}.{suffix}"] = hashlib.sha256(data).hexdigest()
        if self._hashes is None:
            self._hashes = hashes
        else:
            checks.expect("cli outputs byte-identical to the first pass",
                          hashes == self._hashes,
                          str(sorted(k for k in hashes if hashes[k] != self._hashes[k])))


def make(name: str, seed: int, workdir: Path):
    if name == "unit_exact":
        return UnitExact(seed)
    if name == "rd_cubes":
        return RdCubes(seed)
    if name == "tables":
        return Tables(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
