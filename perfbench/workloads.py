"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Each workload builds every input at set-up from the workload seed and then
repeats one operation on those same inputs, so every operation of a run does
the same work and the median operation time is a steady statistic.  An
operation calls ``csgs`` only through its public API or its CLI entry point
``csgs.cli.run_cli``; its outputs are checked by :mod:`checker`, which does
not import ``csgs``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

import checker

import csgs
import csgs.solver
from csgs.cli import run_cli
from csgs.config import parse_config


class OpFailed(Exception):
    """An operation that did not complete: a CLI exit code other than 0."""


class SetupError(Exception):
    """Generated inputs that the program rejects; a fault of the benchmark."""


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_cli(list(argv))
    if code != 0:
        raise OpFailed(f"csgs {' '.join(argv)} exited with {code}")


def _constant(value: float) -> str:
    return f"kind = constant\nvalue = {value!r}\n"


def _gaussian(base: float, amp: float, sigma: float) -> str:
    return f"kind = gaussian\nbase = {base!r}\namp = {amp!r}\nsigma = {sigma!r}\n"


def _config(grid: str, problem: str, potentials: str, extra: str = "") -> str:
    return f"[grid]\n{grid}\n[problem]\n{problem}\n[potentials]\n{potentials}\n{extra}"


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    parse_config(text)  # a generated config must parse before it is timed
    return path


def _warm_up(grid, ps, spec) -> None:
    """Fill the FFT plan cache and the grid's lazy geometry once."""
    fp = csgs.solver.initial_pair(grid, csgs.SolveOptions())
    csgs.pair_invariants(fp, ps, spec, grid)
    csgs.energy_gradient(fp, ps, spec, grid)
    if grid.is_periodic:
        csgs.grid.spectral_partials(fp.u, grid)


class Sweep3D:
    """``sweep_mu`` at critical q = 6 on a spectral 24^3 box, threshold estimated inside.

    V1 = V2 = 1, lambda = 0.9, delta = 0.9, p = 4, L = 6.  The mu schedule
    straddles the continuum threshold S^(3/2)/3 (level about 5 at mu = 1,
    about 0.8 at mu = 16); the seed jitters each mu by up to 10 %.  The first mu
    is solved cold, every later one warm and cold.
    """

    name = "sweep-3d"
    N, L = 24, 6.0
    BASE_MUS = (1.0, 16.0)
    GRAD_TOL = 1e-6

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.mus = [m * 2.0 ** rng.uniform(-0.14, 0.14) for m in self.BASE_MUS]
        C = csgs.PotentialDef.constant
        self.grid = csgs.build_grid(csgs.GridSpec(3, self.L, self.N))
        self.ps = csgs.sample_potentials((C(1.0), C(1.0), C(0.9)), 0.9, self.grid)
        if not csgs.validate_assumptions(self.ps, "periodic").overall:
            raise SetupError("sweep-3d potentials fail periodic validation")
        self.spec = csgs.ProblemSpec(3, 4.0, 6.0, self.mus[0])
        self.opts = csgs.SolveOptions(grad_tol=self.GRAD_TOL)
        _warm_up(self.grid, self.ps, self.spec)
        box = checker.Box(3, self.L, self.N)
        ones = np.ones(box.shape)
        self.problems = {
            mu: checker.Problem(box, ones, ones, 0.9 * ones, 0.9, 4.0, 6.0, mu) for mu in self.mus
        }

    def op(self):
        # record each solve sweep_mu makes, so that warm and cold starts can be
        # compared; the sweep itself keeps only the lower of the two
        solves = []
        inner = csgs.solver.minimize_ground_state

        def recording(ps, spec, grid, opts=None, init_field=None):
            rep = inner(ps, spec, grid, opts, init_field=init_field)
            solves.append((spec.mu, init_field is not None, rep))
            return rep

        csgs.solver.minimize_ground_state = recording
        try:
            sweep = csgs.sweep_mu(self.ps, self.spec, self.grid, self.mus, self.opts)
        finally:
            csgs.solver.minimize_ground_state = inner
        if not all(sweep.converged):
            raise OpFailed(f"sweep did not converge at every mu: {sweep.converged}")
        return sweep, solves

    def check(self, out) -> list[str]:
        sweep, solves = out
        problems = []
        for mu, rep in zip(sweep.mu_values, sweep.reports):
            problems += checker.check_ground_state(
                rep.field.u, rep.field.v, rep.energy, self.problems[mu], self.GRAD_TOL, f"mu={mu}"
            )
        pairs = []
        for mu in sweep.mu_values[1:]:
            found = {warm: rep.energy for m, warm, rep in solves if m == mu}
            if set(found) == {True, False}:
                pairs.append((mu, found[True], found[False]))
        problems += checker.check_sweep(sweep.mu_values, sweep.energies, pairs)
        return problems


class Ground1D:
    """CLI ``solve`` and ``compare`` on 1-D n = 128 boxes, plus ``nonneg_refine``.

    One operation: ``solve`` on the constant set (V1 = V2 = 1, lambda = 0.3,
    delta = 0.3, p = q = 4, mu = 1, Gaussian-bump start); ``compare`` of the
    Gaussian-perturbed set against its periodic reference (V = 2, lambda = 0.4);
    ``solve`` of the constant set from random starts for three seeds drawn from
    the workload seed; and one library solve from a fourth seed, refined by
    ``nonneg_refine``.
    """

    name = "ground-1d"
    N, L = 128, 4.0
    GRAD_TOL = 1e-6
    CLI_SEEDS = 3

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        seeds = rng.choice(2**31, size=self.CLI_SEEDS + 1, replace=False)
        self.cli_seeds = [str(int(s)) for s in seeds[:-1]]
        self.lib_seed = int(seeds[-1])
        self.work = work
        grid = f"dim = 1\nhalf_width = {self.L}\npoints_per_dim = {self.N}\n"
        problem = "p = 4.0\nq = 4.0\nmu = 1.0\n"
        constant = (
            "[potential.v1]\n" + _constant(1.0) + "[potential.v2]\n" + _constant(1.0)
            + "[potential.lambda]\n" + _constant(0.3)
        )
        self.cfg_const = _write(
            work / "const.cfg",
            _config(grid, problem, "delta = 0.3\nmode = periodic-strict\n", constant),
        )
        self.cfg_random = _write(
            work / "random.cfg",
            _config(
                grid, problem, "delta = 0.3\nmode = periodic-strict\n",
                constant + "[solver]\ninit = random\n",
            ),
        )
        self.cfg_compare = _write(
            work / "compare.cfg",
            _config(
                grid, problem, "delta = 0.5\nmode = asymptotic\n",
                "[potential.v1]\n" + _gaussian(2.0, -0.5, 1.0)
                + "[potential.v2]\n" + _gaussian(2.0, -0.5, 1.0)
                + "[potential.lambda]\n" + _gaussian(0.4, 0.1, 1.0)
                + "[reference.v1]\n" + _constant(2.0) + "[reference.v2]\n" + _constant(2.0)
                + "[reference.lambda]\n" + _constant(0.4),
            ),
        )
        C = csgs.PotentialDef.constant
        self.grid = csgs.build_grid(csgs.GridSpec(1, self.L, self.N))
        self.ps = csgs.sample_potentials((C(1.0), C(1.0), C(0.3)), 0.3, self.grid)
        if not csgs.validate_assumptions(self.ps, "periodic-strict").overall:
            raise SetupError("ground-1d potentials fail periodic-strict validation")
        self.spec = csgs.ProblemSpec(1, 4.0, 4.0, 1.0)
        self.opts = csgs.SolveOptions(init="random", seed=self.lib_seed, grad_tol=self.GRAD_TOL)
        _warm_up(self.grid, self.ps, self.spec)
        box = checker.Box(1, self.L, self.N)
        ones = np.ones(box.shape)
        self.problem = checker.Problem(box, ones, ones, 0.3 * ones, 0.3, 4.0, 4.0, 1.0)

    def op(self):
        w = self.work
        _cli("solve", "--config", str(self.cfg_const), "--out", str(w / "const"))
        _cli("compare", "--config", str(self.cfg_compare), "--out", str(w / "compare"))
        for i, seed in enumerate(self.cli_seeds):
            _cli("solve", "--config", str(self.cfg_random), "--out", str(w / f"random{i}"),
                 "--seed", seed)
        rep = csgs.minimize_ground_state(self.ps, self.spec, self.grid, self.opts)
        refined = csgs.nonneg_refine(rep, self.ps, self.spec, self.grid)
        if not (rep.converged and refined.converged):
            raise OpFailed("library solve or its refinement did not converge")
        return rep, refined

    def _solve_output(self, name: str) -> tuple[np.ndarray, np.ndarray, float]:
        u, v, _, _ = checker.read_field(self.work / name / "field.csgs")
        energy = float(checker.read_csv(self.work / name / "solve_trace.csv")[-1][1])
        return u, v, energy

    def check(self, out) -> list[str]:
        rep, refined = out
        problems, levels = [], []
        try:
            outputs = [(n, *self._solve_output(n)) for n in
                       ["const"] + [f"random{i}" for i in range(self.CLI_SEEDS)]]
            cmp_row = checker.read_csv(self.work / "compare" / "compare.csv")[1]
            c_periodic, c_asym = float(cmp_row[0]), float(cmp_row[1])
        except (OSError, ValueError, IndexError) as exc:
            return [f"unreadable CLI output: {exc}"]
        outputs.append(("library", rep.field.u, rep.field.v, rep.energy))
        outputs.append(("refined", refined.field.u, refined.field.v, refined.energy))
        for tag, u, v, energy in outputs:
            problems += checker.check_ground_state(u, v, energy, self.problem, self.GRAD_TOL, tag)
            levels.append(energy)
        problems += checker.check_seed_levels(levels)
        if not (np.all(refined.field.u > 0.0) and np.all(refined.field.v > 0.0)):
            problems.append("refined field is not strictly positive")
        if not c_asym < c_periodic:
            problems.append(f"asymptotic level {c_asym!r} not below periodic {c_periodic!r}")
        return problems


class Critical3D:
    """CLI ``sobolev`` on fd2 periodic boxes and ``pohozaev`` in nonexistence mode.

    One operation: the Sobolev estimate at n = 32, 48, 64 (L = 8), then the
    dilation identity and the nonexistence certificate (p = q = 6) for a
    strictly positive candidate read from a 96^3 field file.  The seed draws
    the Gaussian potentials (V1, V2 rising outward, lambda falling, all within
    the coupling bound), mu, and the candidate's bubble scales and offsets.
    """

    name = "critical-3d"
    L = 8.0
    SOBOLEV_NS = (32, 48, 64)
    N = 96
    DELTA = 0.5

    def __init__(self, work: Path, seed: int):
        rng = np.random.default_rng(seed)
        self.work = work
        b1, b2 = rng.uniform(1.0, 2.0, size=2)
        a1, a2 = b1 * rng.uniform(0.2, 0.6), b2 * rng.uniform(0.2, 0.6)
        s1, s2, sl = rng.uniform(1.5, 3.0, size=3)
        lam_max = 0.9 * self.DELTA * np.sqrt((b1 - a1) * (b2 - a2))
        al = lam_max * rng.uniform(0.2, 0.8)
        defs = ((b1, -a1, s1), (b2, -a2, s2), (lam_max - al, al, sl))
        defs = tuple(tuple(float(x) for x in d) for d in defs)
        mu = float(rng.uniform(0.5, 2.0))

        for n in self.SOBOLEV_NS:
            _write(
                work / f"sobolev{n}.cfg",
                _config(
                    f"dim = 3\nhalf_width = {self.L}\npoints_per_dim = {n}\nlaplacian = fd2\n",
                    "p = 6.0\nq = 6.0\nmu = 0.0\n",
                    "delta = 0.5\n",
                    "[potential.v1]\n" + _constant(0.0) + "[potential.v2]\n" + _constant(0.0)
                    + "[potential.lambda]\n" + _constant(0.0),
                ),
            )
        box = checker.Box(3, self.L, self.N, "fd2")
        self.u = rng.uniform(0.5, 1.5) * checker.bubble(box, rng.uniform(0.5, 1.5))
        self.u += rng.uniform(0.001, 0.05)
        self.v = rng.uniform(0.5, 1.5) * checker.bubble(box, rng.uniform(0.5, 1.5))
        self.v += rng.uniform(0.001, 0.05)
        field = work / "candidate.csgs"
        checker.write_field(field, self.u, self.v, self.L)
        self.cfg_pohozaev = _write(
            work / "pohozaev.cfg",
            _config(
                f"dim = 3\nhalf_width = {self.L}\npoints_per_dim = {self.N}\nlaplacian = fd2\n",
                f"p = 6.0\nq = 6.0\nmu = {mu!r}\n",
                f"delta = {self.DELTA}\nmode = nonexistence\n",
                "[potential.v1]\n" + _gaussian(*defs[0]) + "[potential.v2]\n" + _gaussian(*defs[1])
                + "[potential.lambda]\n" + _gaussian(*defs[2]) + f"[pohozaev]\nfield = {field}\n",
            ),
        )

        grid = csgs.build_grid(csgs.GridSpec(3, self.L, self.N, "periodic", "fd2"))
        G = csgs.PotentialDef.gaussian
        ps = csgs.sample_potentials(tuple(G(*d) for d in defs), self.DELTA, grid)
        if not csgs.validate_assumptions(ps, "nonexistence").overall:
            raise SetupError("critical-3d potentials fail nonexistence validation")
        _warm_up(grid, ps, csgs.ProblemSpec(3, 6.0, 6.0, mu))
        for n in self.SOBOLEV_NS:
            g = csgs.build_grid(csgs.GridSpec(3, self.L, n, "periodic", "fd2"))
            csgs.apply_laplacian(csgs.aubin_talenti_bubble(g), g)

        r2 = box.radius_sq()
        v1, v2, lam = (base + amp * np.exp(-r2 / sigma**2) for base, amp, sigma in defs)
        self.problem = checker.Problem(box, v1, v2, lam, self.DELTA, 6.0, 6.0, mu)
        self.boxes = {n: checker.Box(3, self.L, n, "fd2") for n in self.SOBOLEV_NS}

    def op(self):
        w = self.work
        for n in self.SOBOLEV_NS:
            _cli("sobolev", "--config", str(w / f"sobolev{n}.cfg"), "--out", str(w / f"sobolev{n}"))
        _cli("pohozaev", "--config", str(self.cfg_pohozaev), "--out", str(w / "pohozaev"))

    def check(self, out) -> list[str]:
        w = self.work
        try:
            estimates = {}
            for n in self.SOBOLEV_NS:
                rows = checker.read_quantities(w / f"sobolev{n}" / "sobolev.csv")
                estimates[n] = (float(rows["sobolev_constant"]), float(rows["bubble_quotient"]))
            lhs = float(checker.read_quantities(w / "pohozaev" / "pohozaev.csv")["lhs"])
            q = float(checker.read_quantities(w / "pohozaev" / "nonexistence.csv")["q_value"])
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable CLI output: {exc}"]
        problems = checker.check_sobolev(estimates, self.boxes)
        problems += checker.check_certificate(self.u, self.v, self.problem, q, lhs)
        return problems


WORKLOADS = {w.name: w for w in (Sweep3D, Ground1D, Critical3D)}
