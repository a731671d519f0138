#!/usr/bin/env python3
"""Interleaved A/B timing of two csgs source trees' Nehari descent, in one process.

    python tests/abtime.py PARENT_ROOT CHANGE_ROOT --dim 1 --n 128 --iters 150 --reps 40

Loads ``PARENT_ROOT/src/csgs`` and ``CHANGE_ROOT/src/csgs`` as two separate
packages and alternates the two sides' ``minimize_ground_state`` on one
problem: the spectral box [-6, 6)^dim with n nodes per axis, V1 = V2 = 1,
lambda = delta = 0.9, p = 4, q = 6, mu = 4, Gaussian-bump start, at most
``--iters`` iterations (the gradient tolerance is 1e-300, so a solve stops
early only if its line search stagnates).  Each repetition runs both sides
once, the side that goes first alternating.  Prints each side's median ms per
iteration and how many repetitions it won (a tie counts for neither), and
exits 1 if the sides' energy bits or iteration counts differ.  Interleaving
in one process takes machine drift out of the comparison, which separate
benchmark processes do not.  Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def load(root: Path, name: str):
    """``root/src/csgs`` imported as the package ``name``, apart from any other csgs."""
    init = root / "src" / "csgs" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def problem(csgs, dim: int, n: int, iters: int):
    """The solve's arguments, built from one side's own classes."""
    grid = csgs.build_grid(csgs.GridSpec(dim, 6.0, n))
    const = csgs.PotentialDef.constant
    ps = csgs.sample_potentials((const(1.0), const(1.0), const(0.9)), 0.9, grid)
    spec = csgs.ProblemSpec(dim, 4.0, 6.0, 4.0)
    return ps, spec, grid, csgs.SolveOptions(max_iters=iters, grad_tol=1e-300)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--dim", type=int, default=1, choices=(1, 2, 3))
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--iters", type=int, default=150)
    ap.add_argument("--reps", type=int, default=40)
    args = ap.parse_args(argv)

    packages = [load(root, f"csgs_{side}") for root, side in
                zip((args.parent_root, args.change_root), SIDES)]
    solves = []
    for csgs in packages:
        solve = csgs.solver.minimize_ground_state
        call_args = problem(csgs, args.dim, args.n, args.iters)
        solve(*call_args)  # warm the FFT plans and the grid's lazy geometry
        solves.append((solve, call_args))

    ms_per_iter: list[list[float]] = [[], []]
    results: list[set[tuple[str, int]]] = [set(), set()]
    wins = [0, 0]
    for rep in range(args.reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for side in order:
            solve, call_args = solves[side]
            t0 = time.perf_counter()
            report = solve(*call_args)
            elapsed = time.perf_counter() - t0
            ms_per_iter[side].append(elapsed * 1e3 / max(report.iterations, 1))
            results[side].add((report.energy.hex(), report.iterations))
        a, b = ms_per_iter[0][-1], ms_per_iter[1][-1]
        if a != b:
            wins[0 if a < b else 1] += 1

    for side, name in enumerate(SIDES):
        print(f"{name}: {statistics.median(ms_per_iter[side]):.4f} ms/iter median, "
              f"won {wins[side]} of {args.reps}")
    for side, name in enumerate(SIDES):
        print(f"{name}: (energy hex, iterations) {sorted(results[side])}")
    if results[0] != results[1] or len(results[0]) != 1:
        print("error: the energies or iteration counts differ between sides or repetitions",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
