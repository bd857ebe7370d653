"""Rows to set beside ROADMAP.md's Baseline section.

    python3 bench/baseline.py [--repeats N]

Prints, each as the median of N runs (default 3):
* envelope on a k x k grid, k = 5 and 7 (n = 25 and 49 vertices), unit
  lengths and weights, theta = 1 at one corner, f = 0 except -1 at the
  opposite corner; through skelpot.potential.envelope with its default
  n-fold reoptimize check;
* the same grids with the curve generator's random lengths, weights,
  theta and f (seed 0);
* import time of skelpot and skelpot.cli in a fresh interpreter;
* a cold ``python -m skelpot.cli run`` of each built-in, spawn to exit.
"""

import argparse
import random
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import generators as gen
import run


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    repeats = parser.parse_args().repeats
    run.load_program()
    from skelpot import CurvatureData, MetrizedGraph, PLFunction, jsonio, scenarios
    from skelpot.potential import envelope

    print("env", run.environment())
    for k in (5, 7):
        labels = [f"{r},{c}" for r in range(k) for c in range(k)]
        edges = [(r * k + c, r * k + c + 1, 1, 1) for r in range(k) for c in range(k - 1)]
        edges += [(r * k + c, (r + 1) * k + c, 1, 1) for r in range(k - 1) for c in range(k)]
        g = MetrizedGraph(labels, edges)
        theta = CurvatureData(g, [1] + [0] * (k * k - 1))
        f = PLFunction(g, [0] * (k * k - 1) + [-1], None)
        t = _median_time(lambda: envelope(g, theta, f), repeats)
        print(f"envelope unit grid {k}x{k} (n={k * k}): {t:.3f} s")
        sc = gen._curve_envelope(random.Random(0), "grid", "grid", k, 0)
        t = _median_time(lambda: scenarios.execute(jsonio.loads(sc["text"])), repeats)
        print(f"envelope random grid {k}x{k} (n={k * k}), execute with SVGs: {t:.3f} s")

    env = run.child_env()
    t = _median_time(
        lambda: subprocess.run([sys.executable, "-c", run.IMPORT_CMD], env=env, check=True),
        repeats,
    )
    print(f"cold import of skelpot and skelpot.cli, spawn to exit: {t:.3f} s")
    for name in gen.BUILTINS:
        cmd = [sys.executable, "-m", "skelpot.cli", "run", name, "--out", str(run.WORK / "baseline")]
        t = _median_time(lambda: subprocess.run(cmd, env=env, check=True, capture_output=True), repeats)
        print(f"cold cli run {name}: {t:.3f} s")
    shutil.rmtree(run.WORK / "baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
