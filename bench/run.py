"""The skelpot benchmark.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md), both in this process: ``curve-cli-mix`` calls
``skelpot.cli.main(["run", <file or built-in>, "--out", <dir>])`` per
scenario; ``testideal-mix`` runs generated scenarios through jsonio.loads
-> scenarios.execute -> jsonio.dumps.  Fresh interpreters only measure
set-up.  Scenarios come in blocks (generators.py) and a run stops only at a
block boundary, so every run has the same mix of kinds and sizes.

``--trace 0`` measures for about ``--seconds`` seconds of scenario time
and reports the end-to-end metrics.  ``--trace 1`` runs a fixed number of
blocks untraced, then the same blocks under the tracing shim (tracer.py),
and reports the per-module metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment stamp and a summary.  The program is the source tree
``src/skelpot`` next to this directory; without it the run exits with a
non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate as gate_mod
import generators as gen
import tracer as tr

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
OUT = BENCH / ".out"

SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
IMPORT_CMD = "import skelpot, skelpot.cli"

# Untraced seconds of one block on the reference machine (README).  A
# traced run times a number of blocks derived from these and --seconds
# only, so for one seed its counts repeat exactly.
NOMINAL_BLOCK_S = {"curve-cli-mix": 3.8, "testideal-mix": 2.6}

END_TO_END = {
    "setup_s": "s",
    "scenario_s.p50": "s",
    "scenario_s.p90": "s",
    "throughput_sps": "1/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for short, names in tr.TARGETS.items():
        for fname in names:
            units[f"{short}.{fname}.calls"] = "count"
            units[f"{short}.{fname}.self_s"] = "s"
            if (short, fname) == ("lp", "lp_solve"):
                for caller in tr.LP_CALLERS:
                    units[f"lp.lp_solve.by_{caller}.calls"] = "count"
                    units[f"lp.lp_solve.by_{caller}.self_s"] = "s"
                units["lp.lp_solve.infeasible_frac"] = "fraction"
                units["lp.lp_solve.max_vars"] = "count"
            if (short, fname) == ("rat", "solve_linear"):
                units["rat.solve_linear.max_n"] = "count"
    units["rat.max_bits"] = "bits"
    units["svg.render_svg.bytes"] = "bytes"
    units["import.skelpot_s"] = "s"
    units["import.jsonschema_s"] = "s"
    units["trace.overhead_frac"] = "fraction"
    return units


PER_LAYER = per_layer_units()


# ---------------------------------------------------------------------------
# Program, environment and set-up
# ---------------------------------------------------------------------------


def load_program():
    """Import skelpot from src/ of this checkout, or exit non-zero."""
    if not (SRC / "skelpot" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'skelpot'}")
    sys.path.insert(0, str(SRC))
    import skelpot

    if Path(skelpot.__file__).resolve().parent != (SRC / "skelpot").resolve():
        sys.exit(f"bench: skelpot was imported from {skelpot.__file__}, not from {SRC}")


def child_env() -> dict:
    """Environment of every child interpreter: skelpot from src/, and
    bytecode caching on whatever the caller set, as for an installed
    package (the first, untimed set-up run fills the cache)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _commit():
    try:
        p = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    base = SRC / "skelpot"
    for path in sorted(base.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(base).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    """Stamp for every output.  Runs are comparable only when their
    comparable_key (Rat backend and Python version) is equal."""
    from skelpot.rat import Rat

    cls = type(Rat(0))
    backend = f"{cls.__module__}.{cls.__qualname__}"
    python = platform.python_version()
    return {
        "rat_backend": backend,
        "python": python,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "comparable_key": f"{backend}|python-{python.rpartition('.')[0]}",
    }


def spawn_import(env) -> float:
    """Wall time of a fresh interpreter that imports skelpot and
    skelpot.cli, spawn to exit."""
    t0 = perf_counter()
    p = subprocess.run([sys.executable, "-c", IMPORT_CMD], env=env, capture_output=True)
    dt = perf_counter() - t0
    if p.returncode != 0:
        sys.exit(f"bench: importing skelpot failed: {p.stderr.decode()[-500:]}")
    return dt


class SetupSampler:
    """setup_s: the median of SETUP_REPEATS spawn_import times, spread over
    the run between blocks, so that they meet the machine in the same
    states as the scenarios do.  One untimed spawn first fills the bytecode
    caches."""

    def __init__(self, env, seconds):
        self.env, self.seconds = env, seconds
        self.times = []
        spawn_import(env)

    def after_block(self, tally):
        due = SETUP_REPEATS * min(1.0, tally.timed / self.seconds)
        while len(self.times) < due:
            self.times.append(spawn_import(self.env))

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self.times.append(spawn_import(self.env))
        return statistics.median(self.times)


def measure_imports(env) -> dict:
    """Median cumulative import seconds of skelpot (with skelpot.cli) and of
    jsonschema, from ``python -X importtime``; 0 for jsonschema when
    importing skelpot no longer imports it."""
    rows = {"skelpot": [], "jsonschema": []}
    for _ in range(IMPORTTIME_REPEATS):
        p = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CMD],
            env=env, capture_output=True, text=True,
        )
        if p.returncode != 0:
            sys.exit(f"bench: importing skelpot failed: {p.stderr[-500:]}")
        cumulative = {}
        for line in p.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = line[len("import time:"):].split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e6
        rows["skelpot"].append(cumulative["skelpot"] + cumulative["skelpot.cli"])
        rows["jsonschema"].append(cumulative.get("jsonschema", 0.0))
    return {f"import.{k}_s": statistics.median(v) for k, v in rows.items()}


def load_golden() -> dict:
    with open(BENCH / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Runners: one scenario, timed, with its outputs for the gate
# ---------------------------------------------------------------------------


class InProcess:
    def __init__(self):
        from skelpot import jsonio, scenarios

        self.jsonio, self.scenarios = jsonio, scenarios
        self.tracer = None

    def prepare(self, block):
        pass

    def run(self, sc):
        j, s = self.jsonio, self.scenarios
        if self.tracer is not None:
            self.tracer.scenario += 1
        t0 = perf_counter()
        try:
            payload = s.load_builtin(sc["builtin"]) if sc.get("builtin") else j.loads(sc["text"])
            out = s.execute(payload)
            outcome = {"exit": None, "error": None, "result": j.dumps(out.result),
                       "figures": out.figures, "stderr": ""}
        except Exception as ex:  # noqa: BLE001 - the gate judges the exception
            outcome = {"exit": None, "error": type(ex).__name__, "result": None,
                       "figures": {}, "stderr": str(ex)}
        return perf_counter() - t0, outcome

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class InProcessCli(InProcess):
    """``skelpot.cli.main(["run", <file or built-in>, "--out", <dir>])`` in
    this process, one call per scenario: argument parsing, file loading,
    validation, execution, rendering, file writes, the exit code and the
    error JSON of a shell run.  Interpreter start and imports are what
    setup_s measures."""

    def __init__(self):
        super().__init__()
        import skelpot.cli

        self.cli = skelpot.cli
        self.paths = {}

    def prepare(self, block):
        shutil.rmtree(WORK / "in", ignore_errors=True)
        (WORK / "in").mkdir(parents=True)
        self.paths = {}
        for sc in block:
            if sc["text"] is not None:
                path = WORK / "in" / f"{sc['slot']}.json"
                path.write_text(sc["text"], encoding="utf-8")
                self.paths[sc["slot"]] = str(path)

    def run(self, sc):
        outdir = WORK / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = ["run", sc.get("builtin") or self.paths[sc["slot"]], "--out", str(outdir)]
        if self.tracer is not None:
            self.tracer.scenario += 1
        stderr = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = self.cli.main(argv)
        dt = perf_counter() - t0
        outcome = {"exit": code, "error": None, "result": None, "figures": {},
                   "stderr": stderr.getvalue()}
        if code == 0 and (outdir / "result.json").is_file():
            outcome["result"] = (outdir / "result.json").read_text(encoding="utf-8")
            outcome["figures"] = {
                p.name: p.read_text(encoding="utf-8") for p in sorted(outdir.glob("*.svg"))
            }
        return dt, outcome


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.samples = []
        self.by_slot = {}
        self.timed = 0.0
        self.blocks = 0

    def add(self, sc, seconds):
        self.samples.append(seconds)
        self.by_slot.setdefault(sc["slot"], []).append(seconds)
        self.timed += seconds

    def slot_medians(self) -> dict:
        return {slot: statistics.median(v) for slot, v in self.by_slot.items()}


def run_blocks(runner, gate, workload, seed, tally, *, seconds=None, n_blocks=None,
               after_block=None):
    """Run whole blocks, scenario after scenario, timing each.  With
    `seconds`, stop before a block that would end more than half a block
    past it; with `n_blocks`, run exactly that many.  Outputs are checked
    after each block, outside the timed region, and then `after_block`
    is called with the tally."""
    index = 0
    while True:
        if n_blocks is not None and index >= n_blocks:
            break
        if seconds is not None and index and tally.timed * (1 + 0.5 / index) >= seconds:
            break
        block = gen.block(workload, seed, index)
        runner.prepare(block)
        outcomes = []
        for sc in block:
            dt, outcome = runner.run(sc)
            tally.add(sc, dt)
            outcomes.append(outcome)
        for sc, outcome in zip(block, outcomes):
            gate.check(sc, outcome)
        index += 1
        tally.blocks += 1
        if after_block is not None:
            after_block(tally)


def golden_pass(gate, workload) -> int:
    """Run the golden block in process, untimed, and check its digests.
    Built-ins and copies of them are checked in every curve-cli-mix block."""
    runner = InProcess()
    count = 0
    for sc in gen.block(workload, gen.GOLDEN_SEED, 0):
        if sc.get("builtin") or sc["expect"].get("digests_of"):
            continue
        _, outcome = runner.run(sc)
        gate.check(sc, outcome)
        count += 1
    return count


def quantile(samples, q: int) -> float:
    """The q-th percentile (q in 1..99), inclusive method."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def trace_blocks(workload: str, seconds: int) -> int:
    return max(1, round(0.35 * seconds / NOMINAL_BLOCK_S[workload]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    load_program()
    env = child_env()
    stamp = environment()
    print("env " + json.dumps(stamp, sort_keys=True), flush=True)
    gate = gate_mod.Gate(load_golden()["digests"])
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        n_golden = golden_pass(gate, args.workload)
        runner = InProcessCli() if args.workload == "curve-cli-mix" else InProcess()
        tally = Tally()
        if args.trace == 0:
            setup = SetupSampler(env, args.seconds)
            run_blocks(runner, gate, args.workload, args.seed, tally, seconds=args.seconds,
                       after_block=setup.after_block)
            metrics = {
                "setup_s": setup.median(),
                "scenario_s.p50": statistics.median(tally.samples),
                "scenario_s.p90": quantile(tally.samples, 90),
                "throughput_sps": len(tally.samples) / tally.timed,
                "peak_rss_mb": runner.peak_rss_mb(),
            }
            units = END_TO_END
        else:
            metrics = trace_run(runner, gate, args, tally, env, stamp)
            units = PER_LAYER
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = len(tally.samples) + n_golden
    failed = gate.failed
    for name, problem in gate.failures[:20]:
        print(f"bench: FAILED {name}: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(tally.samples)} scenarios "
        f"in {tally.blocks} blocks, {tally.timed:.2f} s timed; golden {n_golden} scenarios, "
        f"{gate.checked_digests} digest checks; failed_frac={failed / attempted}"
    )
    print("slot medians (s) " + json.dumps(tally.slot_medians()))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def trace_run(runner, gate, args, tally, env, stamp) -> dict:
    """Untraced then traced over the same fixed blocks; per-layer metrics."""
    k = trace_blocks(args.workload, args.seconds)
    plain = Tally()
    run_blocks(runner, gate, args.workload, args.seed, plain, n_blocks=k)
    tracer = tr.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        run_blocks(runner, gate, args.workload, args.seed, tally, n_blocks=k)
    finally:
        tracer.uninstall()
    metrics = tr.aggregate(tracer.spans, tracer.stats)
    metrics.update(measure_imports(env))
    metrics["trace.overhead_frac"] = tally.timed / plain.timed - 1
    tally.samples += plain.samples
    tally.blocks += plain.blocks
    tally.timed += plain.timed
    OUT.mkdir(exist_ok=True)
    header = {"env": stamp, "workload": args.workload, "seed": args.seed,
              "blocks": k, "metrics": metrics}
    tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz", header)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
