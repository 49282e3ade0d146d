"""cavity-sr benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload twa-sweep --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from `src/`.
Every pass of a workload is a fresh interpreter (child.py) that runs the
workload's commands through `cavity_sr.cli.cli_dispatch`, and every pass is
checked by gate.py.  The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it records the
seed, the machine and the samples behind each median.

--trace 0 reports the end-to-end metrics:
  setup_s            median of SETUP_SAMPLES fresh interpreters, each timed from
                     spawn to the end of argument parsing and validation
  wall_s             median wall time of a pass after setup (solve, analysis, output)
  traj_steps_per_s   trajectory-steps of a pass over its wall time; a
                     deterministic solver counts as one trajectory on the dt grid
  peak_rss_mib       median peak resident memory of a pass's process
  ok_frac            operations that passed over operations attempted
Passes repeat until the next one would end after --seconds.

--trace 1 repeats rounds of three passes until the next round would end after
--seconds: a traced pass with one engine worker (tracer.py), an untraced
one-worker pass and an untraced default pass.  It reports the per-layer
metrics of the traced passes (medians), engine.pool_speedup (median one-worker
wall time over the default's) and trace.overhead_frac (median traced over
median untraced one-worker wall time, minus one).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gate
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKERS_ENV = "CAVITY_SR_MAX_WORKERS"
SETUP_SAMPLES = 5
TIME_LIMIT_S = 165.0        # the whole run must end within 180 s


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here, e.g. the package is not in the checkout."""


class Runner:
    """Starts child passes of one workload in a work directory of the checkout."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.commands = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.started = perf_counter()
        self.n_passes = 0
        env = {k: v for k, v in os.environ.items() if k != WORKERS_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def remaining(self) -> float:
        return TIME_LIMIT_S - (perf_counter() - self.started)

    def child(self, mode: str, workers: int | None = None):
        """Run one child pass; return (spawn time, result dict or None, out dir)."""
        self.n_passes += 1
        out = self.work / f"pass{self.n_passes}"
        out.mkdir(parents=True)
        spec = {"mode": mode, "result": str(out / "result.json"),
                "commands": [c.cli_args(self.seed, str(out / c.label))
                             for c in self.commands]}
        (out / "spec.json").write_text(json.dumps(spec))
        env = dict(self.env)
        if workers is not None:
            env[WORKERS_ENV] = str(workers)
        spawned = perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(out / "spec.json")],
                                  cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            print(f"{mode} pass timed out", file=sys.stderr)
            return spawned, None, out
        sys.stderr.write(proc.stderr[-4000:])
        if proc.returncode != 0 or not (out / "result.json").exists():
            return spawned, None, out
        return spawned, json.loads((out / "result.json").read_text()), out

    def time_for_another(self, start: float, last: float, seconds: float) -> bool:
        """Whether another pass (or round) taking `last` seconds ends in time."""
        return perf_counter() - start + last <= seconds and self.remaining() >= 2 * last

    def setup_sample(self) -> float:
        spawned, result, out = self.child("setup")
        shutil.rmtree(out)
        if result is None or result["code"] != 1:
            raise BenchmarkError("the setup probe could not import, parse and "
                                 "validate through cavity_sr.cli")
        return result["ready"] - spawned


class Checker:
    """Counts the operations of each pass and checks their outputs."""

    def __init__(self, commands, seed: int):
        self.reference = json.loads(REFERENCE.read_text())
        self.commands = commands
        self.exact_bits = seed == self.reference["seed"]
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0

    def traj_steps(self) -> int:
        return sum(self.reference["commands"][c.label]["traj_steps"] for c in self.commands)

    def add(self, result, out: Path) -> None:
        for i, command in enumerate(self.commands):
            n_ops = len(command.n_values)
            self.attempted += n_ops
            if result is None or i >= len(result["codes"]) or result["codes"][i] != 0:
                self.failed += n_ops
                continue
            ref = self.reference["commands"][command.label]
            failed, fingerprint = gate.check(command.kind, out / command.label, ref,
                                             self.exact_bits, n_ops)
            if fingerprint is None or \
                    self.fingerprints.setdefault(command.label, fingerprint) != fingerprint:
                failed = n_ops          # unreadable, or not bit-identical to the first pass
            if failed:
                print(f"{command.label}: {failed} of {n_ops} operations failed the "
                      f"correctness check", file=sys.stderr)
            self.failed += failed


def measure(runner: Runner, checks: Checker, seconds: float):
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    passes = []
    start = perf_counter()
    while True:
        spawned, result, out = runner.child("run")
        checks.add(result, out)
        shutil.rmtree(out)
        if result is None:
            break
        passes.append(result)
        if not runner.time_for_another(start, perf_counter() - spawned, seconds):
            break
    if not passes:
        raise BenchmarkError("no pass of the workload completed")
    walls = [p["wall_s"] for p in passes]
    steps = checks.traj_steps()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "traj_steps_per_s": (statistics.median(steps / w for w in walls), "1/s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
        "ok_frac": (1.0 - checks.failed / checks.attempted, "frac"),
    }
    record = {"setup_samples": setup, "wall_samples": walls,
              "engine_workers": os.cpu_count(), "versions": passes[0]["versions"]}
    return metrics, record


def trace(runner: Runner, checks: Checker, seconds: float):
    passes = (("traced", "trace", 1), ("one_worker", "run", 1), ("default", "run", None))
    rounds = []
    start = perf_counter()
    while True:
        began = perf_counter()
        results = {}
        for name, mode, workers in passes:
            _, result, out = runner.child(mode, workers)
            checks.add(result, out)
            shutil.rmtree(out)
            if result is None:
                raise BenchmarkError(f"the {name} pass did not complete")
            results[name] = result
        rounds.append(results)
        if not runner.time_for_another(start, perf_counter() - began, seconds):
            break
    walls = {name: [r[name]["wall_s"] for r in rounds] for name, _, _ in passes}
    wall = {name: statistics.median(samples) for name, samples in walls.items()}
    traced = [r["traced"]["layers"] for r in rounds]
    layers = {name: statistics.median_low(t[name] for t in traced) for name in traced[0]}
    layers["engine.pool_speedup"] = wall["one_worker"] / wall["default"]
    layers["trace.overhead_frac"] = wall["traced"] / wall["one_worker"] - 1.0
    units = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {m["name"]: m["unit"] for m in units}
    metrics = {name: (value, units.get(name, "")) for name, value in layers.items()}
    record = {"wall_samples": walls,
              "engine_workers": {"traced": 1, "one_worker": 1, "default": os.cpu_count()},
              "missing_wrapped_names": rounds[0]["traced"]["missing"],
              "missing_metrics": sorted(set(units) - set(metrics)),
              "versions": rounds[0]["traced"]["versions"]}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if not (ROOT / "src" / "cavity_sr").is_dir():
            raise BenchmarkError(f"no cavity_sr package under {ROOT / 'src'}")
        runner = Runner(args.workload, args.seed, work)
        checks = Checker(runner.commands, args.seed)
        runner.setup_sample()           # warms the file cache and the bytecode cache
        if args.trace:
            metrics, record = trace(runner, checks, args.seconds)
        else:
            metrics, record = measure(runner, checks, args.seconds)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:                 # another run is still using it
            pass

    record.update(workload=args.workload, seed=args.seed, nproc=os.cpu_count(),
                  attempted=checks.attempted, failed=checks.failed)
    print(json.dumps(record))
    print(json.dumps({
        "correct": checks.failed == 0, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
