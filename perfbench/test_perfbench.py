"""Tests of the benchmark itself; they are not part of the package's test suite.

    python3 -m pytest perfbench/test_perfbench.py

A traced pass of each workload must report every per-layer metric, and two
traced passes must give identical work counts.  The correctness gate must
reject an output perturbed beyond its tolerance.
"""

import csv
import fnmatch
import json

import pytest

import gate
from run import REFERENCE, ROOT, Runner
from workloads import WORKLOADS

COUNTS = ("engine.traj_steps", "engine.chunks", "wiener.draws", "*.kernel_calls",
          "*.meanfield_nfev", "oracle.*.rhs_evals", "oracle.*.dim")
PER_LAYER = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
# the parent adds these two from untraced passes
PARENT_METRICS = {"engine.pool_speedup", "trace.overhead_frac"}


def traced_layers(workload, work):
    _, result, _ = Runner(workload, 0, work).child("trace", workers=1)
    assert result is not None and result["codes"] == [0] * len(WORKLOADS[workload])
    return result["layers"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    first = traced_layers(workload, tmp_path / "first")
    second = traced_layers(workload, tmp_path / "second")
    assert set(first) == PER_LAYER - PARENT_METRICS
    counts = [name for name in first if any(fnmatch.fnmatch(name, p) for p in COUNTS)]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    steps = sum(json.loads(REFERENCE.read_text())["commands"][c.label]["traj_steps"]
                for c in WORKLOADS[workload] if c.kind.startswith("stochastic"))
    assert first["engine.traj_steps"] == steps


def write_series(out, ref, sz_shift=0.0):
    out.mkdir()
    n = ref["n_points"]
    with open(out / "timeseries.csv", "w", newline="") as fh:
        rows = csv.writer(fh)
        rows.writerow(["t", "sz_mean", "sz_sem", "sz_norm", "photon_mean", "photon_sem"])
        for i in range(n):
            rows.writerow([ref["t_last"] * i / (n - 1), ref["sz_mean"][i] + sz_shift,
                           0.0, 0.0, ref["photon_mean"][i], 0.0])


@pytest.mark.parametrize("shift, failed", [(0.0, 0), (1e-7, 1)])
def test_gate_rejects_perturbed_oracle_series(tmp_path, shift, failed):
    ref = json.loads(REFERENCE.read_text())["commands"]["oracle-collective"]
    write_series(tmp_path / "out", ref, shift)
    assert gate.check("exact-series", tmp_path / "out", ref, False, 1)[0] == failed


@pytest.mark.parametrize("zeta_shift, failed", [(0.0, 0), (0.01, 0), (0.03, 4)])
def test_gate_bounds_zeta_of_other_seeds(tmp_path, zeta_shift, failed):
    ref = json.loads(REFERENCE.read_text())["commands"]["twa"]
    report = {"config": {"dt": ref["dt"]}, "zeta": ref["zeta"] + zeta_shift,
              "points": [{"n": n, "intensity": i, "sem": s} for n, i, s in ref["points"]]}
    (tmp_path / "report.json").write_text(json.dumps(report))
    assert gate.check("stochastic-sweep", tmp_path, ref, False, 4)[0] == failed
    assert gate.check("stochastic-sweep", tmp_path, ref, True, 4)[0] == (4 if zeta_shift else 0)
