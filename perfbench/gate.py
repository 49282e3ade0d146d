"""Correctness gate: checks one command's output directory against reference.json.

With the reference seed, stochastic outputs must equal the reference bit for
bit.  With any other seed they must agree with it within the ensemble's
statistical error, and a sweep's zeta within the convergence tolerance.
Deterministic (oracle and mean-field) outputs must be within 1e-9 of the
reference whatever the seed.  Each check returns how many of the command's
operations (one per atom number) failed, and a fingerprint of the output for
the check that repeats of one seed are bit-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

EXACT_TOL = 1e-9
ZETA_TOL = 0.02         # ConvergenceVerdict.TOLERANCE
STAT_Z = 6.0            # allowed deviation from the reference, in standard errors
STAT_COLUMNS = ("sz_mean", "sz_sem", "photon_mean", "photon_sem")
STAT_DIGITS = 6         # significant digits kept for the statistical reference


def read_series(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {key: [float(row[key]) for row in rows] for key in rows[0]}


def read_sweep(path: Path) -> dict:
    report = json.loads(path.read_text())
    return {"dt": report["config"]["dt"], "zeta": report["zeta"],
            "points": [[p["n"], p["intensity"], p["sem"]] for p in report["points"]]}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rounded(values):
    return [float(f"{v:.{STAT_DIGITS}g}") for v in values]


def reference_entry(kind: str, out: Path) -> dict:
    """The reference record of one command's output directory."""
    if kind.endswith("sweep"):
        return read_sweep(out / "report.json")
    series = read_series(out / "timeseries.csv")
    entry = {"n_points": len(series["t"]), "t_last": series["t"][-1]}
    if kind == "exact-series":
        entry.update(sz_mean=series["sz_mean"], photon_mean=series["photon_mean"])
    else:
        entry["sha256"] = sha256(out / "timeseries.csv")
        entry.update({key: rounded(series[key]) for key in STAT_COLUMNS})
    return entry


def _close(value, ref, tol=EXACT_TOL):
    return abs(value - ref) <= tol * max(1.0, abs(ref))


def _within_error(value, sem, ref, ref_sem):
    # the reference is rounded to STAT_DIGITS, which its tolerance absorbs
    slack = 10.0 ** (1 - STAT_DIGITS) * max(1.0, abs(ref))
    return abs(value - ref) <= STAT_Z * math.hypot(sem, ref_sem) + slack


def check(kind: str, out: Path, ref: dict, exact_bits: bool, n_ops: int):
    """(number of failed operations, output fingerprint) for one command."""
    try:
        if kind.endswith("sweep"):
            return _check_sweep(kind, read_sweep(out / "report.json"), ref, exact_bits, n_ops)
        series = read_series(out / "timeseries.csv")
        fingerprint = sha256(out / "timeseries.csv")
    except (OSError, ValueError, KeyError, IndexError):
        return n_ops, None
    if len(series["t"]) != ref["n_points"] or not _close(series["t"][-1], ref["t_last"]):
        return n_ops, fingerprint
    if kind == "exact-series":
        ok = all(_close(v, r) for key in ("sz_mean", "photon_mean")
                 for v, r in zip(series[key], ref[key]))
    elif exact_bits:
        ok = fingerprint == ref["sha256"]
    else:
        ok = all(_within_error(series[key][i], series[sem][i], ref[key][i], ref[sem][i])
                 for key, sem in (("sz_mean", "sz_sem"), ("photon_mean", "photon_sem"))
                 for i in range(len(series["t"])))
    return (0 if ok else n_ops), fingerprint


def _check_sweep(kind, report, ref, exact_bits, n_ops):
    fingerprint = json.dumps([report["points"], report["zeta"]])
    if report["dt"] != ref["dt"] or len(report["points"]) != len(ref["points"]):
        return n_ops, fingerprint
    if kind == "exact-sweep":
        zeta_ok = _close(report["zeta"], ref["zeta"])
    elif exact_bits:
        zeta_ok = report["zeta"] == ref["zeta"]
    else:
        zeta_ok = abs(report["zeta"] - ref["zeta"]) <= ZETA_TOL
    if not zeta_ok:
        return n_ops, fingerprint
    failed = 0
    for (n, i, sem), (ref_n, ref_i, ref_sem) in zip(report["points"], ref["points"]):
        if kind == "exact-sweep":
            ok = _close(i, ref_i)
        elif exact_bits:
            ok = (i, sem) == (ref_i, ref_sem)
        else:
            ok = _within_error(i, sem, ref_i, ref_sem)
        failed += not (ok and n == ref_n)
    return failed, fingerprint
