"""Serialization of time series, scaling reports and run manifests.

Plot-ready delimited text for time series (the figure columns, 17 significant
digits so values round-trip exactly) and JSON with stable key order for
reports and manifests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List

import numpy as np

from .analysis import ScalingReport
from .series import ObservableSeries

TIMESERIES_HEADER = "t,sz_mean,sz_sem,sz_norm,photon_mean,photon_sem"


def write_timeseries(series: ObservableSeries, path) -> Path:
    """One row per grid point: t, sz_mean, sz_sem, sz_norm, photon_mean,
    photon_sem with sz_norm = 2*sz_mean/N."""
    path = Path(path)
    columns = np.column_stack([series.times, series.sz_mean, series.sz_sem,
                               series.sz_norm, series.photon_mean, series.photon_sem])
    np.savetxt(path, columns, fmt="%.17g", delimiter=",", header=TIMESERIES_HEADER,
               comments="")
    return path


def write_report(report: ScalingReport, manifest: dict, path) -> Path:
    """The report's fields, then the manifest.json record of the run."""
    path = Path(path)
    path.write_text(json.dumps({
        "points": [{"n": n, "intensity": i, "sem": s} for n, i, s in report.points],
        "zeta": report.zeta,
        "intercept": report.intercept,
        "r_squared": report.r_squared,
        "zeta_stderr": report.zeta_stderr,
        "fingerprint": report.fingerprint,
        "divergent": list(report.divergent),
        "config": report.config,
        "manifest": manifest,
    }, indent=2) + "\n")
    return path


def read_report(path) -> ScalingReport:
    """Load a report JSON; invalid JSON, a missing required key or a
    malformed point raises ValueError naming the file."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"report {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"report {path} is not a JSON object")
    try:
        return ScalingReport(
            points=[(p["n"], p["intensity"], p.get("sem", 0.0)) for p in raw["points"]],
            zeta=raw["zeta"], intercept=raw["intercept"], r_squared=raw["r_squared"],
            zeta_stderr=raw.get("zeta_stderr", 0.0), config=raw.get("config", {}),
            fingerprint=raw.get("fingerprint", ""), divergent=raw.get("divergent", []))
    except KeyError as exc:
        raise ValueError(f"report {path} lacks the required key {exc.args[0]!r}") from None
    except TypeError:
        raise ValueError(f"report {path}: points must be objects with keys "
                         "n, intensity[, sem]") from None


def read_points_file(path) -> List[tuple]:
    """Fit input: either a report JSON or a CSV with header n,intensity[,sem]."""
    path = Path(path)
    text = path.read_text().strip()
    if text.startswith("{"):
        return [(n, i) for n, i, _ in read_report(path).points]
    lines = text.splitlines() or [""]
    header = [h.strip().lower() for h in lines[0].split(",")]
    if header[:2] != ["n", "intensity"]:
        raise ValueError(f"points file {path} must be a report JSON or CSV "
                         "with header n,intensity[,sem]")
    points = []
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            n, intensity = [float(v) for v in line.split(",")][:2]
        except ValueError:
            raise ValueError(f"points file {path} line {lineno}: expected "
                             f"n,intensity[,sem], got {line!r}") from None
        points.append((n, intensity))
    return points


def write_manifest(manifest: dict, out_dir, outputs) -> Path:
    """Write out_dir/manifest.json: the run record with "outputs" mapping the
    name of each file in outputs, the files this run wrote, to its SHA-256,
    sorted by name; other files in out_dir are not listed."""
    digests = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for p in outputs}
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps({**manifest, "outputs": dict(sorted(digests.items()))},
                               indent=2) + "\n")
    return path
