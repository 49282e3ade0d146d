"""Serialization of time series, scaling reports and run manifests.

Plot-ready delimited text for time series (the figure columns, 17 significant
digits so values round-trip exactly) and JSON with stable key order for
reports and manifests.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from .analysis import ScalingReport
from .series import ObservableSeries

TIMESERIES_HEADER = "t,sz_mean,sz_sem,sz_norm,photon_mean,photon_sem"


@dataclass
class RunManifest:
    """Everything needed to bit-reproduce a run plus digests of its outputs."""

    config: dict
    master_seed: int
    solver: str
    version: str
    n_divergent: int
    wall_clock_s: float
    outputs: Dict[str, str] = field(default_factory=dict)   # filename -> sha256

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "master_seed": self.master_seed,
            "solver": self.solver,
            "version": self.version,
            "n_divergent": self.n_divergent,
            "wall_clock_s": self.wall_clock_s,
            "outputs": dict(sorted(self.outputs.items())),
        }


def sha256_file(path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_timeseries(series: ObservableSeries, path) -> Path:
    """One row per grid point: t, sz_mean, sz_sem, sz_norm, photon_mean,
    photon_sem with sz_norm = 2*sz_mean/N."""
    path = Path(path)
    rows = [TIMESERIES_HEADER]
    norm = series.sz_norm
    for i in range(len(series.times)):
        rows.append(",".join("%.17g" % v for v in (
            series.times[i], series.sz_mean[i], series.sz_sem[i],
            norm[i], series.photon_mean[i], series.photon_sem[i])))
    path.write_text("\n".join(rows) + "\n")
    return path


def read_timeseries(path, n_atoms: int) -> ObservableSeries:
    lines = Path(path).read_text().strip().splitlines()
    if lines[0] != TIMESERIES_HEADER:
        raise ValueError(f"unexpected header {lines[0]!r}")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return ObservableSeries(times=data[:, 0], sz_mean=data[:, 1], sz_sem=data[:, 2],
                            photon_mean=data[:, 4], photon_sem=data[:, 5],
                            n_atoms=n_atoms)


def report_to_dict(report: ScalingReport, manifest: RunManifest | None = None) -> dict:
    out = {
        "points": [{"n": n, "intensity": i, "sem": s} for n, i, s in report.points],
        "zeta": report.zeta,
        "intercept": report.intercept,
        "r_squared": report.r_squared,
        "zeta_stderr": report.zeta_stderr,
        "fingerprint": report.fingerprint,
        "divergent": list(report.divergent),
        "config": report.config,
    }
    if manifest is not None:
        out["manifest"] = manifest.to_dict()
    return out


def write_report(report: ScalingReport, manifest: RunManifest | None, path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report_to_dict(report, manifest), indent=2) + "\n")
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


def write_manifest(manifest: RunManifest, out_dir, outputs) -> Path:
    """Write out_dir/manifest.json with the SHA-256 of each file in outputs,
    the files this run wrote; other files in out_dir are not listed."""
    out_dir = Path(out_dir)
    manifest.outputs = {Path(p).name: sha256_file(p) for p in outputs}
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest.to_dict(), indent=2) + "\n")
    return path
