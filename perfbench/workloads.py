"""The benchmark's workloads: each is a list of `cavity-sr` commands.

All commands use g = 10 and kappa = 100, the cavity regime of the paper.  An
operation is one solver run: one `simulate`, or one N of a `sweep`.  The
`kind` of a command selects its correctness check in gate.py.  BENCHMARK.json
names the ROADMAP baseline rows each workload supersedes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

PHYSICS = ("--g", "10", "--kappa", "100")


@dataclass(frozen=True)
class Command:
    label: str                  # output subdirectory and reference key
    kind: str                   # "stochastic-sweep" | "stochastic-series" | "exact-sweep" | "exact-series"
    argv: Tuple[str, ...]       # without --seed and --out

    @property
    def n_values(self) -> List[int]:
        """Atom numbers this command solves for, one operation each."""
        flag = "--n-list" if self.argv[0] == "sweep" else "--n-atoms"
        return [int(v) for v in self.argv[self.argv.index(flag) + 1].split(",")]

    def cli_args(self, seed: int, out: str) -> List[str]:
        return [*self.argv, *PHYSICS, "--seed", str(seed), "--out", out]


WORKLOADS: Dict[str, List[Command]] = {
    # A narrow 6-float state in short chunks puts the time in per-call
    # overhead and Wiener draws, and the sweep ends in the paper's zeta.
    "twa-sweep": [
        Command("twa", "stochastic-sweep",
                ("sweep", "--scheme", "collective", "--n-list", "50,100,200,400",
                 "--trajectories", "4096")),
    ],
    # The same engine used the other way: a 152-float state over 2000 steps
    # makes kernel arithmetic dominate, so the thread pool pays for itself.
    "dtwa-wide": [
        Command("dtwa", "stochastic-series",
                ("simulate", "--scheme", "individual", "--solver", "dtwa",
                 "--n-atoms", "50", "--trajectories", "1024")),
    ],
    # Deterministic solvers only: it bypasses the engine and the Wiener
    # streams, so oracle changes show here and stochastic ones must not.
    "exact": [
        Command("oracle-collective", "exact-series",
                ("simulate", "--solver", "oracle", "--scheme", "collective",
                 "--n-atoms", "8")),
        Command("oracle-individual", "exact-series",
                ("simulate", "--solver", "oracle", "--scheme", "individual",
                 "--n-atoms", "3")),
        Command("meanfield-collective", "exact-sweep",
                ("sweep", "--solver", "meanfield", "--scheme", "collective",
                 "--n-list", "50,100,200,400,800")),
        Command("meanfield-individual", "exact-sweep",
                ("sweep", "--solver", "meanfield", "--scheme", "individual",
                 "--n-list", "50,100,200,400,800")),
    ],
}
