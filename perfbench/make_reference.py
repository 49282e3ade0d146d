"""Regenerate reference.json from the current package, with the reference seed.

    python3 perfbench/make_reference.py

Run it only when a change is meant to alter the outputs, and say so in the
change: the correctness gate compares every benchmark run with this file.
Besides the outputs it records each command's trajectory-steps, from the
package's own step grid, and checks them against the traced engine count.
"""

import json
import shutil
import sys

import gate
from run import REFERENCE, ROOT, Runner
from workloads import WORKLOADS

sys.path.insert(0, str(ROOT / "src"))

from cavity_sr import (NumericalParams, collective_params, individual_params,  # noqa: E402
                       time_grid, validate_params)

SEED = 0


def traj_steps(command) -> int:
    """n_traj x nsteps summed over N; a deterministic solver is one trajectory."""
    argv = list(command.argv)
    make = collective_params if argv[argv.index("--scheme") + 1] == "collective" \
        else individual_params
    n_traj = int(argv[argv.index("--trajectories") + 1]) \
        if command.kind.startswith("stochastic") else 1
    total = 0
    for n in command.n_values:
        _, num = validate_params(make(n, g=10.0, kappa=100.0), NumericalParams(n_traj=n_traj))
        total += n_traj * time_grid(num.dt, num.t_max)[0]
    return total


def main():
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    entries = {}
    try:
        for name, commands in WORKLOADS.items():
            runner = Runner(name, SEED, work / name)
            _, result, out = runner.child("trace", workers=1)
            if result is None or any(result["codes"]):
                raise SystemExit(f"{name}: a command failed")
            steps = {c.label: traj_steps(c) for c in commands}
            stochastic = sum(steps[c.label] for c in commands
                             if c.kind.startswith("stochastic"))
            if stochastic != result["layers"].get("engine.traj_steps", stochastic):
                raise SystemExit(f"{name}: step grid {stochastic} != traced "
                                 f"{result['layers']['engine.traj_steps']}")
            for c in commands:
                entries[c.label] = dict(gate.reference_entry(c.kind, out / c.label),
                                        traj_steps=steps[c.label])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"seed": SEED, "commands": entries}) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
