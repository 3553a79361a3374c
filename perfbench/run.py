"""meltshift benchmark: one run of one workload at one seed.

    python3 perfbench/run.py --workload train_full --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/``. Inputs are made from the seed by a separate process and cached
under ``.bench_build/perfbench``. Each measurement runs in a fresh process
(so ``peak_rss_mb`` is its own) with BLAS pinned to one thread and a fixed
hash seed. The last line of stdout is the result as JSON:

* ``--trace 0``: the end-to-end metrics of an untraced run;
* ``--trace 1``: an untraced run, then a traced run of the same length;
  the per-layer metrics of the traced run, plus ``overhead.<metric>``
  (traced minus untraced) for every end-to-end metric.

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
The line before the result holds the environment, the input properties,
every correctness check and the run details. The exit code is 0 only when
every check passed and no call failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CACHE = ROOT / ".bench_build" / "perfbench"
BLAS_THREADS = 1   # one caller in a closed loop; must not exceed nproc
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args: list[str], deadline: float) -> str:
    """Run one worker process to completion; return its stdout."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"worker {args[0]} exceeded the time limit")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        sys.exit(f"worker {args[0]} exited with {proc.returncode}")
    return proc.stdout


def measure(common: list[str], deadline: float, trace_out: Path | None) -> dict:
    extra = ["--trace-out", str(trace_out)] if trace_out else []
    out = worker(["measure", *common, *extra], deadline)
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "meltshift" / "__init__.py").is_file():
        sys.exit(f"no package source at {ROOT / 'src' / 'meltshift'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"unknown workload {args.workload!r}")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--cache", str(CACHE)]
    worker(["gen", *common], deadline)
    common += ["--seconds", str(args.seconds)]
    runs = [measure(common, deadline, None)]
    if args.trace:
        trace_dir = CACHE / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        runs.append(measure(common, deadline,
                            trace_dir / f"{args.workload}-{args.seed}.npz"))
        untraced, traced = runs
        values = dict(traced["layers"])
        for name in e2e_units:
            values[f"overhead.{name}"] = traced["e2e"][name] - untraced["e2e"][name]
        units = layer_units
    else:
        values = runs[0]["e2e"]
        units = e2e_units
    if set(values) != set(units):
        sys.exit(f"metrics do not match BENCHMARK.json: "
                 f"{sorted(set(values) ^ set(units))}")

    details = {key: runs[-1][key] for key in ("env", "inputs", "info")}
    details["checks"] = [run["checks"] for run in runs]
    details["errors"] = [run["error"] for run in runs if run["error"]]
    details["absent_hooks"] = runs[-1].get("absent_hooks", [])
    for key in ("setup_windows", "setup_repeats"):
        details[key] = runs[-1][key]
    print(json.dumps(details, sort_keys=True))
    correct = all(run["correct"] for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
