"""One process of one benchmark run: generate inputs, or measure a workload.

    python3 perfbench/worker.py gen --workload W --seed N --cache DIR
    python3 perfbench/worker.py measure --workload W --seed N --seconds S \
        --cache DIR [--trace-out FILE.npz]

``measure`` reads the cached inputs (set-up, repeated and timed), drives
the package through its public API in a closed loop with one caller for
the given number of seconds, checks the outputs outside the timed region,
and prints one JSON object as its last line. With ``--trace-out`` it first
installs the span hooks of ``spans.py`` and adds per-layer numbers.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_WINDOW_REPEATS = 3
SETUP_WINDOW_S = 0.2
MIN_CALLS = 2  # byte-identity checks need at least two outputs


def clock() -> float:
    return time.perf_counter()


class Run:
    """Counters and samples of one measured run."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.error: str | None = None
        self.checks: dict[str, bool] = {}

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def timed_done(self) -> None:
        """Stop tracing: the checks that follow are not part of the run."""
        if self.tracer:
            self.tracer.uninstall()

    def fail(self, units: int, exc: BaseException) -> None:
        """Count a call that raised: all of its units are failed."""
        self.attempted += units
        self.failed += units
        self.error = f"{type(exc).__name__}: {exc}"


def file_digest(path: Path) -> str:
    with open(path, "rb") as fh:  # streamed, so peak RSS does not see it
        return hashlib.file_digest(fh, "sha256").hexdigest()


class SetupTimer:
    """Times the workload's set-up (reading its inputs) in short windows.

    One window runs before the timed loop, one after every call of the
    loop (outside the call's wall time, with the call's result released)
    and one at the end, so set-up is sampled across the whole run, at the
    same moments of the machine's load as the calls. A window repeats the
    set-up at least SETUP_WINDOW_REPEATS times and for at least
    SETUP_WINDOW_S seconds. ``setup_s`` is the mean time per repeat over
    all windows: the machine runs in a fast and a slow state that last
    seconds, and a median of window samples jumps between the two, while
    the mean follows the share of the run spent in each, as the calls'
    throughput does.
    """

    def __init__(self, load):
        self.load = load
        self.windows = 0
        self.repeats = 0
        self.busy = 0.0

    def window(self):
        """Run one window; return the state of its last repeat."""
        state, n, busy = None, 0, 0.0
        while n < SETUP_WINDOW_REPEATS or busy < SETUP_WINDOW_S:
            state = None  # drop the previous copy before loading the next
            t0 = clock()
            state = self.load()
            busy += clock() - t0
            n += 1
        self.windows += 1
        self.repeats += n
        self.busy += busy
        return state

    def seconds(self) -> float:
        """Mean time of one set-up over every window of the run."""
        return self.busy / self.repeats


# ---------------------------------------------------------------------------
# train_full


def _directional_fd(ms, model, samples, seed: int) -> float:
    """Worst relative error of a central difference along a random direction."""
    params = dict(model.named_parameters())
    rng = np.random.default_rng(seed)
    direction = {k: rng.normal(size=v.shape) for k, v in params.items()}
    norm = math.sqrt(sum(float(np.sum(d * d)) for d in direction.values()))
    tape = ms.tape.Tape()
    loss, _ = model.batch_loss(tape, samples)
    grads = tape.backward(loss)
    analytic = sum(float(np.sum(grads[k] * direction[k])) for k in sorted(params)) / norm
    saved = {k: v.copy() for k, v in params.items()}

    def loss_at(h: float) -> float:
        for k, arr in params.items():
            np.copyto(arr, saved[k] + (h / norm) * direction[k])
        loss_node, _ = model.batch_loss(ms.tape.Tape(), samples)
        return float(loss_node.value[0])

    step = ms.gradcheck.DEFAULT_FD_STEP
    numeric = (loss_at(step) - loss_at(-step)) / (2.0 * step)
    for k, arr in params.items():
        np.copyto(arr, saved[k])
    result = ms.gradcheck.compare_grads({"direction": np.array([analytic])},
                                        {"direction": np.array([numeric])})
    return result.max_rel_err


def load_train(ms, src: Path):
    return (ms.data.load_dataset(src / "dataset.csv"),
            ms.splitter.read_split(src / "split.csv"),
            ms.data.read_bundles(src / "bundles.dtme"))


def run_train(ms, run: Run, seed: int, seconds: float, setup: SetupTimer,
              state, props: dict, work: Path) -> dict:
    spec = inputs.TRAIN_SPEC
    records, split, bundles = state
    config = ms.trainer.TrainConfig(epochs=spec["epochs"],
                                    batch_size=spec["batch"],
                                    d_proj=spec["d_proj"], seed=seed,
                                    head="ensemble")
    n_train = sum(split[r.protein_id] == "train" for r in records)
    steps_per_call = spec["epochs"] * math.ceil(n_train / spec["batch"])
    ckpt = work / "checkpoint.bin"

    walls, digests, losses, steps = [], set(), [], 0
    t_end = clock() + seconds
    while clock() < t_end or len(walls) < MIN_CALLS:
        try:
            t0 = clock()
            result = ms.trainer.train(records, bundles, config, split,
                                      checkpoint_path=ckpt)
            wall = clock() - t0
        except Exception as exc:  # noqa: BLE001 - counted and reported
            run.fail(steps_per_call, exc)
            break
        walls.append(wall)
        run.attempted += result.steps
        steps += result.steps
        run.check("steps_per_call", result.steps == steps_per_call)
        digests.add(file_digest(ckpt))
        epoch_losses = [e.losses.l_total for e in result.history]
        run.check("losses_finite", all(math.isfinite(v) for v in epoch_losses))
        losses.append(epoch_losses[-1])
        result = None  # the next call must not find this model in memory
        setup.window()
    run.timed_done()

    if walls:
        run.check("checkpoint_byte_identical", len(digests) == 1)
        run.check("loss_final_repeats", len(set(losses)) == 1)
        train_records = [r for r in records if split[r.protein_id] == "train"]
        samples = [(bundles[r.wt_variant_id], bundles[r.mut_variant_id], r.dtm)
                   for r in train_records[: spec["batch"]]]
        model = ms.heads.build_model("ensemble", spec["d_raw"], spec["d_proj"],
                                     seed)
        fd_err = _directional_fd(ms, model, samples, seed)
        run.check("fd_directional", fd_err < ms.gradcheck.GRAD_TOLERANCE)
    else:
        fd_err = float("nan")
    samples_per_call = spec["epochs"] * n_train
    return {
        "work": samples_per_call * len(walls),
        "call_s": walls,
        "units": steps,
        "loss_final": losses[-1] if losses else float("nan"),
        "info": {"train_calls": len(walls), "steps": steps, "call_s": walls,
                 "fd_directional_rel_err": fd_err,
                 "samples_per_call": samples_per_call},
    }


# ---------------------------------------------------------------------------
# split_corpus


def load_split(ms, src: Path):
    return (ms.data.load_dataset(src / "dataset.csv"),
            json.loads((src / "families.json").read_text()))


def run_split(ms, run: Run, seed: int, seconds: float, setup: SetupTimer,
              state, props: dict, work: Path) -> dict:
    spec = inputs.SPLIT_SPEC
    records, families = state
    n_proteins = len({r.protein_id for r in records})
    manifest = work / "split.csv"

    walls, digests, split = [], set(), None
    t_end = clock() + seconds
    while clock() < t_end or len(walls) < MIN_CALLS:
        try:
            t0 = clock()
            split = ms.splitter.split_records(records, spec["threshold"],
                                              (8, 2), seed)
            wall = clock() - t0
        except Exception as exc:  # noqa: BLE001
            run.fail(n_proteins, exc)
            break
        walls.append(wall)
        run.attempted += n_proteins
        ms.splitter.write_split(manifest, split)
        digests.add(file_digest(manifest))
        setup.window()
    run.timed_done()

    if split is not None:
        run.check("manifest_byte_identical", len(digests) == 1)
        side = split.assignment
        run.check("every_protein_assigned", len(side) == n_proteins)
        run.check("both_sides_used", set(side.values()) == {"train", "val"})
        run.check("cluster_count", len(set(split.cluster_rep.values()))
                  == props["expected_clusters"])
        sides_of_cluster: dict[str, set] = {}
        for pid, rep in split.cluster_rep.items():
            sides_of_cluster.setdefault(rep, set()).add(side[pid])
        run.check("no_cluster_spans_sides",
                  all(len(s) == 1 for s in sides_of_cluster.values()))
        run.check("families_on_one_side",
                  all(len({side[m] for m in fam}) == 1 for fam in families))
    return {
        "work": n_proteins * len(walls),
        "call_s": walls,
        "units": len(walls),
        "loss_final": float("nan"),
        "info": {"split_calls": len(walls), "call_s": walls,
                 "clusters": len(set(split.cluster_rep.values())) if split else 0},
    }


RUNNERS = {"train_full": (load_train, run_train),
           "split_corpus": (load_split, run_split)}


# ---------------------------------------------------------------------------


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, if it can be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS")


def measure(args) -> dict:
    for module in ("tape", "heads", "optim", "trainer", "data",
                   "checkpoint", "splitter", "metrics", "gradcheck"):
        importlib.import_module(f"meltshift.{module}")
    ms = sys.modules["meltshift"]

    src = inputs.input_dir(Path(args.cache), args.workload, args.seed)
    if not (src / "properties.json").exists():
        raise SystemExit(f"inputs missing: {src}")
    work = Path(args.cache) / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace_out else None
    if tracer:
        tracer.install()
    run = Run(tracer)
    load, runner = RUNNERS[args.workload]
    props = json.loads((src / "properties.json").read_text())
    setup = SetupTimer(lambda: load(ms, src))
    try:
        state = setup.window()
        out = runner(ms, run, args.seed, args.seconds, setup, state, props,
                     work)
    finally:
        run.timed_done()
        shutil.rmtree(work, ignore_errors=True)
    del state
    setup.window()
    e2e = {
        "setup_s": setup.seconds(),
        "throughput_per_s": (out["work"] / sum(out["call_s"])
                             if out["call_s"] else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_frac": (run.attempted - run.failed) / max(run.attempted, 1),
    }
    result = {"correct": run.error is None and all(run.checks.values()),
              "attempted": run.attempted, "failed": run.failed,
              "e2e": e2e, "checks": run.checks, "error": run.error,
              "info": out["info"], "env": environment(), "inputs": props,
              "setup_windows": setup.windows,
              "setup_repeats": setup.repeats}
    if tracer:
        tracer.save(args.trace_out)
        result["layers"] = layers.per_layer(tracer, out)
        result["absent_hooks"] = tracer.absent
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["gen", "measure"])
    parser.add_argument("--workload", required=True, choices=RUNNERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.mode == "gen":
        inputs.generate(args.workload, args.seed, Path(args.cache))
        return 0
    print(json.dumps(measure(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
