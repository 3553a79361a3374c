"""Work split over two workers gives the same bits as one: the training
step's parameter-sized passes and a linear's forward and backward.
The splitter runs on one thread; its blocks are checked against a
quadratic reference in ``test_splitter.py``.

``tape._worker_count`` is forced to 1 and to 2 here, so the two-worker path
runs whatever the CPU affinity of the test process. The last tests run fresh
interpreters with the BLAS thread variables unset: importing meltshift pins
BLAS to one thread, so a run writes the same bits on one CPU as on two.
"""

import math
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import meltshift
from meltshift import tape as tape_module
from meltshift.cli import main
from meltshift.data import TRACK_ROLES, EmbeddingBundle, synth_bundles, write_dataset
from meltshift.heads import build_model
from meltshift.optim import CHUNK, AdamState, ClipConfig, _ghost_square, adam_step, \
    clip_scale, global_grad_norm
from meltshift.tape import Factored, Tape
from meltshift.trainer import TrainConfig, train

from conftest import random_records

SHAPES = {"a": (3 * CHUNK + 5,), "b": (CHUNK + 3,), "c": (7, 3)}
# factored gradients: blocks of 46 rows, and rows longer than a block
FACTORED = {"f": (128, 700), "g": (3, CHUNK + 5)}


def workers(monkeypatch, count: int) -> None:
    monkeypatch.setattr(tape_module, "_worker_count", lambda: count)


def optimizer_steps():
    """Three clipped Adam steps: every norm, scale and array they leave."""
    rng = np.random.default_rng(3)
    params = {k: rng.normal(size=s) for k, s in {**SHAPES, **FACTORED}.items()}
    state = AdamState.init(params)
    scalars = []
    for _ in range(3):
        grads = {k: rng.normal(size=s) for k, s in SHAPES.items()}
        grads.update({k: Factored(rng.normal(size=(8, m)), rng.normal(size=(8, n)))
                      for k, (m, n) in FACTORED.items()})
        scale, norm = clip_scale(grads, ClipConfig(0.1))
        scalars += [scale, norm]
        adam_step(params, grads, state, 0.01, grad_scale=scale)
    return scalars, [params, state.m, state.v]


def linear_backward(lead: tuple[int, ...]):
    """Gradients of a linear with a weight of more than ``CHUNK`` entries,
    and the weight and input gradients by the plain formulas."""
    rng = np.random.default_rng(4)
    tape = Tape()
    W = tape.leaf(rng.normal(size=(64, CHUNK // 64 + 7)), "W")
    x = tape.leaf(rng.normal(size=lead + (W.value.shape[1],)))
    y = tape.linear(W, x, tape.leaf(rng.normal(size=64), "b"))
    grads = tape.backward(tape.mse(y, np.zeros(y.value.shape)))
    g = (2.0 / y.value.size) * y.value * 1.0  # mse's output gradient
    rows = g.reshape(-1, 64)
    return grads, x.grad, [rows.T @ x.value.reshape(-1, W.value.shape[1]),
                           g @ W.value]


def linear_forward(shape: tuple[int, ...], m: int):
    """A linear's output for an input of ``shape``, and ``x @ W.T + b``."""
    rng = np.random.default_rng(6)
    tape = Tape()
    W = tape.leaf(rng.normal(size=(m, shape[-1])), "W")
    b = tape.leaf(rng.normal(size=m), "b")
    x = tape.leaf(rng.normal(size=shape))
    return tape.linear(W, x, b).value, x.value @ W.value.T + b.value


def desk_checkpoint(path) -> bytes:
    """A 3-step desk run at d_proj 32, where ``mix.weight`` is one CHUNK."""
    records = random_records(8, 4, seed=21, dtm_scale=1.0)
    bundles = synth_bundles(records, d_raw=12, seed=5)
    config = TrainConfig(max_lr=1e-2, epochs=3, batch_size=32, d_proj=32)
    result = train(records, bundles, config, checkpoint_path=path)
    assert result.steps == 3
    assert result.model.heads["head1"]["mix.weight"].size == CHUNK
    return path.read_bytes()


def run_in_fork(job, what: str) -> None:
    """Run ``job`` in a forked child, which must return a true value within
    20 s."""
    with warnings.catch_warnings():
        # Python 3.12+ warns on fork with threads running: the case under test
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            code = 0 if job() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 20.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"the forked child hung in {what}")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


def test_optimizer_bits_do_not_depend_on_worker_count(monkeypatch):
    workers(monkeypatch, 1)
    one_scalars, one_arrays = optimizer_steps()
    workers(monkeypatch, 2)
    two_scalars, two_arrays = optimizer_steps()
    assert tape_module._pool is not None and tape_module._pool[0] == os.getpid()
    assert one_scalars == two_scalars
    for one, two in zip(one_arrays, two_arrays):
        for k in {**SHAPES, **FACTORED}:
            assert np.array_equal(one[k], two[k])


def blockwise_norm(grads) -> float:
    """The joint norm written out: each dense ``CHUNK`` block's sum of squares,
    in sorted-name order, then each factored entry's ghost square, added one by
    one from 0.0."""
    total = 0.0
    for name in sorted(grads):
        if not isinstance(grads[name], Factored):
            flat = np.ravel(grads[name])
            for i in range(0, flat.size, CHUNK):
                total += float(np.sum(flat[i:i + CHUNK] ** 2))
    for name in sorted(grads):
        if isinstance(grads[name], Factored):
            total += _ghost_square(grads[name])
    return math.sqrt(total)


def recipe_step_grads():
    """One ``ensemble`` step's gradients at recipe widths: d_raw 1280, d_proj
    128, batch 8."""
    rng = np.random.default_rng(8)

    def bundle(vid):
        return EmbeddingBundle(vid, {r: rng.normal(size=1280) for r in TRACK_ROLES})

    samples = [(bundle(f"R{i}:WT"), bundle(f"R{i}:M"), float(rng.normal()))
               for i in range(8)]
    tape = Tape()
    loss, _ = build_model("ensemble", 1280, 128, 0).batch_loss(tape, samples)
    return tape.backward(loss)


def test_norm_bits_are_the_blockwise_formula():
    # another summation order rounds the norm the same in about three draws
    # of four, so there are sixteen
    for seed in range(16):
        rng = np.random.default_rng(seed)
        grads = {k: rng.normal(size=s) for k, s in SHAPES.items()}
        grads.update({k: Factored(rng.normal(size=(8, m)), rng.normal(size=(8, n)))
                      for k, (m, n) in FACTORED.items()})
        assert global_grad_norm(grads) == blockwise_norm(grads)
    recipe = recipe_step_grads()
    assert any(isinstance(g, Factored) for g in recipe.values())
    assert global_grad_norm(recipe) == blockwise_norm(recipe)


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
def test_linear_backward_bits_do_not_depend_on_worker_count(monkeypatch, lead):
    workers(monkeypatch, 1)
    one_grads, one_dx, (plain_dW, plain_dx) = linear_backward(lead)
    workers(monkeypatch, 2)
    two_grads, two_dx, _ = linear_backward(lead)
    assert np.array_equal(one_dx, plain_dx) and np.array_equal(two_dx, plain_dx)
    assert np.array_equal(one_grads["W"], plain_dW)
    for k in ("W", "b"):
        assert np.array_equal(one_grads[k], two_grads[k])


# head1's mix at recipe widths, one sample's row of it and a projection run W's
# row halves as a pair (W holds CHUNK entries or more); a smaller W keeps both
# halves on the caller
@pytest.mark.parametrize("shape,m,split", [((8, 16384), 128, True),
                                           ((16384,), 128, True),
                                           ((8, 1280), 128, True),
                                           ((8, 16), 7, False)])
def test_linear_forward_bits_do_not_depend_on_worker_count(monkeypatch, shape, m,
                                                           split):
    on_pool, real_run_pair = [], tape_module._run_pair

    def spy(size, first, second):
        def second_on_pool():
            on_pool.append(threading.current_thread() is not threading.main_thread())
            return second()
        return real_run_pair(size, first, second_on_pool)

    monkeypatch.setattr(tape_module, "_run_pair", spy)
    workers(monkeypatch, 1)
    one, plain = linear_forward(shape, m)
    workers(monkeypatch, 2)
    two, _ = linear_forward(shape, m)
    assert one.tobytes() == two.tobytes()
    np.testing.assert_allclose(one, plain, rtol=1e-12, atol=0)
    assert on_pool == [False, split]


def test_checkpoint_bytes_do_not_depend_on_worker_count(monkeypatch, tmp_path):
    workers(monkeypatch, 1)
    one = desk_checkpoint(tmp_path / "one.bin")
    workers(monkeypatch, 2)
    assert desk_checkpoint(tmp_path / "two.bin") == one


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_finishes_adam_step(monkeypatch):
    workers(monkeypatch, 2)
    optimizer_steps()  # the pool thread now runs in this process
    run_in_fork(optimizer_steps, "adam_step")


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# prints OpenBLAS's thread count after ``import meltshift``, read through the
# symbol perfbench/worker.py's blas_threads() reads, and OPENBLAS_NUM_THREADS
BLAS_THREADS = """
import ctypes, glob, os
from pathlib import Path
import meltshift
import numpy as np
count = None
for path in glob.glob(str(Path(np.__file__).resolve().parent.parent
                          / "numpy.libs" / "*openblas*")):
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None and count is None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            count = fn()
print(count, os.environ.get("OPENBLAS_NUM_THREADS"))
"""

# argv ``N ARGS...``: ``meltshift ARGS`` on the first N CPUs of the affinity mask
CLI_ON_CPUS = """
import os, sys
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:int(sys.argv[1])])
from meltshift.cli import main
sys.exit(main(sys.argv[2:]))
"""


def fresh_python(code: str, *args, **env) -> str:
    """Stdout of ``code`` in a new interpreter that imports this meltshift,
    with the BLAS variables unset but for those in ``env``."""
    child = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    child["PYTHONPATH"] = os.pathsep.join(
        [str(Path(meltshift.__file__).parent.parent)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    child.update(env)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=child, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_pins_blas_to_one_thread_unless_set():
    count, var = fresh_python(BLAS_THREADS).split()
    if count == "None":
        pytest.skip("no OpenBLAS thread-count symbol found")
    assert (count, var) == ("1", "1")
    # OpenBLAS takes no more threads than the process has CPUs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    assert fresh_python(BLAS_THREADS, OPENBLAS_NUM_THREADS="2").split() == [
        str(min(2, cpus)), "2"]


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs in the affinity mask")
def test_run_on_one_cpu_writes_the_bits_of_a_run_on_two(tmp_path):
    # batches of 32 at d_proj 33: a two-thread OpenBLAS rounds some of this
    # run's products otherwise than a one-thread one
    dataset, bundles = tmp_path / "data.csv", tmp_path / "b.dtme"
    write_dataset(dataset, random_records(40, 4, seed=7))
    assert main(["synth-embed", str(dataset), "--out", str(bundles),
                 "--d-raw", "128"]) == 0
    runs = []
    for cpus in (2, 1):
        rundir = tmp_path / f"run{cpus}"
        fresh_python(CLI_ON_CPUS, cpus, "train", dataset, bundles, "--out", rundir,
                     "--head", "head1", "--d-proj", 33, "--batch-size", 32,
                     "--epochs", 1)
        runs.append([(rundir / name).read_bytes()
                     for name in ("checkpoint.bin", "steps.jsonl")])
    assert runs[0] == runs[1]
