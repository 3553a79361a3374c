"""Work split over two workers gives the same bits as one: the training
step's parameter-sized passes, a large linear's forward and backward, and
the splitter's k-mer and shared-k-mer blocks.

``tape._worker_count`` is forced to 1 and to 2 here, so the two-worker path
runs whatever the CPU affinity of the test process.
"""

import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from meltshift import splitter
from meltshift import tape as tape_module
from meltshift.data import synth_bundles
from meltshift.optim import CHUNK, AdamState, ClipConfig, adam_step, clip_scale
from meltshift.tape import Tape
from meltshift.trainer import TrainConfig, train

from conftest import random_records, records_with_homologs

SHAPES = {"a": (3 * CHUNK + 5,), "b": (CHUNK + 3,), "c": (7, 3)}


def workers(monkeypatch, count: int) -> None:
    monkeypatch.setattr(tape_module, "_worker_count", lambda: count)


def optimizer_steps():
    """Three clipped Adam steps: every norm, scale and array they leave."""
    rng = np.random.default_rng(3)
    params = {k: rng.normal(size=s) for k, s in SHAPES.items()}
    state = AdamState.init(params)
    scalars = []
    for _ in range(3):
        grads = {k: rng.normal(size=s) for k, s in SHAPES.items()}
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


def linear_forward(shape: tuple[int, ...], m: int) -> bytes:
    """The bytes of a linear's output for an input of ``shape``."""
    rng = np.random.default_rng(6)
    tape = Tape()
    W = tape.leaf(rng.normal(size=(m, shape[-1])), "W")
    b = tape.leaf(rng.normal(size=m), "b")
    return tape.linear(W, tape.leaf(rng.normal(size=shape)), b).value.tobytes()


def desk_checkpoint(path) -> bytes:
    """A 3-step desk run at d_proj 32, where ``mix.weight`` is one CHUNK."""
    records = random_records(8, 4, seed=21, dtm_scale=1.0)
    bundles = synth_bundles(records, d_raw=12, seed=5)
    config = TrainConfig(max_lr=1e-2, epochs=3, batch_size=32, d_proj=32)
    result = train(records, bundles, config, checkpoint_path=path)
    assert result.steps == 3
    assert result.model.heads["head1"]["mix.weight"].size == CHUNK
    return path.read_bytes()


def homolog_corpus():
    """560 proteins of 300-700 residues and 140 one-substitution homologs,
    one record each: about 350k residues, three k-mer blocks and three
    shared-k-mer blocks."""
    return records_with_homologs(8, n_proteins=560, planted_pairs=140,
                                 muts_per_protein=1, seq_len=(300, 700))[0]


def split_outputs(records, path):
    """The corpus's k-mer codes, its clusters and its manifest's bytes."""
    proteins = {r.protein_id: r.wt_sequence for r in records}
    codes = splitter.kmer_codes(list(proteins.values()), 5)
    clusters = splitter.greedy_cluster(proteins, 0.5)
    splitter.write_split(path, splitter.split_records(records, seed=3))
    return codes, [(c.representative, c.members) for c in clusters], path.read_bytes()


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
        for k in SHAPES:
            assert np.array_equal(one[k], two[k])


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


# head1's mix at recipe widths, one sample's row of it, and a projection,
# whose W is below FORWARD_SPLIT and so runs whole on either worker count
@pytest.mark.parametrize("shape,m,split", [((8, 16384), 128, True),
                                           ((16384,), 128, True),
                                           ((8, 1280), 128, False)])
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
    one = linear_forward(shape, m)
    workers(monkeypatch, 2)
    assert linear_forward(shape, m) == one
    assert on_pool == ([False, True] if split else [])


def test_checkpoint_bytes_do_not_depend_on_worker_count(monkeypatch, tmp_path):
    workers(monkeypatch, 1)
    one = desk_checkpoint(tmp_path / "one.bin")
    workers(monkeypatch, 2)
    assert desk_checkpoint(tmp_path / "two.bin") == one


def test_split_bits_do_not_depend_on_worker_count(monkeypatch, tmp_path):
    records = homolog_corpus()
    # more than two k-mer blocks of half a PAIR_BLOCK of residues each
    assert sum(len(r.wt_sequence) for r in records) > splitter.PAIR_BLOCK
    pool_sizes, real_run_pair = [], splitter._run_pair

    def spy(size, first, second):
        def on_pool():
            if threading.current_thread() is not threading.main_thread():
                pool_sizes.append(size)
            return second()
        return real_run_pair(size, first, on_pool)

    monkeypatch.setattr(splitter, "_run_pair", spy)
    workers(monkeypatch, 1)
    one = split_outputs(records, tmp_path / "one.csv")
    assert pool_sizes == []
    workers(monkeypatch, 2)
    two = split_outputs(records, tmp_path / "two.csv")
    # k-mer blocks are sized in residues, shared-k-mer blocks in count cells;
    # kmer_codes, greedy_cluster and split_records each reach the pool
    assert len(pool_sizes) >= 5 and min(pool_sizes) >= CHUNK
    assert len(one[0]) == len(two[0]) == len(records)
    assert all(np.array_equal(a, b) for a, b in zip(one[0], two[0]))
    assert one[1] == two[1] and any(len(m) > 1 for _, m in one[1])
    assert one[2] == two[2]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_finishes_adam_step(monkeypatch):
    workers(monkeypatch, 2)
    optimizer_steps()  # the pool thread now runs in this process
    run_in_fork(optimizer_steps, "adam_step")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_finishes_split_records(monkeypatch):
    workers(monkeypatch, 2)
    records = homolog_corpus()
    want = splitter.split_records(records, seed=3)  # the pool thread now runs
    run_in_fork(lambda: splitter.split_records(records, seed=3) == want,
                "split_records")
