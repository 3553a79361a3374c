"""Mutation tests of the gradient oracle (DeMillo, Lipton & Sayward, 1978).

Each mutant is ``tape.py``'s source with one textual defect in a forward
or backward kernel, loaded into a fresh module. ``check_model`` runs with the
mutant's ``Tape`` on the smallest model kind that uses the kernel, at
d = d_raw = 4, batch 2 and the ``seq`` track, and must fail. Every defect
keeps the gradients' shapes (the transposed weight gradient is planted in
the square projection only), so only the values can give it away.
"""

import types
from pathlib import Path

import numpy as np
import pytest

from meltshift import gradcheck, tape
from meltshift.data import TRACK_ROLES, EmbeddingBundle
from meltshift.gradcheck import GRAD_TOLERANCE, check_model
from meltshift.heads import build_model

TAPE_SOURCE = Path(tape.__file__).read_text()

MUTANTS = [
    pytest.param("mut_concat", "g @ Wval, rows.sum(axis=0)", "g @ Wval, rows[0]",
                 id="linear_bias_row_sum"),
    pytest.param("mut_concat", "Factored(rows, xval.reshape(-1, n))",
                 "Factored(rows[:1], xval.reshape(-1, n)[:1])",
                 id="linear_weight_row_sum"),
    pytest.param("mut_concat", "Factored(rows, xval.reshape(-1, n))",
                 "(Factored(xval.reshape(-1, n), rows) if m == n\n"
                 "             else Factored(rows, xval.reshape(-1, n)))",
                 id="linear_weight_transposed"),
    pytest.param("head1", "np.matmul(xval, Wval.T)", "np.matmul(xval, Wval[::-1].T)",
                 id="linear_forward_weight_rows_reversed"),
    pytest.param("mut_concat", "\n        out += b.value", "",
                 id="linear_forward_bias_dropped"),
    pytest.param("head2", "dgamma = (g * xhat).reshape(-1, n).sum(axis=0)",
                 "dgamma = (g * xhat).reshape(-1, n)[0]",
                 id="layernorm_gamma_row_sum"),
    pytest.param("head2", "dbeta = g.reshape(-1, n).sum(axis=0)",
                 "dbeta = g.reshape(-1, n)[0]", id="layernorm_beta_row_sum"),
    pytest.param("head2",
                 "\n                - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True)",
                 "", id="layernorm_variance_term_dropped"),
    pytest.param("head2", "lambda g: (g, -g)", "lambda g: (g, g)",
                 id="sub_second_sign"),
    pytest.param("head1", "(G @ vval[..., None])[..., 0]",
                 "(np.swapaxes(G, -1, -2) @ vval[..., None])[..., 0]",
                 id="outer_flatten_first_transposed"),
    pytest.param("mut_concat", "g[..., lo:hi] for lo, hi",
                 "np.roll(g, 1, axis=-1)[..., lo:hi] for lo, hi",
                 id="concat_rolled_by_one"),
    pytest.param("mut_concat", "(2.0 / n) * diff", "(1.0 / n) * diff",
                 id="mse_factor_halved"),
    pytest.param("mut_lincomb", "np.array([np.sum(g * xval)]), sval[0] * g",
                 "np.array([np.sum(g * xval)]), g", id="scale_x_grad_unscaled"),
]


def load_tape(old: str | None = None, new: str = ""):
    """``Tape`` from a fresh module of ``tape.py``'s source, with the one
    occurrence of ``old`` replaced by ``new`` (no edit when ``old`` is None)."""
    source = TAPE_SOURCE
    if old is not None:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    module = types.ModuleType("meltshift._tape_mutant")
    module.__package__ = "meltshift"  # for tape.py's relative import
    exec(compile(source, tape.__file__, "exec"), module.__dict__)
    return module.Tape


def model_and_samples(kind):
    model = build_model(kind, 4, 4, seed=0)
    rng = np.random.default_rng(10_000)

    def bundle(vid):
        return EmbeddingBundle(vid, {r: rng.normal(size=4) for r in TRACK_ROLES})

    samples = [(bundle(f"G{i}:WT"), bundle(f"G{i}:M"), float(rng.normal()))
               for i in range(2)]
    return model, samples


def check_with(Tape, kind, monkeypatch):
    model, samples = model_and_samples(kind)
    t = Tape()
    loss, _ = model.batch_loss(t, samples)
    shapes = {name: g.shape for name, g in t.backward(loss).items()}
    assert shapes == {name: a.shape for name, a in model.named_parameters()}
    monkeypatch.setattr(gradcheck, "Tape", Tape)
    return check_model(model, samples)


@pytest.mark.parametrize("kind", sorted({p.values[0] for p in MUTANTS}))
def test_unmutated_source_passes(kind, monkeypatch):
    assert check_with(load_tape(), kind, monkeypatch).max_rel_err < GRAD_TOLERANCE


@pytest.mark.parametrize("kind,old,new", MUTANTS)
def test_mutant_fails_the_oracle(kind, old, new, monkeypatch):
    result = check_with(load_tape(old, new), kind, monkeypatch)
    assert result.max_rel_err >= GRAD_TOLERANCE, result
