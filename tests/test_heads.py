import numpy as np
import pytest

from meltshift.data import EmbeddingBundle
from meltshift.errors import ConfigError, DataError
from meltshift.gradcheck import check_model
from meltshift.heads import (
    EVAL_CHUNK,
    MODEL_KINDS,
    HeadKind,
    LinearParams,
    LossBreakdown,
    TrackProjection,
    build_ensemble,
    build_model,
    build_single_head,
    fuse_pair,
    head1_forward,
    head2_forward,
    lincomb_forward,
    model_layout,
    mut_concat_forward,
)
from meltshift.tape import DEFAULT_LAYERNORM_EPS, Tape

SEQ_ROLES = ("seq_cls", "seq_pos")
ALL_ROLES = ("seq_cls", "seq_pos", "struct_cls", "struct_pos", "avg")
TRACK_SET_WORDS = ("modalities must be a track set, one of "
                   "[['seq'], ['seq', 'struct']], got ")


def random_bundle(vid, d_raw, seed, roles=ALL_ROLES):
    rng = np.random.default_rng(seed)
    return EmbeddingBundle(vid, {r: rng.normal(size=d_raw) for r in roles})


def identity_projection(d, roles):
    layers = {r: LinearParams(np.eye(d), np.zeros(d)) for r in roles}
    return TrackProjection(("seq",), d, d, layers)


def head_params(kind, width, seed):
    """Freshly built parameters of one head of ``width``."""
    return build_single_head(kind, d_raw=3, d_proj=width, seed=seed).heads["head"]


def fused_values(bw, bm, proj):
    """(cls_w, cls_m, a_w, a_m) as arrays."""
    fused = fuse_pair(Tape(), proj, [bw], [bm], ("cls", "pos"))
    return [n.value[0] for pair in fused.values() for n in pair]


def head_nodes(tape, params):
    """A head's arrays bound to ``tape`` under their names inside the head."""
    return {name: tape.leaf(arr, name) for name, arr in params.items()}


def run_head(forward, params, *inputs):
    """Scalar prediction of a tape-level head forward on plain vectors."""
    tape = Tape()
    y = forward(tape, *(tape.leaf(np.asarray(x, dtype=float)) for x in inputs),
                head_nodes(tape, params))
    return float(y.value[0])


def head2_intermediates(params, cls_w, cls_m, a_w, a_m):
    """(cls difference, pos difference, pre-linear feature) off head2's tape."""
    tape = Tape()
    head2_forward(tape, *(tape.leaf(x) for x in (cls_w, cls_m, a_w, a_m)),
                  head_nodes(tape, params))
    # records: sub, layernorm (cls); sub, layernorm (pos); concat; linear
    values = [out.value for out, _, _ in tape._records]
    return values[0], values[2], values[4]


class TestProjectAndFuse:
    def test_single_track_width(self):
        proj = build_ensemble(12, 8, 0, ("seq",)).projection
        bw = random_bundle("X:WT", 12, 1, SEQ_ROLES)
        bm = random_bundle("X:M", 12, 2, SEQ_ROLES)
        out = fused_values(bw, bm, proj)
        assert all(v.shape == (8,) for v in out)

    def test_two_track_width_is_2_dproj(self):
        proj = build_ensemble(12, 8, 0, ("seq", "struct")).projection
        bw = random_bundle("X:WT", 12, 1)
        bm = random_bundle("X:M", 12, 2)
        out = fused_values(bw, bm, proj)
        assert all(v.shape == (16,) for v in out)

    def test_identity_projection_returns_raw(self):
        proj = identity_projection(5, SEQ_ROLES)
        bw = random_bundle("X:WT", 5, 1, SEQ_ROLES)
        bm = random_bundle("X:M", 5, 2, SEQ_ROLES)
        cls_w, cls_m, a_w, a_m = fused_values(bw, bm, proj)
        assert np.array_equal(cls_w, bw.tracks["seq_cls"])
        assert np.array_equal(cls_m, bm.tracks["seq_cls"])
        assert np.array_equal(a_w, bw.tracks["seq_pos"])
        assert np.array_equal(a_m, bm.tracks["seq_pos"])

    def test_projection_without_a_layer_for_a_read_role(self):
        proj = identity_projection(5, ("seq_cls",))
        bw = random_bundle("X:WT", 5, 1, SEQ_ROLES)
        bm = random_bundle("X:M", 5, 2, SEQ_ROLES)
        with pytest.raises(ConfigError) as caught:
            fused_values(bw, bm, proj)
        assert str(caught.value) == "projection has no layer for track role 'seq_pos'"

    def test_track_set_mismatch_names_variant_and_track(self):
        model = build_ensemble(d_raw=5, d_proj=4, seed=0)
        bw = random_bundle("X:WT", 5, 1, SEQ_ROLES)
        bm = random_bundle("X:M", 5, 2, ("seq_cls",))
        with pytest.raises(DataError, match=r"X:M.*seq_pos"):
            model.predict(bw, bm)

    def test_bundle_without_tracks_is_data_error(self):
        model = build_ensemble(d_raw=5, d_proj=4, seed=0)
        bw = random_bundle("X:WT", 5, 1, SEQ_ROLES)
        with pytest.raises(DataError) as caught:
            model.predict(bw, EmbeddingBundle("X:M", {}))
        assert str(caught.value) == "bundle X:M lacks track 'seq_cls'"


def head1_oracle(a_w, a_m, a):
    flat = np.outer(a_m, a_w).ravel()
    return float((a["out.weight"] @ (a["mix.weight"] @ flat + a["mix.bias"])
                  + a["out.bias"])[0])


def head2_oracle(cls_w, cls_m, a_w, a_m, a):
    def ln(x, g, b):
        return g * (x - x.mean()) / np.sqrt(x.var() + DEFAULT_LAYERNORM_EPS) + b

    feat = np.concatenate([
        ln(cls_w - cls_m, a["ln_cls.gamma"], a["ln_cls.beta"]),
        ln(a_w - a_m, a["ln_pos.gamma"], a["ln_pos.beta"]),
    ])
    return float((a["out.weight"] @ feat + a["out.bias"])[0])


class TestHead1:
    def test_zero_input_isolates_bias_chain(self):
        rng = np.random.default_rng(3)
        p = head_params(HeadKind.HEAD1_OUTER, 4, 3)
        p["mix.bias"][:] = rng.normal(size=4)
        p["out.bias"][:] = rng.normal(size=1)
        expected = float((p["out.weight"] @ p["mix.bias"]
                          + p["out.bias"])[0])
        got = run_head(head1_forward, p, np.zeros(4), rng.normal(size=4))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_hand_matrix_case(self):
        p = {"mix.weight": np.ones((2, 4)), "mix.bias": np.zeros(2),
             "out.weight": np.ones((1, 2)), "out.bias": np.zeros(1)}
        # outer(a_m, a_w) = [[0,0],[1,0]] -> flat [0,0,1,0] -> mix [1,1] -> 2
        assert run_head(head1_forward, p, [1.0, 0.0], [0.0, 1.0]) == \
            pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(10 + seed)
        p = head_params(HeadKind.HEAD1_OUTER, 6, 10 + seed)
        a_w, a_m = rng.normal(size=6), rng.normal(size=6)
        assert run_head(head1_forward, p, a_w, a_m) == pytest.approx(
            head1_oracle(a_w, a_m, p), rel=1e-12)

    def test_shape_law(self):
        p = head_params(HeadKind.HEAD1_OUTER, 4, 0)
        assert p["mix.weight"].shape == (4, 16)
        assert p["out.weight"].shape == (1, 4)

    def test_intermediate_shapes_on_tape(self):
        # the fused outer product has d^2 entries, the mixed vector d
        rng = np.random.default_rng(1)
        p = head_params(HeadKind.HEAD1_OUTER, 5, 1)
        t = Tape()
        head1_forward(t, t.leaf(rng.normal(size=5)), t.leaf(rng.normal(size=5)),
                      head_nodes(t, p))
        op_shapes = [out.value.shape for out, _, _ in t._records]
        assert op_shapes == [(25,), (5,), (1,)]


class TestHead2:
    def test_self_mutation_collapses_to_beta_channel(self):
        rng = np.random.default_rng(4)
        p = head_params(HeadKind.HEAD2_LNDIFF, 5, 4)
        p["ln_cls.beta"][:] = rng.normal(size=5)
        p["ln_pos.beta"][:] = rng.normal(size=5)
        v = rng.normal(size=5)
        c = rng.normal(size=5)
        expected = float((p["out.weight"] @ np.concatenate(
            [p["ln_cls.beta"], p["ln_pos.beta"]])
                          + p["out.bias"])[0])
        assert run_head(head2_forward, p, c, c, v, v) == pytest.approx(
            expected, rel=1e-12)

    def test_self_mutation_zero_differences(self):
        rng = np.random.default_rng(5)
        p = head_params(HeadKind.HEAD2_LNDIFF, 5, 5)
        v, c = rng.normal(size=5), rng.normal(size=5)
        dcls, dpos, _ = head2_intermediates(p, c, c, v, v)
        assert np.array_equal(dcls, np.zeros(5))
        assert np.array_equal(dpos, np.zeros(5))

    def test_swap_antisymmetry_of_core(self):
        rng = np.random.default_rng(6)
        p = head_params(HeadKind.HEAD2_LNDIFF, 6, 6)
        cw, cm = rng.normal(size=6), rng.normal(size=6)
        aw, am = rng.normal(size=6), rng.normal(size=6)
        _, _, feat = head2_intermediates(p, cw, cm, aw, am)
        _, _, feat_swapped = head2_intermediates(p, cm, cw, am, aw)
        assert np.allclose(feat_swapped, -feat, atol=1e-9)
        # prediction offset flips around the output bias
        y = run_head(head2_forward, p, cw, cm, aw, am)
        y_swapped = run_head(head2_forward, p, cm, cw, am, aw)
        b = float(p["out.bias"][0])
        assert (y_swapped - b) == pytest.approx(-(y - b), rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_straight_line_oracle(self, seed):
        rng = np.random.default_rng(20 + seed)
        p = head_params(HeadKind.HEAD2_LNDIFF, 8, 20 + seed)
        p["ln_cls.gamma"][:] = rng.normal(size=8)
        p["ln_pos.beta"][:] = rng.normal(size=8)
        cw, cm = rng.normal(size=8), rng.normal(size=8)
        aw, am = rng.normal(size=8), rng.normal(size=8)
        assert run_head(head2_forward, p, cw, cm, aw, am) == pytest.approx(
            head2_oracle(cw, cm, aw, am, p), rel=1e-12)


class TestAblationHeads:
    def test_mut_concat_zero_inputs_gives_bias(self):
        rng = np.random.default_rng(7)
        p = head_params(HeadKind.MUT_CONCAT, 4, 7)
        p["out.bias"][:] = [2.5]
        got = run_head(mut_concat_forward, p, np.zeros(4), np.zeros(4))
        assert got == pytest.approx(2.5)

    def test_lincomb_difference_collapse(self):
        rng = np.random.default_rng(8)
        p = head_params(HeadKind.MUT_LINCOMB, 4, 8)
        p["alpha"][:] = [1.0]
        p["beta"][:] = [-1.0]
        p["out.bias"][:] = [1.25]
        v = rng.normal(size=4)
        got = run_head(lincomb_forward, p, v, v)
        assert got == pytest.approx(1.25)

    def test_lincomb_matches_formula(self):
        rng = np.random.default_rng(9)
        p = head_params(HeadKind.CLS_LINCOMB, 5, 9)
        p["alpha"][:] = [0.7]
        p["beta"][:] = [0.2]
        xw, xm = rng.normal(size=5), rng.normal(size=5)
        expected = float((p["out.weight"] @ (0.7 * xw + 0.2 * xm)
                          + p["out.bias"])[0])
        got = run_head(lincomb_forward, p, xw, xm)
        assert got == pytest.approx(expected, rel=1e-12)


class TestEnsemble:
    def test_prediction_is_exact_mean(self):
        model = build_ensemble(d_raw=10, d_proj=4, seed=0)
        for seed in range(5):
            bw = random_bundle("X:WT", 10, 2 * seed)
            bm = random_bundle("X:M", 10, 2 * seed + 1)
            y1, y2, y_ens = model.predict(bw, bm)
            assert abs(y_ens - 0.5 * (y1 + y2)) < 1e-12

    def test_self_mutation_collapse_through_model(self):
        model = build_ensemble(d_raw=10, d_proj=4, seed=0)
        b = random_bundle("X:WT", 10, 3)
        cls_w, cls_m, a_w, a_m = fused_values(b, b, model.projection)
        dcls, dpos, _ = head2_intermediates(model.heads["head2"], cls_w, cls_m, a_w, a_m)
        assert np.array_equal(dcls, np.zeros(4))
        assert np.array_equal(dpos, np.zeros(4))
        # so head2 predicts from its LayerNorm beta channels alone
        h2 = model.heads["head2"]
        beta_only = float((h2["out.weight"] @ np.concatenate(
            [h2["ln_cls.beta"], h2["ln_pos.beta"]]) + h2["out.bias"])[0])
        assert model.predict(b, b).y2 == pytest.approx(beta_only, rel=1e-12)

    def test_same_seed_same_params(self):
        a = build_ensemble(d_raw=10, d_proj=4, seed=42)
        b = build_ensemble(d_raw=10, d_proj=4, seed=42)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_param_counts_differ_by_kind(self):
        counts = {}
        for kind in HeadKind:
            model = build_single_head(kind, d_raw=10, d_proj=8, seed=0)
            counts[kind] = model.param_count()
            assert counts[kind] > 0
        # the outer-product head dwarfs the concatenation head
        assert counts[HeadKind.HEAD1_OUTER] > 4 * counts[HeadKind.MUT_CONCAT]

    def test_batch_loss_components(self):
        model = build_ensemble(d_raw=10, d_proj=4, seed=1)
        samples = [(random_bundle("A:WT", 10, 1), random_bundle("A:M", 10, 2), 1.0),
                   (random_bundle("B:WT", 10, 3), random_bundle("B:M", 10, 4), -2.0)]
        total, losses = model.batch_loss(Tape(), samples)
        assert losses.l_total == pytest.approx(
            losses.l_head1 + losses.l_head2 + losses.l_ensemble, abs=1e-12)
        assert total.value[0] == pytest.approx(losses.l_total)


@pytest.mark.parametrize("kind", list(HeadKind))
def test_single_head_is_an_ensemble_of_one(kind):
    model = build_single_head(kind, d_raw=7, d_proj=4, seed=0,
                              modalities=("seq", "struct"))
    bw, bm = random_bundle("S:WT", 7, 1), random_bundle("S:M", 7, 2)
    y1, y2, y_ens = model.predict(bw, bm)
    assert y1 == y2 == y_ens
    total, losses = model.batch_loss(Tape(), [(bw, bm, 0.5)])
    mse = (y1 - 0.5) ** 2
    assert losses == LossBreakdown(pytest.approx(mse, rel=1e-12), 0.0, 0.0,
                                   pytest.approx(mse, rel=1e-12))
    assert total.value[0] == losses.l_total


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_forward_rows_are_per_pair_predictions(kind):
    # one forward over a batch, a wild type repeated in it, equals pair by pair
    model = build_model(kind, 7, 4, 0, ("seq", "struct"))
    bws = [random_bundle(f"R{i // 2}:WT", 7, i // 2) for i in range(5)]
    bms = [random_bundle(f"R{i // 2}:M{i}", 7, 100 + i) for i in range(5)]
    nodes = model.forward_nodes(Tape(), bws, bms)
    assert all(y.value.shape == (5, 1) for y in nodes)
    for i, (bw, bm) in enumerate(zip(bws, bms)):
        row = [float(y.value[i, 0]) for y in nodes]
        assert np.allclose(row, model.predict(bw, bm), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kind", ["ensemble", "head2"])
def test_predict_batch_runs_one_forward_per_chunk(kind, monkeypatch):
    model = build_model(kind, 7, 4, 0)
    pairs = [(random_bundle(f"R{i // 3}:WT", 7, i // 3),
              random_bundle(f"R{i // 3}:M{i}", 7, 1000 + i))
             for i in range(2 * EVAL_CHUNK + 1)]
    chunks = [pairs[i:i + EVAL_CHUNK] for i in range(0, len(pairs), EVAL_CHUNK)]
    want = []
    for chunk in chunks:
        nodes = model.forward_nodes(Tape(), *map(list, zip(*chunk)))
        want += np.hstack([y.value for y in nodes]).tolist()
    sizes = []
    forward = model.forward_nodes

    def counted(tape, bundles_w, bundles_m):
        sizes.append(len(bundles_w))
        return forward(tape, bundles_w, bundles_m)

    monkeypatch.setattr(model, "forward_nodes", counted)
    got = model.predict_batch(pairs)
    assert sizes == [EVAL_CHUNK, EVAL_CHUNK, 1]
    assert [list(y) for y in got] == want
    assert model.predict_batch([]) == []


@pytest.mark.parametrize("kind", list(HeadKind))
def test_single_head_gradients_match_finite_differences(kind):
    for seed in range(2):
        model = build_single_head(kind, d_raw=7, d_proj=4, seed=seed,
                                  modalities=("seq",))
        rng = np.random.default_rng(100 + seed)
        samples = [
            (random_bundle(f"S{i}:WT", 7, 1000 + 10 * seed + i),
             random_bundle(f"S{i}:M", 7, 2000 + 10 * seed + i),
             float(rng.normal()))
            for i in range(2)
        ]
        result = check_model(model, samples)
        assert result.ok(), (kind, seed, result)


def test_ensemble_gradients_match_finite_differences_multimodal():
    model = build_ensemble(d_raw=6, d_proj=4, seed=3,
                           modalities=("seq", "struct"))
    rng = np.random.default_rng(11)
    samples = [(random_bundle(f"S{i}:WT", 6, 300 + i),
                random_bundle(f"S{i}:M", 6, 400 + i),
                float(rng.normal())) for i in range(2)]
    result = check_model(model, samples)
    assert result.ok(), result


@pytest.mark.parametrize("d_raw,d_proj", [(0, 4), (5, 0), (-1, -1)])
def test_bad_widths_not_built(d_raw, d_proj):
    with pytest.raises(ConfigError) as caught:
        build_model("ensemble", d_raw, d_proj, 0)
    assert str(caught.value) == f"bad projection widths d_raw={d_raw}, d_proj={d_proj}"


def test_empty_batch_has_no_loss():
    with pytest.raises(ConfigError) as caught:
        build_model("head1", 5, 3, 0).batch_loss(Tape(), [])
    assert str(caught.value) == "batch_loss: empty batch"


def test_build_model_by_name():
    assert build_model("ensemble", 8, 4, 0).kind_name == "ensemble"
    assert build_model("mut_concat", 8, 4, 0).kind_name == "mut_concat"
    with pytest.raises(ConfigError, match="unknown model kind 'bogus'"):
        build_model("bogus", 8, 4, 0)


@pytest.mark.parametrize("modalities", [("seq",), ("seq", "struct")])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_param_shapes_are_the_built_shapes(kind, modalities):
    # a checkpoint is written and read in named_parameters order, so the
    # built parameters must follow the layout in order, not just as a set
    model = build_model(kind, 7, 3, 0, modalities)
    built = [(name, arr.shape) for name, arr in model.named_parameters()]
    layout = [(name, shape) for name, shape, _ in
              model_layout(kind, 7, 3, modalities)]
    assert built == layout


@pytest.mark.parametrize("kind", ["ensemble", "mut_concat"])
def test_repeated_modality_rejected(kind):
    with pytest.raises(ConfigError) as caught:
        build_model(kind, 7, 3, 0, ("seq", "seq"))
    assert str(caught.value) == f"{TRACK_SET_WORDS}['seq', 'seq']"


@pytest.mark.parametrize("modalities", [
    (), ("struct",), ("struct", "seq"), ("seq", "struct", "seq"), ["seq", "avg"],
    "seq",
])
def test_track_set_outside_the_format_not_built(modalities):
    shown = list(modalities) if isinstance(modalities, tuple) else modalities
    with pytest.raises(ConfigError) as caught:
        build_model("ensemble", 7, 3, 0, modalities)
    assert str(caught.value) == f"{TRACK_SET_WORDS}{shown!r}"
