import json
import logging
import math
import struct
import tracemalloc

import numpy as np
import pytest

from meltshift.checkpoint import load_checkpoint, save_checkpoint
from meltshift.data import synth_bundles
from meltshift.errors import ConfigError, DataError, NumericError
from meltshift.heads import build_model
from meltshift.metrics import compute_report
from meltshift.optim import AdamState
from meltshift.trainer import (
    LossBreakdown,
    TrainConfig,
    compute_losses,
    evaluate,
    split_sides,
    train,
)

from conftest import random_records


def desk_config(**overrides):
    base = dict(max_lr=1e-2, epochs=10, batch_size=8, seed=0, d_proj=4)
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def desk_data():
    records = random_records(8, 4, seed=21, dtm_scale=1.0)
    bundles = synth_bundles(records, d_raw=12, seed=5)
    return records, bundles


class TestComputeLosses:
    def test_perfect_predictions(self):
        lb = compute_losses(2.0, 2.0, 2.0, 2.0)
        assert (lb.l_head1, lb.l_head2, lb.l_ensemble, lb.l_total) == (0, 0, 0, 0)

    def test_ensemble_can_beat_both_heads(self):
        lb = compute_losses(3.0, 1.0, 2.0, 2.0)
        assert (lb.l_head1, lb.l_head2, lb.l_ensemble) == (1.0, 1.0, 0.0)

    def test_half_factor_on_ensemble_term(self):
        lb = compute_losses(4.0, 4.0, 4.0, 2.0)
        assert (lb.l_head1, lb.l_head2, lb.l_ensemble) == (4.0, 4.0, 2.0)
        assert lb.l_total == 10.0

    @pytest.mark.parametrize("seed", range(5))
    def test_total_is_sum_of_terms(self, seed):
        rng = np.random.default_rng(seed)
        y1, y2, label = rng.normal(size=3) * 5
        lb = compute_losses(y1, y2, 0.5 * (y1 + y2), label)
        assert lb.l_total == pytest.approx(
            lb.l_head1 + lb.l_head2 + lb.l_ensemble, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            compute_losses(float("nan"), 0.0, 0.0, 0.0)


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    def test_roundtrip_dict(self):
        cfg = desk_config(head="mut_concat")
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"no_such_knob": 1})


class TestTraining:
    def test_loss_decreases(self, desk_data):
        records, bundles = desk_data
        result = train(records, bundles, desk_config(epochs=40))
        first = result.history[0].losses.l_total
        last = result.history[-1].losses.l_total
        assert last < 0.5 * first

    def test_scheduler_step_count(self, desk_data):
        records, bundles = desk_data
        cfg = desk_config(epochs=3, batch_size=7)
        result = train(records, bundles, cfg)
        assert result.steps == 3 * math.ceil(len(records) / 7)
        assert result.adam.t == result.steps

    def test_deterministic_checkpoints(self, desk_data, tmp_path):
        records, bundles = desk_data
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        train(records, bundles, desk_config(epochs=3), checkpoint_path=p1)
        train(records, bundles, desk_config(epochs=3), checkpoint_path=p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_validation_never_trains(self, desk_data):
        records, bundles = desk_data
        split = {f"P{i:03d}": ("val" if i >= 6 else "train") for i in range(8)}
        with_split = train(records, bundles, desk_config(epochs=2), split=split)
        train_only = [r for r in records if split[r.protein_id] == "train"]
        without_val = train(train_only, bundles, desk_config(epochs=2))
        for (na, pa), (nb, pb) in zip(with_split.model.named_parameters(),
                                      without_val.model.named_parameters()):
            assert na == nb
            assert np.array_equal(pa, pb)
        assert with_split.history[0].val is not None

    def test_missing_bundle_fails_before_training(self, desk_data):
        records, bundles = desk_data
        broken = dict(bundles)
        del broken[records[0].mut_variant_id]
        with pytest.raises(DataError, match=records[0].mut_variant_id):
            train(records, broken, desk_config(epochs=1))

    def test_split_must_cover_all_proteins(self, desk_data):
        records, bundles = desk_data
        with pytest.raises(DataError, match="missing from split"):
            train(records, bundles, desk_config(epochs=1), split={"P000": "train"})

    def test_freeze_projection(self, desk_data):
        records, bundles = desk_data
        cfg = desk_config(epochs=2, head="mut_concat", freeze_projection=True)
        result = train(records, bundles, cfg)
        fresh = train(records, bundles, cfg)  # same init path
        from meltshift.heads import build_model
        init = build_model("mut_concat", 12, 4, cfg.seed)
        trained = dict(result.model.named_parameters())
        for name, arr in init.named_parameters():
            if name.startswith("proj."):
                assert np.array_equal(trained[name], arr), name
            else:
                assert not np.array_equal(trained[name], arr), name
        del fresh

    def test_single_head_training(self, desk_data):
        records, bundles = desk_data
        result = train(records, bundles, desk_config(epochs=5, head="mut_lincomb"))
        lb = result.history[-1].losses
        assert lb.l_head2 == 0.0 and lb.l_ensemble == 0.0
        assert lb.l_total == lb.l_head1


class TestSplitSides:
    def test_none_is_all_train(self, desk_data):
        records, _ = desk_data
        train_side, val_side = split_sides(records, None)
        assert train_side == list(records) and val_side == []


def test_end_to_end_gradient_on_four_sample_batch(desk_data):
    # total three-term loss vs central differences, d_proj=4
    from meltshift.gradcheck import check_model
    from meltshift.heads import build_ensemble
    records, bundles = desk_data
    model = build_ensemble(d_raw=12, d_proj=4, seed=2)
    samples = [(bundles[r.wt_variant_id], bundles[r.mut_variant_id], r.dtm)
               for r in records[:4]]
    result = check_model(model, samples)
    assert result.max_rel_err < 1e-4, result


class StubModel:
    """Duck-typed ensemble returning canned predictions by variant id."""

    kind_name = "ensemble"

    def __init__(self, mapping):
        self.mapping = mapping

    def predict(self, bundle_w, bundle_m):
        y = self.mapping[bundle_m.variant_id]
        return y, y, y


class TestEvaluate:
    def test_perfect_predictions_score_perfectly(self, desk_data):
        records, bundles = desk_data
        model = StubModel({r.mut_variant_id: r.dtm for r in records})
        result = evaluate(model, records, bundles)
        assert result.report.r == pytest.approx(1.0)
        assert result.report.mae == 0.0
        assert result.report.rmse == 0.0
        assert len(result.rows) == len(records)

    def test_constant_predictor_raises(self, desk_data):
        records, bundles = desk_data
        model = StubModel({r.mut_variant_id: 1.0 for r in records})
        with pytest.raises(NumericError, match="constant"):
            evaluate(model, records, bundles)

    def test_missing_bundles_skipped_and_listed(self, desk_data):
        records, bundles = desk_data
        broken = dict(bundles)
        del broken[records[0].mut_variant_id]
        model = StubModel({r.mut_variant_id: r.dtm + 0.01 * i
                           for i, r in enumerate(records)})
        result = evaluate(model, records, broken)
        assert result.skipped == [records[0].mut_variant_id]
        assert len(result.rows) == len(records) - 1

    def test_skip_warning_counts_records_not_variants(self, desk_data, caplog):
        records, bundles = desk_data
        # a wild type shared by a protein's records, and one of its mutants
        broken = dict(bundles)
        del broken[records[0].wt_variant_id], broken[records[0].mut_variant_id]
        n_lost = sum(r.protein_id == records[0].protein_id for r in records)
        assert 1 < n_lost < len(records)
        model = StubModel({r.mut_variant_id: r.dtm + 0.01 * i
                           for i, r in enumerate(records)})
        with caplog.at_level(logging.WARNING, logger="meltshift.trainer"):
            result = evaluate(model, records, broken)
        assert len(result.rows) == len(records) - n_lost
        assert f"skipped {n_lost} record(s) with missing bundles" in caplog.text

    def test_overfit_model_scores_high_on_train(self, desk_data):
        records, bundles = desk_data
        result = train(records, bundles, desk_config(epochs=60))
        ev = evaluate(result.model, records, bundles)
        assert ev.report.r > 0.9


class TestCheckpoint:
    def test_roundtrip_identical_predictions(self, desk_data, tmp_path):
        records, bundles = desk_data
        cfg = desk_config(epochs=3)
        result = train(records, bundles, cfg)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.model, cfg.to_dict(), result.adam)
        ckpt = load_checkpoint(path)
        for r in records:
            bw, bm = bundles[r.wt_variant_id], bundles[r.mut_variant_id]
            assert ckpt.model.predict(bw, bm) == result.model.predict(bw, bm)
        assert ckpt.config == cfg.to_dict()
        assert ckpt.adam.t == result.adam.t
        for name in result.adam.m:
            assert np.array_equal(ckpt.adam.m[name], result.adam.m[name])

    def test_save_load_save_is_byte_identical(self, desk_data, tmp_path):
        records, bundles = desk_data
        cfg = desk_config(epochs=2)
        result = train(records, bundles, cfg)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, result.model, cfg.to_dict(), result.adam)
        ckpt = load_checkpoint(p1)
        save_checkpoint(p2, ckpt.model, ckpt.config, ckpt.adam)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_head_checkpoint(self, desk_data, tmp_path):
        records, bundles = desk_data
        cfg = desk_config(epochs=2, head="avgpool_lincomb")
        result = train(records, bundles, cfg)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, result.model)
        ckpt = load_checkpoint(path)
        r = records[0]
        bw, bm = bundles[r.wt_variant_id], bundles[r.mut_variant_id]
        assert ckpt.model.predict(bw, bm) == result.model.predict(bw, bm)
        assert ckpt.adam is None

    def test_frozen_projection_keeps_moments_of_trained_subset(self, desk_data,
                                                              tmp_path):
        records, bundles = desk_data
        cfg = desk_config(epochs=1, head="mut_concat", freeze_projection=True)
        result = train(records, bundles, cfg)
        path = tmp_path / "f.ckpt"
        save_checkpoint(path, result.model, cfg.to_dict(), result.adam)
        ckpt = load_checkpoint(path)
        assert sorted(ckpt.adam.m) == sorted(ckpt.adam.v) == sorted(result.adam.m)
        assert not any(name.startswith("proj.") for name in ckpt.adam.m)

    def test_arrays_in_another_order_resave_canonically(self, desk_data,
                                                        tmp_path):
        records, bundles = desk_data
        cfg = desk_config(epochs=1)
        result = train(records, bundles, cfg)
        path, shuffled, resaved = (tmp_path / n for n in ("a.ckpt", "b.ckpt",
                                                          "c.ckpt"))
        save_checkpoint(path, result.model, cfg.to_dict(), result.adam)
        blob = path.read_bytes()
        (n,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + n])
        chunks, offset = [], 12 + n
        for entry in header["arrays"]:
            size = 8 * math.prod(entry["shape"])
            chunks.append((entry, blob[offset:offset + size]))
            offset += size
        chunks.reverse()
        header["arrays"] = [entry for entry, _ in chunks]
        text = json.dumps(header).encode()
        shuffled.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text
                             + b"".join(data for _, data in chunks))
        ckpt = load_checkpoint(shuffled)
        assert ([n for n, _ in ckpt.model.named_parameters()]
                == [n for n, _ in result.model.named_parameters()])
        for (_, a), (_, b) in zip(ckpt.model.named_parameters(),
                                  result.model.named_parameters()):
            assert np.array_equal(a, b)
        save_checkpoint(resaved, ckpt.model, ckpt.config, ckpt.adam)
        assert resaved.read_bytes() == blob

    def test_load_peak_is_the_array_bytes(self, tmp_path):
        # a 6.5 MB array section, moments included: each array is read
        # straight into its owner, with no copy of the file or of an array
        model = build_model("ensemble", 64, 32, 0, ("seq", "struct"))
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, model,
                        adam=AdamState.init(dict(model.named_parameters())))
        array_bytes = 3 * 8 * model.param_count()
        tracemalloc.start()
        try:
            ckpt = load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < array_bytes + 4e6, (peak, array_bytes)
        assert ckpt.model.param_count() == model.param_count()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_named_at_load(self, value, tmp_path):
        from meltshift.errors import FormatError
        model = build_model("mut_lincomb", 6, 4, 0)
        adam = AdamState.init(dict(model.named_parameters()))
        adam.v["head.alpha"][0] = value
        path = tmp_path / "nan.ckpt"
        save_checkpoint(path, model, adam=adam)
        with pytest.raises(FormatError, match=r"adam_v\.head\.alpha.*non-finite"):
            load_checkpoint(path)

    def test_corrupt_magic(self, tmp_path):
        from meltshift.errors import FormatError
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\0" * 20)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_track_set_outside_the_format_not_saved(self, tmp_path):
        path = tmp_path / "m.ckpt"
        with pytest.raises(ConfigError, match="track set"):
            save_checkpoint(path, build_model("head1", 6, 4, 0, ("struct", "seq")))
        assert not path.exists()

    def test_truncated_arrays(self, desk_data, tmp_path):
        from meltshift.errors import FormatError
        records, bundles = desk_data
        result = train(records, bundles, desk_config(epochs=1))
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, result.model)
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)
