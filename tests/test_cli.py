import hashlib
import json
import logging
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from meltshift import cli, gradcheck, splitter
from meltshift.checkpoint import load_checkpoint, save_checkpoint
from meltshift.cli import main
from meltshift.data import TRACK_ROLES, EmbeddingBundle, load_dataset, read_bundles, \
    write_bundles, write_dataset
from meltshift.errors import ConfigError, FormatError
from meltshift.heads import build_model
from meltshift.optim import AdamState
from meltshift.splitter import read_split
from meltshift.tape import Tape
from meltshift.trainer import TrainConfig

from conftest import random_records


@pytest.fixture
def dataset_path(tmp_path):
    records = random_records(12, 3, seed=31, dtm_scale=1.0)
    path = tmp_path / "data.csv"
    write_dataset(path, records)
    return path


@pytest.fixture
def three_record_dataset(tmp_path):
    records = random_records(3, 1, seed=7)
    path = tmp_path / "three.csv"
    write_dataset(path, records)
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestPrepareSplit:
    def test_writes_manifest_with_both_sides(self, dataset_path, tmp_path):
        out = tmp_path / "split.csv"
        assert run("prepare-split", dataset_path, "--out", out, "--seed", 3) == 0
        split = read_split(out)
        assert "train" in split.values() and "val" in split.values()
        assert (tmp_path / "split.csv.manifest.json").exists()

    def test_bad_ratio_is_config_error(self, dataset_path, tmp_path, monkeypatch,
                                       capsys):
        def no_clustering(*args, **kwargs):
            raise AssertionError("greedy_cluster ran before the ratio check")

        monkeypatch.setattr(splitter, "greedy_cluster", no_clustering)
        out = tmp_path / "s.csv"
        assert run("prepare-split", dataset_path, "--out", out,
                   "--ratio", "0:10") == 2
        assert capsys.readouterr().err == (
            "config error: ratio parts must be positive, got 0:10\n")
        assert not out.exists()

    def test_rerun_byte_identical(self, dataset_path, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("prepare-split", dataset_path, "--out", a, "--seed", 9) == 0
        assert run("prepare-split", dataset_path, "--out", b, "--seed", 9) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("k", [0, -2])
    def test_kmer_below_one_is_config_error(self, dataset_path, tmp_path, k):
        out = tmp_path / "s.csv"
        assert run("prepare-split", dataset_path, "--out", out, "--kmer", k) == 2
        assert not out.exists()

    def test_clusters_tsv_import(self, three_record_dataset, tmp_path):
        records = random_records(3, 1, seed=7)
        tsv = tmp_path / "clusters.tsv"
        tsv.write_text("".join(f"{r.protein_id}\t{r.protein_id}\n"
                               for r in records))
        out = tmp_path / "split.csv"
        assert run("prepare-split", three_record_dataset, "--out", out,
                   "--clusters-tsv", tsv) == 0
        assert len(read_split(out)) == 3

    @pytest.mark.parametrize("flag, value, message", [
        ("--kmer", 0, "k-mer length must be >= 1, got 0"),
        ("--kmer", 13, "k-mer length must be <= 12, got 13"),
        ("--identity", 5, "identity threshold must be in (0, 1], got 5.0"),
    ])
    def test_clusters_tsv_still_checks_kmer_and_identity(
            self, three_record_dataset, tmp_path, capsys, flag, value, message):
        tsv = tmp_path / "clusters.tsv"
        tsv.write_text("".join(f"{r.protein_id}\t{r.protein_id}\n"
                               for r in random_records(3, 1, seed=7)))
        out = tmp_path / "split.csv"
        assert run("prepare-split", three_record_dataset, "--out", out,
                   "--clusters-tsv", tsv, flag, value) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_negative_seed_is_config_error(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("prepare-split", dataset_path, "--out", out, "--seed", -1) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestSynthEmbed:
    def test_six_bundles_for_three_proteins(self, three_record_dataset, tmp_path):
        out = tmp_path / "b.dtme"
        assert run("synth-embed", three_record_dataset, "--out", out,
                   "--d-raw", 8) == 0
        assert len(read_bundles(out)) == 6  # WT+MUT per record, 3 proteins

    def test_rerun_byte_identical(self, three_record_dataset, tmp_path):
        a, b = tmp_path / "a.dtme", tmp_path / "b.dtme"
        assert run("synth-embed", three_record_dataset, "--out", a) == 0
        assert run("synth-embed", three_record_dataset, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_d_raw_is_config_error(self, three_record_dataset, tmp_path):
        assert run("synth-embed", three_record_dataset,
                   "--out", tmp_path / "x.dtme", "--d-raw", 0) == 2

    def test_negative_seed_is_config_error(self, three_record_dataset, tmp_path,
                                           capsys):
        out = tmp_path / "x.dtme"
        assert run("synth-embed", three_record_dataset, "--out", out,
                   "--seed", -1) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_non_ascii_position_in_dataset_is_data_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "d.csv"
        path.write_text("protein_id,wt_sequence,mutation,dtm\n"
                        "P1,MKIL,L4A,1.0\nP1,MKIL,A²G,1.0\n", encoding="utf-8")
        assert run("synth-embed", path, "--out", tmp_path / "x.dtme") == 3
        assert "d.csv:3: malformed mutation code 'A²G'" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path):
        assert run("synth-embed", tmp_path / "nope.csv",
                   "--out", tmp_path / "x.dtme") == 3


@pytest.fixture
def pipeline(dataset_path, tmp_path):
    bundles = tmp_path / "b.dtme"
    split = tmp_path / "split.csv"
    assert run("synth-embed", dataset_path, "--out", bundles, "--d-raw", 10,
               "--seed", 2) == 0
    assert run("prepare-split", dataset_path, "--out", split, "--seed", 2) == 0
    return dataset_path, bundles, split


class TestTrainEvalPredict:
    def test_train_writes_run_directory(self, pipeline, tmp_path):
        dataset, bundles, split = pipeline
        rundir = tmp_path / "run"
        assert run("train", dataset, bundles, "--out", rundir, "--split", split,
                   "--epochs", 2, "--d-proj", 4, "--max-lr", 1e-2,
                   "--batch-size", 6, "--seed", 1) == 0
        for name in ("config.json", "history.json", "checkpoint.bin",
                     "run_manifest.json", "eval.json", "predictions.csv"):
            assert (rundir / name).exists(), name
        history = json.loads((rundir / "history.json").read_text())
        assert len(history) == 2
        assert history[0]["losses"]["l_total"] > 0

    def test_diverging_run_exits_4_without_numpy_warnings(self, pipeline,
                                                          tmp_path, capsys):
        dataset, bundles, split = pipeline
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("train", dataset, bundles, "--out", tmp_path / "run",
                       "--split", split, "--epochs", 2, "--d-proj", 4,
                       "--max-lr", 1e300, "--batch-size", 6, "--seed", 1)
        assert code == 4
        assert "numeric error: non-finite loss" in capsys.readouterr().err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_eval_checkpoint(self, pipeline, tmp_path, capsys):
        dataset, bundles, split = pipeline
        rundir = tmp_path / "run"
        run("train", dataset, bundles, "--out", rundir, "--epochs", 2,
            "--d-proj", 4, "--max-lr", 1e-2, "--seed", 1)
        out = tmp_path / "report.json"
        assert run("eval", rundir / "checkpoint.bin", dataset, bundles,
                   "--out", out) == 0
        captured = capsys.readouterr()
        assert "r(up)" in captured.out
        report = json.loads(out.read_text())
        assert set(report) == {"r", "mae", "rmse", "n"}

    def test_eval_reports_skipped_records_once(self, pipeline, tmp_path, capsys,
                                               caplog):
        dataset, bundles, split = pipeline
        rundir = tmp_path / "run"
        assert run("train", dataset, bundles, "--out", rundir, "--epochs", 1,
                   "--d-proj", 4, "--seed", 1) == 0
        # one protein's wild type is gone: all of its records are lost
        records = load_dataset(dataset)
        wt_id = records[0].wt_variant_id
        n_lost = sum(r.wt_variant_id == wt_id for r in records)
        assert n_lost == 3
        gap = read_bundles(bundles)
        del gap[wt_id]
        write_bundles(tmp_path / "gap.dtme", gap)
        capsys.readouterr()
        with caplog.at_level(logging.DEBUG):
            assert run("eval", rundir / "checkpoint.bin", dataset,
                       tmp_path / "gap.dtme") == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "skipped" in line] == [
            f"skipped {n_lost} record(s) with missing bundles, e.g. {[wt_id]}"]
        assert not [r for r in caplog.records if "skipped" in r.getMessage()]

    def test_predict_known_and_missing(self, pipeline, tmp_path, capsys):
        dataset, bundles, split = pipeline
        rundir = tmp_path / "run"
        run("train", dataset, bundles, "--out", rundir, "--epochs", 1,
            "--d-proj", 4, "--max-lr", 1e-2, "--seed", 1)
        records = random_records(12, 3, seed=31, dtm_scale=1.0)
        spec = f"{records[0].protein_id}:{records[0].mutation.code}"
        assert run("predict", rundir / "checkpoint.bin", bundles,
                   "--mutations", spec) == 0
        out = capsys.readouterr().out
        assert records[0].protein_id in out

        code = run("predict", rundir / "checkpoint.bin", bundles,
                   "--mutations", f"{records[0].protein_id}:A999C")
        assert code == 3
        assert "A999C" in capsys.readouterr().err

    def test_predict_writes_nothing_when_a_later_spec_fails(self, pipeline,
                                                           tmp_path, capsys):
        dataset, bundles, split = pipeline
        rundir = tmp_path / "run"
        run("train", dataset, bundles, "--out", rundir, "--epochs", 1,
            "--d-proj", 4, "--max-lr", 1e-2, "--seed", 1)
        first = load_dataset(dataset)[0]
        capsys.readouterr()
        code = run("predict", rundir / "checkpoint.bin", bundles, "--mutations",
                   f"{first.protein_id}:{first.mutation.code},P999:A1C")
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data error: no bundle for variant P999:WT" in captured.err

    def test_predict_finds_bundle_of_zero_padded_code(self, pipeline, tmp_path,
                                                      capsys):
        # load_dataset reads A04G as A4G and names its bundle by A4G
        dataset, bundles, split = pipeline
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, build_model("head1", 10, 4, 0))
        first = load_dataset(dataset)[0]
        mu = first.mutation
        outs = []
        for code in (mu.code, f"{mu.wild_aa}0{mu.position}{mu.mut_aa}"):
            capsys.readouterr()
            assert run("predict", ckpt, bundles, "--mutations",
                       f"{first.protein_id}:{code}") == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert f"\n{first.protein_id},{mu.code}," in outs[1]

    def test_predict_protein_id_with_colon(self, tmp_path, capsys):
        # PDB-chain ids such as 1ABC:A: the spec splits at its last colon
        path = tmp_path / "chains.csv"
        path.write_text("protein_id,wt_sequence,mutation,dtm\n"
                        "1ABC:A,MKIL,L4A,1.5\n1ABC:A,MKIL,K2C,-0.5\n"
                        "P2,ACDEF,A1C,2.0\nP2,ACDEF,C2D,0.5\n", encoding="utf-8")
        bundles, rundir = tmp_path / "b.dtme", tmp_path / "run"
        assert run("synth-embed", path, "--out", bundles, "--d-raw", 8) == 0
        assert run("train", path, bundles, "--out", rundir, "--epochs", 1,
                   "--d-proj", 4, "--seed", 1) == 0
        capsys.readouterr()
        assert run("predict", rundir / "checkpoint.bin", bundles,
                   "--mutations", "1ABC:A:L4A,P2:A1C") == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split(",")[:2] for row in rows[1:]] == [
            ["1ABC:A", "L4A"], ["P2", "A1C"]]

    @pytest.mark.parametrize("code", ["A²G", "A٤G"])
    def test_predict_non_ascii_position_is_data_error(self, pipeline, tmp_path,
                                                      capsys, code):
        dataset, bundles, split = pipeline
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, build_model("head1", 10, 4, 0))
        first = load_dataset(dataset)[0]
        capsys.readouterr()
        assert run("predict", ckpt, bundles, "--mutations",
                   f"{first.protein_id}:{code}") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"malformed mutation code {code!r}" in captured.err

    def test_single_head_training(self, pipeline, tmp_path):
        dataset, bundles, split = pipeline
        rundir = tmp_path / "run_mc"
        assert run("train", dataset, bundles, "--out", rundir,
                   "--head", "mut_concat", "--epochs", 2, "--d-proj", 4,
                   "--max-lr", 1e-2, "--seed", 1) == 0

    def test_tracks_flag_reaches_the_checkpoint(self, dataset_path, tmp_path):
        bundles, rundir = tmp_path / "b2.dtme", tmp_path / "run2"
        assert run("synth-embed", dataset_path, "--out", bundles, "--d-raw", 6,
                   "--tracks", "seq+struct") == 0
        assert run("train", dataset_path, bundles, "--out", rundir, "--epochs", 1,
                   "--d-proj", 4, "--tracks", "seq+struct") == 0
        blob = (rundir / "checkpoint.bin").read_bytes()
        (n,) = struct.unpack_from("<I", blob, 8)
        assert json.loads(blob[12:12 + n])["modalities"] == ["seq", "struct"]

    def test_final_retrain_runs_without_split(self, pipeline, tmp_path):
        dataset, bundles, _ = pipeline
        rundir = tmp_path / "run_fr"
        assert run("train", dataset, bundles, "--out", rundir, "--epochs", 1,
                   "--d-proj", 4, "--max-lr", 1e-2, "--seed", 1) == 0
        # no split to copy and no validation side -> no eval artifacts
        assert (rundir / "checkpoint.bin").exists()
        assert not (rundir / "split.csv").exists()
        assert not (rundir / "eval.json").exists()


    def test_one_validation_mutation_still_finishes(self, tmp_path, caplog):
        # the validation side holds one mutation, so pearson is undefined
        records = random_records(5, 1, seed=3)
        dataset, bundles = tmp_path / "d.csv", tmp_path / "b.dtme"
        write_dataset(dataset, records)
        split = tmp_path / "split.csv"
        split.write_text("protein_id,split,cluster_rep\n" + "".join(
            f"{r.protein_id},{'val' if i == 0 else 'train'},{r.protein_id}\n"
            for i, r in enumerate(records)))
        assert run("synth-embed", dataset, "--out", bundles, "--d-raw", 6) == 0
        rundir = tmp_path / "run"
        with caplog.at_level(logging.WARNING):
            assert run("train", dataset, bundles, "--out", rundir, "--split",
                       split, "--epochs", 2, "--d-proj", 4, "--max-lr", 1e-2) == 0
        assert (rundir / "checkpoint.bin").exists()
        history = json.loads((rundir / "history.json").read_text())
        assert [e["val"] for e in history] == [None, None]
        assert not (rundir / "eval.json").exists()
        assert "validation metrics undefined" in caplog.text


class TestRunDirectory:
    FLAGS = ("--epochs", 1, "--d-proj", 4, "--max-lr", 1e-2, "--seed", 1)

    @pytest.mark.parametrize("rerun", [
        pytest.param((), id="without_split"),
        pytest.param(("--max-lr", 1e60, "--clip-norm", 1e300), id="diverging"),
    ])
    def test_used_directory_is_config_error_and_left_alone(self, rerun, pipeline,
                                                           tmp_path, capsys):
        dataset, bundles, split = pipeline
        rundir = tmp_path / "run"
        assert run("train", dataset, bundles, "--out", rundir, "--split", split,
                   *self.FLAGS) == 0
        before = {p.name: p.read_bytes() for p in rundir.iterdir()}
        capsys.readouterr()
        split_flag = ("--split", split) if rerun else ()
        assert run("train", dataset, bundles, "--out", rundir, *split_flag,
                   *self.FLAGS, *rerun) == 2
        assert capsys.readouterr().err == (
            f"config error: --out {rundir} exists and is not an empty directory\n")
        assert {p.name: p.read_bytes() for p in rundir.iterdir()} == before

    def test_file_is_config_error(self, pipeline, tmp_path):
        dataset, bundles, _ = pipeline
        out = tmp_path / "run"
        out.write_bytes(b"x")
        assert run("train", dataset, bundles, "--out", out, *self.FLAGS) == 2
        assert out.read_bytes() == b"x"

    def test_empty_directory_is_used(self, pipeline, tmp_path):
        dataset, bundles, _ = pipeline
        rundir = tmp_path / "run"
        rundir.mkdir()
        assert run("train", dataset, bundles, "--out", rundir, *self.FLAGS) == 0
        assert (rundir / "checkpoint.bin").exists()


class TestTrainConfigFile:
    def test_own_config_reproduces_the_run(self, pipeline, tmp_path):
        dataset, bundles, split = pipeline
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("train", dataset, bundles, "--out", first, "--split", split,
                   "--head", "head2", "--epochs", 2, "--d-proj", 4,
                   "--max-lr", 1e-2, "--batch-size", 6, "--seed", 1) == 0
        assert run("train", dataset, bundles, "--out", second, "--split", split,
                   "--config", first / "config.json") == 0
        for name in ("checkpoint.bin", "history.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_flag_wins_over_config(self, pipeline, tmp_path):
        dataset, bundles, _ = pipeline
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"epochs": 3, "d_proj": 4, "max_lr": 1e-2}))
        rundir = tmp_path / "run"
        assert run("train", dataset, bundles, "--out", rundir,
                   "--config", config, "--epochs", 1) == 0
        saved = json.loads((rundir / "config.json").read_text())
        assert (saved["epochs"], saved["d_proj"]) == (1, 4)
        assert len(json.loads((rundir / "history.json").read_text())) == 1

    @pytest.mark.parametrize("content,message", [
        pytest.param(b'{"epochs": 3', "unreadable", id="bad_json"),
        pytest.param(b"\xff", "unreadable", id="not_utf8"),
        pytest.param(b'["epochs"]', "object", id="not_an_object"),
        pytest.param(b'{"epochs": "3"}', "epochs", id="epochs_str"),
        pytest.param(b'{"epochs": true, "batch_size": 2.5}', "epochs",
                     id="epochs_bool"),
        pytest.param(b'{"max_lr": NaN}', "max_lr", id="max_lr_nan"),
        pytest.param(b'{"head": "bogus"}', "head", id="bogus_head"),
        pytest.param(b'{"modalities": "seq"}', "modalities", id="modalities_str"),
        pytest.param(b'{"seed": -1}', "seed", id="seed_negative"),
        pytest.param(b'{"freeze_projection": 1}', "freeze_projection",
                     id="freeze_projection_int"),
        pytest.param(None, "c.json", id="missing_file"),
    ])
    def test_bad_config_is_config_error(self, content, message, dataset_path,
                                        tmp_path, capsys):
        config = tmp_path / "c.json"
        if content is not None:
            config.write_bytes(content)
        rundir = tmp_path / "run"
        assert run("train", dataset_path, tmp_path / "b.dtme", "--out", rundir,
                   "--config", config) == 2
        assert message in capsys.readouterr().err
        assert not rundir.exists()

    def test_removed_recipe_keys_are_named(self, dataset_path, tmp_path, capsys):
        # the config.json of a run that still carried the recipe constants
        removed = {"loss_weights": [1.0, 1.0, 1.0], "ln_eps": 1e-05,
                   "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-08,
                   "pct_start": 0.3, "div_factor": 25.0,
                   "final_div_factor": 10000.0}
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**TrainConfig().to_dict(), **removed}))
        assert run("train", dataset_path, tmp_path / "b.dtme", "--out",
                   tmp_path / "run", "--config", config) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in removed)


def _rewrite_header(path, edit):
    blob = path.read_bytes()
    (n,) = struct.unpack_from("<I", blob, 8)
    header = json.dumps(edit(json.loads(blob[12:12 + n]))).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(header)) + header
                     + blob[12 + n:])


def _edit_arrays(h, edit):
    """Apply ``edit`` to each array entry; an entry it maps to None is dropped."""
    arrays = [edit(dict(e)) for e in h["arrays"]]
    return {**h, "arrays": [e for e in arrays if e is not None]}


def _rename(old, new):
    return lambda e: {**e, "name": new} if e["name"] == old else e


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda h: {k: v for k, v in h.items() if k != "arrays"},
                 "lacks", id="no_arrays"),
    pytest.param(lambda h: {k: v for k, v in h.items() if k != "kind"},
                 "lacks", id="no_kind"),
    pytest.param(lambda h: {**h, "kind": "bogus"}, "kind", id="bogus_kind"),
    pytest.param(lambda h: [h], "object", id="not_an_object"),
    pytest.param(lambda h: {**h, "d_raw": "x"}, "d_raw", id="d_raw_str"),
    pytest.param(lambda h: {**h, "d_raw": True}, "d_raw", id="d_raw_bool"),
    pytest.param(lambda h: {**h, "d_proj": 0}, "d_proj", id="d_proj_zero"),
    pytest.param(lambda h: {**h, "seed": "s"}, "seed", id="seed_str"),
    pytest.param(lambda h: {**h, "seed": -1}, "seed", id="seed_negative"),
    pytest.param(lambda h: {**h, "modalities": []}, "modalities",
                 id="modalities_empty"),
    pytest.param(lambda h: {**h, "modalities": "seq"}, "modalities",
                 id="modalities_str"),
    pytest.param(lambda h: {**h, "modalities": ["seq", "seq"]}, "modalities",
                 id="modalities_repeated"),
    pytest.param(lambda h: {**h, "modalities": ["bogus"]}, "modalities",
                 id="modalities_unknown"),
    pytest.param(lambda h: {**h, "arrays": 5}, "arrays", id="arrays_int"),
    pytest.param(lambda h: _edit_arrays(h, lambda e: {"name": e["name"]}),
                 "arrays", id="array_no_shape"),
    pytest.param(lambda h: _edit_arrays(
        h, lambda e: {**e, "shape": [-n for n in e["shape"]]}),
                 "non-negative", id="array_negative_shape"),
    pytest.param(lambda h: {**h, "arrays": h["arrays"] + h["arrays"][-1:]},
                 "expected no array", id="array_repeated"),
    pytest.param(lambda h: {**h, "adam": 5}, "adam", id="adam_int"),
    pytest.param(lambda h: {**h, "adam": {**h["adam"], "t": 1.5}}, "adam",
                 id="adam_t_float"),
    pytest.param(lambda h: {**h, "adam": None}, "adam_m", id="moments_without_adam"),
    pytest.param(lambda h: _edit_arrays(
        h, _rename("adam_m.head1.out.bias", "adam_m.bogus")),
                 "adam_m.bogus", id="moment_of_no_parameter"),
    pytest.param(lambda h: _edit_arrays(
        h, lambda e: None if e["name"] == "adam_v.head1.out.bias" else e),
                 "adam_v.head1.out.bias", id="moments_name_different_parameters"),
    pytest.param(lambda h: _edit_arrays(
        h, lambda e: {**e, "shape": [6, 4]}
        if e["name"] == "adam_m.proj.seq_cls.weight" else e),
                 "shape", id="moment_shape"),
])
def test_bad_checkpoint_header_is_data_error(edit, message, tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    model = build_model("ensemble", 6, 4, 0)
    save_checkpoint(path, model, adam=AdamState.init(dict(model.named_parameters())))
    _rewrite_header(path, edit)
    with pytest.raises(FormatError, match=message):
        load_checkpoint(path)
    assert run("predict", path, tmp_path / "b.dtme", "--mutations",
               "P000:A1C") == 3
    assert "data error" in capsys.readouterr().err


def test_negative_adam_step_count_is_format_error(pipeline, tmp_path, capsys):
    dataset, bundles, _ = pipeline
    path = tmp_path / "m.ckpt"
    model = build_model("head1", 10, 4, 0)
    save_checkpoint(path, model, adam=AdamState.init(dict(model.named_parameters())))
    _rewrite_header(path, lambda h: {**h, "adam": {"t": -7}})
    with pytest.raises(FormatError) as caught:
        load_checkpoint(path)
    assert str(caught.value) == f"{path}: bad adam header {{'t': -7}}"
    capsys.readouterr()
    assert run("eval", path, dataset, bundles) == 3
    assert capsys.readouterr().err == f"data error: {path}: bad adam header {{'t': -7}}\n"


@pytest.mark.parametrize("edit,message", [
    pytest.param(lambda a: [a[1], a[0], *a[2:]],
                 "0 is model.proj.seq_pos.bias shape [4], "
                 "expected model.proj.seq_pos.weight shape [4, 6]", id="reordered"),
    pytest.param(lambda a: a + a[-1:],
                 "18 is adam_v.proj.seq_pos.weight shape [4, 6], "
                 "expected no array", id="repeated"),
    pytest.param(lambda a: a[:2] + a[3:],
                 "2 is model.head.beta shape [1], "
                 "expected model.head.alpha shape [1]", id="missing"),
    pytest.param(lambda a: a[:-1],
                 "17 is no array, "
                 "expected adam_v.proj.seq_pos.weight shape [4, 6]", id="missing_last"),
    pytest.param(lambda a: a[:1] + [{"name": "model.head.gamma", "shape": [1]}] + a[1:],
                 "1 is model.head.gamma shape [1], "
                 "expected model.proj.seq_pos.bias shape [4]", id="extra"),
    pytest.param(lambda a: [{**e, "name": "model.head.b"} if e["name"] == "model.head.beta"
                            else e for e in a],
                 "3 is model.head.b shape [1], "
                 "expected model.head.beta shape [1]", id="renamed"),
    pytest.param(lambda a: [{**e, "shape": [4, 1]} if e["name"] == "adam_m.head.out.weight"
                            else e for e in a],
                 "9 is adam_m.head.out.weight shape [4, 1], "
                 "expected adam_m.head.out.weight shape [1, 4]", id="reshaped"),
])
@pytest.mark.parametrize("command", ["eval", "predict"])
def test_array_list_other_than_writers_names_first_difference(
        edit, message, command, tmp_path, capsys):
    path = tmp_path / "m.ckpt"
    model = build_model("mut_lincomb", 6, 4, 0)
    save_checkpoint(path, model, adam=AdamState.init(dict(model.named_parameters())))
    _rewrite_header(path, lambda h: {**h, "arrays": edit(h["arrays"])})
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: header array {message}"
    args = ([tmp_path / "d.csv"] if command == "eval" else []) + [tmp_path / "b.dtme"]
    if command == "predict":
        args += ["--mutations", "P000:A1C"]
    assert run(command, path, *args) == 3
    assert f"data error: {err.value}" in capsys.readouterr().err


def test_bad_track_set_worded_once(tmp_path):
    """The config, the model builder, the checkpoint writer and the
    checkpoint reader reject a track set in the same words, each with its
    own error class."""
    bad = ("struct", "seq")
    with pytest.raises(ConfigError) as config:
        TrainConfig(modalities=list(bad))
    with pytest.raises(ConfigError) as built:
        build_model("head1", 6, 4, 0, bad)
    model = build_model("head1", 6, 4, 0, ("seq", "struct"))
    model.projection.modalities = bad
    with pytest.raises(ConfigError) as saved:
        save_checkpoint(tmp_path / "bad.ckpt", model)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model("head1", 6, 4, 0, ("seq", "struct")))
    _rewrite_header(path, lambda h: {**h, "modalities": list(bad)})
    with pytest.raises(FormatError) as loaded:
        load_checkpoint(path)
    words = ("modalities must be a track set, one of [['seq'], ['seq', 'struct']], "
             "got ['struct', 'seq']")
    assert str(config.value) == str(built.value) == str(saved.value) == words
    assert str(loaded.value) == f"{path}: header {words}"


def test_checkpoint_with_stored_adam_constants_loads(tmp_path):
    # files written before the recipe constants left the header carry them
    path = tmp_path / "m.ckpt"
    model = build_model("head1", 6, 4, 0)
    adam = AdamState.init(dict(model.named_parameters()))
    adam.t = 7
    save_checkpoint(path, model, adam=adam)
    _rewrite_header(path, lambda h: {**h, "adam": {
        **h["adam"], "beta1": 0.9, "beta2": 0.999, "eps": 1e-08}})
    ckpt = load_checkpoint(path)
    assert ckpt.adam.t == 7
    for (name, a), (_, b) in zip(ckpt.model.named_parameters(),
                                 model.named_parameters()):
        assert np.array_equal(a, b), name


def test_checkpoint_header_widths_checked_before_allocation(tmp_path):
    # 16 KB of arrays whose header claims a 128 MB projection
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, build_model("head1", 10, 8, 0))
    _rewrite_header(path, lambda h: {**h, "d_raw": 2_000_000})
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="shape"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_non_finite_parameter_is_data_error_at_load(command, pipeline, tmp_path,
                                                     capsys):
    dataset, bundles, _ = pipeline
    model = build_model("ensemble", 10, 4, 0)
    dict(model.named_parameters())["head2.out.bias"][0] = float("nan")
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, model)
    first = load_dataset(dataset)[0]
    capsys.readouterr()
    if command == "eval":
        code = run("eval", path, dataset, bundles)
    else:
        code = run("predict", path, bundles, "--mutations",
                   f"{first.protein_id}:{first.mutation.code}")
    assert code == 3
    err = capsys.readouterr().err
    assert "data error" in err and "model.head2.out.bias" in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_bundle_width_other_than_checkpoint_is_data_error(command, pipeline,
                                                          tmp_path, capsys):
    dataset, bundles, _ = pipeline
    rundir, wide = tmp_path / "run", tmp_path / "wide.dtme"
    assert run("train", dataset, bundles, "--out", rundir, "--epochs", 1,
               "--d-proj", 4, "--max-lr", 1e-2) == 0
    assert run("synth-embed", dataset, "--out", wide, "--d-raw", 12) == 0
    first = load_dataset(dataset)[0]
    capsys.readouterr()
    if command == "eval":
        code = run("eval", rundir / "checkpoint.bin", dataset, wide)
    else:
        code = run("predict", rundir / "checkpoint.bin", wide, "--mutations",
                   f"{first.protein_id}:{first.mutation.code}")
    assert code == 3
    err = capsys.readouterr().err
    assert (f"data error: bundle {first.wt_variant_id} has width 12, "
            "but the model's d_raw is 10") in err


@pytest.mark.parametrize("kind", ["ensemble", "mut_lincomb"])
def test_predict_writes_the_bits_of_eval_per_sample(kind, tmp_path, capsys):
    # every record, in dataset order, over more than one forward's chunk
    records = random_records(30, 4, seed=3)
    dataset, bundles = tmp_path / "data.csv", tmp_path / "b.dtme"
    write_dataset(dataset, records)
    assert run("synth-embed", dataset, "--out", bundles, "--d-raw", 32) == 0
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_model(kind, 32, 16, 0))
    specs = tmp_path / "specs.txt"
    specs.write_text("".join(f"{r.protein_id}:{r.mutation.code}\n"
                             for r in records))
    per = tmp_path / "per.csv"
    assert run("eval", ckpt, dataset, bundles, "--per-sample", per) == 0
    capsys.readouterr()
    assert run("predict", ckpt, bundles, "--mutations-file", specs) == 0
    predicted = capsys.readouterr().out.splitlines()
    evaluated = per.read_text().splitlines()
    assert len(predicted) == len(records) + 1
    # predict's columns are eval's without the label
    assert predicted == [",".join(row.split(",")[:2] + row.split(",")[3:])
                         for row in evaluated]


def test_mutations_file_with_a_byte_order_mark_predicts_its_twin_rows(pipeline, tmp_path,
                                                                       capsys):
    dataset, bundles, _ = pipeline
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_model("head1", 10, 4, 0))
    specs = "".join(f"{r.protein_id}:{r.mutation.code}\n"
                    for r in load_dataset(dataset)[:5])
    outputs = []
    for name, encoding in (("plain.txt", "utf-8"), ("bom.txt", "utf-8-sig")):
        (tmp_path / name).write_text(specs, encoding=encoding)
        capsys.readouterr()
        assert run("predict", ckpt, bundles, "--mutations-file", tmp_path / name) == 0
        outputs.append(capsys.readouterr().out)
    assert (tmp_path / "bom.txt").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[1] == outputs[0] and len(outputs[0].splitlines()) == 6


def test_mutations_list_with_spaces_predicts_the_file_rows(pipeline, tmp_path, capsys):
    dataset, bundles, _ = pipeline
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_model("head1", 10, 4, 0))
    specs = [f"{r.protein_id}:{r.mutation.code}" for r in load_dataset(dataset)[:3]]
    (tmp_path / "specs.txt").write_text("".join(f" {spec}\n" for spec in specs))
    outputs = []
    for args in (["--mutations", ", ".join(specs)],
                 ["--mutations-file", tmp_path / "specs.txt"]):
        capsys.readouterr()
        assert run("predict", ckpt, bundles, *args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 4


@pytest.mark.parametrize("name, reason", [
    ("nope.txt", "No such file or directory"), (".", "Is a directory")])
def test_unreadable_mutations_file_is_config_error(name, reason, pipeline,
                                                   tmp_path, capsys):
    _, bundles, _ = pipeline
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_model("head1", 10, 4, 0))
    path = tmp_path / name
    capsys.readouterr()
    assert run("predict", ckpt, bundles, "--mutations-file", path) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: {path}: cannot read: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command,corrupt,code", [
    ("train", "dataset", 3), ("train", "split", 3), ("eval", "dataset", 3),
    ("prepare-split", "dataset", 3), ("prepare-split", "clusters", 3),
    ("predict", "mutations", 2),
])
def test_non_utf8_text_input_gets_its_exit_code(command, corrupt, code, pipeline,
                                                 tmp_path, capsys):
    dataset, bundles, split = pipeline
    first = load_dataset(dataset)[0]
    texts = {
        "dataset": dataset.read_bytes(),
        "split": split.read_bytes(),
        "clusters": b"".join(f"{r.protein_id}\t{r.protein_id}\n".encode()
                             for r in load_dataset(dataset)),
        "mutations": f"{first.protein_id}:{first.mutation.code}\n".encode(),
    }
    paths = {name: tmp_path / f"{name}.txt" for name in texts}
    for name, content in texts.items():
        paths[name].write_bytes(content + (b"\xff\n" if name == corrupt else b""))
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_model("head1", 10, 4, 0))
    argv = {
        "train": ["train", paths["dataset"], bundles, "--out", tmp_path / "run",
                  "--split", paths["split"], "--epochs", 1, "--d-proj", 4],
        "eval": ["eval", ckpt, paths["dataset"], bundles],
        "prepare-split": ["prepare-split", paths["dataset"], "--out",
                          tmp_path / "s.csv", "--clusters-tsv", paths["clusters"]],
        "predict": ["predict", ckpt, bundles, "--mutations-file",
                    paths["mutations"]],
    }[command]
    capsys.readouterr()
    assert run(*argv) == code
    err = capsys.readouterr().err
    assert f"{paths[corrupt]}: not UTF-8 text" in err


@pytest.mark.parametrize("command", ["synth-embed", "train"])
def test_unknown_track_set_is_usage_error(command, dataset_path, tmp_path,
                                          capsys):
    out = tmp_path / "out"
    argv = {"synth-embed": ["synth-embed", dataset_path, "--out", out],
            "train": ["train", dataset_path, tmp_path / "b.dtme", "--out", out],
            }[command]
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--tracks", "bogus")
    assert exc.value.code == 2
    assert "--tracks: invalid choice: 'bogus'" in capsys.readouterr().err
    assert not out.exists()


class TestStepLog:
    def _train(self, pipeline, rundir, *flags):
        dataset, bundles, split = pipeline
        assert run("train", dataset, bundles, "--out", rundir, "--split", split,
                   "--epochs", 2, "--d-proj", 4, "--max-lr", 1e-2,
                   "--batch-size", 6, "--seed", 1, *flags) == 0
        return (rundir / "steps.jsonl").read_bytes()

    def test_reruns_byte_identical(self, pipeline, tmp_path):
        first = self._train(pipeline, tmp_path / "a")
        assert first == self._train(pipeline, tmp_path / "b")
        lines = [json.loads(line) for line in first.decode().splitlines()]
        assert [s["step"] for s in lines] == list(range(10))
        assert {s["epoch"] for s in lines} == {1, 2}
        assert set(lines[0]) == {"step", "epoch", "lr", "grad_norm",
                                 "clip_scale", "l_head1", "l_head2",
                                 "l_ensemble", "l_total"}

    def test_scale_below_one_exactly_when_norm_above_bound(self, pipeline,
                                                           tmp_path):
        blob = self._train(pipeline, tmp_path / "a", "--clip-norm", 6.5)
        steps = [json.loads(line) for line in blob.decode().splitlines()]
        clipped = [s["grad_norm"] > 6.5 for s in steps]
        assert any(clipped) and not all(clipped)
        for s, above in zip(steps, clipped):
            assert (s["clip_scale"] < 1.0) == above
            if above:
                assert s["grad_norm"] * s["clip_scale"] <= 6.5 * (1 + 1e-12)
            else:
                assert s["clip_scale"] == 1.0


class TestPipelineDeterminism:
    def test_two_runs_byte_identical_artifacts(self, dataset_path, tmp_path):
        outs = []
        for tag in ("one", "two"):
            base = tmp_path / tag
            base.mkdir()
            bundles = base / "b.dtme"
            split = base / "split.csv"
            rundir = base / "run"
            assert run("synth-embed", dataset_path, "--out", bundles,
                       "--d-raw", 10, "--seed", 4) == 0
            assert run("prepare-split", dataset_path, "--out", split,
                       "--seed", 4) == 0
            assert run("train", dataset_path, bundles, "--out", rundir,
                       "--split", split, "--epochs", 2, "--d-proj", 4,
                       "--max-lr", 1e-2, "--seed", 4) == 0
            outs.append((bundles.read_bytes(), split.read_bytes(),
                         (rundir / "checkpoint.bin").read_bytes(),
                         (rundir / "history.json").read_bytes(),
                         (rundir / "eval.json").read_bytes()))
        assert outs[0] == outs[1]


class TestGradcheckCommand:
    @pytest.mark.parametrize("head", ["head1", "mut_concat", "ensemble"])
    def test_passes_for_heads(self, head, capsys):
        assert run("gradcheck", "--head", head, "--d", 4, "--seed", 1) == 0
        assert "max_rel_err" in capsys.readouterr().out

    def test_bad_width_is_config_error(self):
        assert run("gradcheck", "--d", 0) == 2

    def test_negative_seed_is_config_error(self, capsys):
        assert run("gradcheck", "--d", 2, "--seed", -1) == 2
        assert "config error: seed must be >= 0" in capsys.readouterr().err

    def test_absurd_fd_step_is_numeric_error(self, monkeypatch, capsys):
        # a huge step makes central differences diverge from the analytic
        # gradients, exercising the numeric failure exit class
        monkeypatch.setattr(gradcheck, "DEFAULT_FD_STEP", 10.0)
        code = run("gradcheck", "--head", "head1", "--d", 4)
        assert code == 4
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.parametrize("head,d,seed", [
        ("ensemble", 4, 0), ("head2", 8, 3), ("mut_lincomb", 16, 4),
    ])
    def test_checks_the_acceptance_grid_cell(self, head, d, seed, capsys):
        # test_gradient_suite's samples and model for (head, d, seed)
        rng = np.random.default_rng(50_000 + 97 * d + seed)

        def bundle(vid):
            return EmbeddingBundle(vid, {r: rng.normal(size=d + 3) for r in TRACK_ROLES})

        samples = [(bundle(f"A{i}:WT"), bundle(f"A{i}:M"), float(rng.normal()))
                   for i in range(2)]
        want = gradcheck.check_model(build_model(head, d + 3, d, seed), samples)
        assert run("gradcheck", "--head", head, "--d", d, "--seed", seed) == 0
        assert capsys.readouterr().out == (
            f"head={head} d={d} seed={seed} max_rel_err={want.max_rel_err:.3e} "
            f"worst={want.worst_param}{list(want.worst_index)} ({want.n_checked} values)\n")

    def test_parser_takes_only_head_d_and_seed(self):
        args = cli.build_parser().parse_args(["gradcheck"])
        assert sorted(vars(args)) == ["command", "d", "func", "head", "seed"]


def test_train_copies_split_into_rundir(pipeline, tmp_path):
    dataset, bundles, split = pipeline
    rundir = tmp_path / "run_copy"
    assert run("train", dataset, bundles, "--out", rundir, "--split", split,
               "--epochs", 1, "--d-proj", 4, "--max-lr", 1e-2,
               "--seed", 1) == 0
    assert (rundir / "split.csv").read_bytes() == split.read_bytes()


def test_input_digest_reads_in_blocks(tmp_path):
    path = tmp_path / "big.bin"
    blob = bytes(range(256)) * (32 * 4096)  # 32 MiB
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        digest = cli._file_digest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(blob).hexdigest()
    assert peak < 4 * 2**20, peak


def test_train_manifest_digests_inputs_as_read(pipeline, tmp_path, monkeypatch):
    dataset, bundles, _ = pipeline
    original = hashlib.sha256(dataset.read_bytes()).hexdigest()
    real_train = cli.train

    def train_then_edit(*args, **kwargs):
        result = real_train(*args, **kwargs)
        with open(dataset, "a") as fh:
            fh.write("\n")
        return result

    monkeypatch.setattr(cli, "train", train_then_edit)
    rundir = tmp_path / "run"
    assert run("train", dataset, bundles, "--out", rundir, "--epochs", 1,
               "--d-proj", 4, "--max-lr", 1e-2) == 0
    assert hashlib.sha256(dataset.read_bytes()).hexdigest() != original
    manifest = json.loads((rundir / "run_manifest.json").read_text())
    assert manifest["inputs"][str(dataset)] == original


BAD_ROWS = {"row_with_three_fields": "P1,MKIL,L4A\n",
            "empty_protein_id": ",MKIL,L4A,1.0\n",
            "empty_wt_sequence": "P1,,L4A,1.0\n"}


def _exit_path_argv(case, dataset, bundles, tmp_path):
    """The argv of one exit path that no other test runs."""
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, build_model("head1", 10, 4, 0))
    records = load_dataset(dataset)
    if case == "clusters_tsv_lacks_protein":
        tsv = tmp_path / "clusters.tsv"
        tsv.write_text("".join(f"{pid}\t{pid}\n" for pid in
                               sorted({r.protein_id for r in records})[1:]))
        return ["prepare-split", dataset, "--out", tmp_path / "s.csv",
                "--clusters-tsv", tsv]
    if case == "clusters_tsv_member_twice":
        tsv = tmp_path / "twice.tsv"
        tsv.write_text("R1\tX\n" * 2)
        return ["prepare-split", dataset, "--out", tmp_path / "s.csv",
                "--clusters-tsv", tsv]
    if case == "split_duplicate_protein":
        split = tmp_path / "doubled.csv"
        split.write_text("protein_id,split,cluster_rep\n" + "P000,train,P000\n" * 2)
        return ["train", dataset, bundles, "--out", tmp_path / "run",
                "--split", split, "--epochs", 1, "--d-proj", 4]
    if case == "dataset_without_records":
        empty = tmp_path / "empty.csv"
        write_dataset(empty, [])
        return ["prepare-split", empty, "--out", tmp_path / "s.csv"]
    if case == "clusters_without_records":
        empty, tsv = tmp_path / "empty.csv", tmp_path / "two.tsv"
        write_dataset(empty, [])
        tsv.write_text("A\tA\nB\tB\n")
        return ["prepare-split", empty, "--out", tmp_path / "s.csv",
                "--clusters-tsv", tsv]
    if case == "train_without_records":
        empty = tmp_path / "empty.csv"
        write_dataset(empty, [])
        return ["train", empty, bundles, "--out", tmp_path / "run"]
    if case in BAD_ROWS:
        bad = tmp_path / "bad.csv"
        bad.write_text("protein_id,wt_sequence,mutation,dtm\n" + BAD_ROWS[case],
                       encoding="utf-8")
        return ["prepare-split", bad, "--out", tmp_path / "s.csv"]
    if case == "every_protein_on_val":
        split = tmp_path / "all_val.csv"
        split.write_text("protein_id,split,cluster_rep\n" + "".join(
            f"{pid},val,{pid}\n" for pid in sorted({r.protein_id
                                                    for r in records})))
        return ["train", dataset, bundles, "--out", tmp_path / "run",
                "--split", split, "--epochs", 1, "--d-proj", 4]
    if case == "eval_no_bundle_matches":
        other_data, other = tmp_path / "q.csv", tmp_path / "q.dtme"
        other_data.write_text("protein_id,wt_sequence,mutation,dtm\n"
                              "Q1,MKIL,L4A,1.0\n", encoding="utf-8")
        assert run("synth-embed", other_data, "--out", other, "--d-raw", 10) == 0
        return ["eval", ckpt, dataset, other]
    return {
        "ratio_one_part": ["prepare-split", dataset, "--out", tmp_path / "s.csv",
                           "--ratio", "8"],
        "ratio_not_integers": ["prepare-split", dataset, "--out",
                               tmp_path / "s.csv", "--ratio", "a:b"],
        "kmer_above_twelve": ["prepare-split", dataset, "--out", tmp_path / "s.csv",
                              "--kmer", 13],
        "predict_no_specs": ["predict", ckpt, bundles],
        "predict_spec_without_colon": ["predict", ckpt, bundles,
                                       "--mutations", "L4A"],
    }[case]


@pytest.mark.parametrize("case,code,message", [
    ("ratio_one_part", 2, "config error: ratio must look like 8:2, got '8'"),
    ("ratio_not_integers", 2, "config error: ratio must be integers, got 'a:b'"),
    ("kmer_above_twelve", 2, "config error: k-mer length must be <= 12, got 13"),
    ("clusters_tsv_lacks_protein", 3,
     "data error: cluster table lacks proteins: ['P000']"),
    ("predict_no_specs", 2, "config error: no mutations given: use --mutations "
                            "or --mutations-file"),
    ("predict_spec_without_colon", 2,
     "config error: mutation spec must be PROTEIN:CODE, got 'L4A'"),
    ("every_protein_on_val", 3, "data error: split leaves no training records"),
    ("eval_no_bundle_matches", 3,
     "data error: no evaluable records (all bundles missing?)"),
    ("clusters_tsv_member_twice", 3, "data error: {tmp}/twice.tsv:2: 'X' listed twice"),
    ("split_duplicate_protein", 3,
     "data error: {tmp}/doubled.csv:3: duplicate protein 'P000'"),
    ("dataset_without_records", 2, "config error: no clusters to split"),
    ("clusters_without_records", 2, "config error: the 2 clusters have total "
                                    "weight 0: none of their proteins has a record"),
    ("train_without_records", 3, "data error: empty dataset"),
    ("row_with_three_fields", 3,
     "data error: {tmp}/bad.csv:2: expected 4 fields, got 3"),
    ("empty_protein_id", 3, "data error: {tmp}/bad.csv:2: empty protein_id"),
    ("empty_wt_sequence", 3, "data error: {tmp}/bad.csv:2: P1: empty sequence"),
])
def test_exit_path(case, code, message, pipeline, tmp_path, capsys):
    dataset, bundles, _ = pipeline
    argv = _exit_path_argv(case, dataset, bundles, tmp_path)
    capsys.readouterr()
    assert run(*argv) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1] == message.format(tmp=tmp_path)
    assert captured.out == ""


def test_state_error_exits_1(monkeypatch, capsys):
    # StateError has no handler of its own: a second backward on one tape
    def backward_twice(model, samples):
        tape = Tape()
        loss, _ = model.batch_loss(tape, samples)
        tape.backward(loss)
        tape.backward(loss)

    monkeypatch.setattr(cli, "check_model", backward_twice)
    assert run("gradcheck", "--head", "head1", "--d", 4) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: backward already ran on this tape\n"
    assert captured.out == ""


def test_out_of_memory_exits_1_without_a_traceback(monkeypatch, capsys):
    # numpy's message for ``gradcheck --d 100000``; no test asks for the memory
    message = ("Unable to allocate 74.5 GiB for an array with shape "
               "(100000, 100003) and data type float64")

    def build_model(*args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "build_model", build_model)
    assert run("gradcheck", "--head", "head1", "--d", 100000) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: out of memory: {message}\n"
    assert captured.out == ""


def test_defaults_are_the_module_constants():
    parser = cli.build_parser()
    args = parser.parse_args(["prepare-split", "D", "--out", "O"])
    assert args.identity == splitter.DEFAULT_IDENTITY
    assert cli._parse_ratio(args.ratio) == splitter.DEFAULT_RATIO
    assert args.kmer == splitter.DEFAULT_KMER
