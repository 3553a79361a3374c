"""Command-line surface for the pipeline.

Subcommands: ``prepare-split``, ``synth-embed``, ``train``, ``eval``,
``predict``, ``gradcheck``. Exit codes: 0 success, 1 out of memory or another
error, 2 configuration error, 3 data error, 4 numeric error. Every
artifact-producing command also writes a run manifest (command, option hash,
input digests, tool version, timestamp) next to its output; the manifest is
provenance metadata and is the one output that is not byte-reproducible (it
carries a timestamp).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import canonical_json, load_checkpoint
from .data import (
    TRACK_ROLES,
    TRACK_SETS,
    EmbeddingBundle,
    load_dataset,
    parse_mutation,
    read_bundles,
    synth_bundles,
    variant_ids,
    write_bundles,
    write_table,
)
from .errors import ConfigError, DataError, MeltshiftError, NumericError
from .gradcheck import GRAD_TOLERANCE, check_model
from .heads import MODEL_KINDS, build_model
from .metrics import format_report
from .splitter import DEFAULT_IDENTITY, DEFAULT_KMER, DEFAULT_RATIO, MAX_KMER, \
    check_ratio, load_clusters_tsv, read_split, split_records, write_split
from .trainer import TrainConfig, evaluate, train


def _file_digest(path) -> str:
    """SHA-256 of a file, read in 1 MiB blocks so a large input is never
    held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _input_digests(paths) -> dict[str, str]:
    return {str(p): _file_digest(p) for p in paths}


def _write_json(path, obj) -> None:
    """The JSON form of every run record: sorted keys, indent 2, final newline."""
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_manifest(out_path, command: str, options: dict,
                    inputs: dict[str, str]) -> None:
    """``inputs`` maps each input path to its digest (:func:`_input_digests`)."""
    _write_json(out_path, {
        "command": command,
        "config_hash": hashlib.sha256(canonical_json(options)).hexdigest(),
        "inputs": inputs,
        "tool_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })


def _parse_ratio(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"ratio must look like 8:2, got {text!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"ratio must be integers, got {text!r}") from None
    return check_ratio((a, b))


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare_split(args) -> int:
    records = load_dataset(args.dataset)
    ratio = _parse_ratio(args.ratio)
    clusters = load_clusters_tsv(args.clusters_tsv) if args.clusters_tsv else None
    split = split_records(records, args.identity, ratio, args.seed, args.kmer, clusters)
    write_split(args.out, split)
    n_train = len(split.side("train"))
    n_val = len(split.side("val"))
    print(f"wrote {args.out}: {n_train} train / {n_val} val proteins")
    inputs = [args.dataset] + ([args.clusters_tsv] if args.clusters_tsv else [])
    _write_manifest(str(args.out) + ".manifest.json", "prepare-split",
                    {"identity": args.identity, "ratio": list(ratio),
                     "seed": args.seed, "kmer": args.kmer},
                    _input_digests(inputs))
    return 0


def cmd_synth_embed(args) -> int:
    if args.d_raw < 1:
        raise ConfigError(f"--d-raw must be >= 1, got {args.d_raw}")
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    records = load_dataset(args.dataset)
    modalities = TRACK_SETS[args.tracks]
    bundles = synth_bundles(records, args.d_raw, args.seed, modalities)
    write_bundles(args.out, bundles)
    print(f"wrote {args.out}: {len(bundles)} bundles, d_raw={args.d_raw}")
    _write_manifest(str(args.out) + ".manifest.json", "synth-embed",
                    {"d_raw": args.d_raw, "seed": args.seed,
                     "tracks": args.tracks}, _input_digests([args.dataset]))
    return 0


def _load_train_config(args) -> TrainConfig:
    base = {}
    if args.config:
        try:
            with open(args.config, "rb") as fh:
                base = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{args.config}: cannot read: {exc.strerror}") from None
        except ValueError as exc:
            raise ConfigError(f"{args.config}: unreadable JSON: {exc}") from None
        if not isinstance(base, dict):
            raise ConfigError(f"{args.config}: config is not a JSON object")
    for field in dataclasses.fields(TrainConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            base[field.name] = value
    if args.tracks is not None:
        base["modalities"] = list(TRACK_SETS[args.tracks])
    return TrainConfig.from_dict(base)


def _write_eval_outputs(result, report_path, rows_path) -> None:
    if report_path:
        _write_json(report_path, dataclasses.asdict(result.report))
    if rows_path:
        write_table(rows_path, ["protein_id", "mutation", "label", "y1", "y2", "y_ens"],
                    ([row.protein_id, row.mutation, repr(row.label), repr(row.y1),
                      repr(row.y2), repr(row.y_ens)] for row in result.rows))


def cmd_train(args) -> int:
    config = _load_train_config(args)
    rundir = Path(args.out)
    if rundir.exists() and (not rundir.is_dir() or any(rundir.iterdir())):
        raise ConfigError(f"--out {rundir} exists and is not an empty directory")
    records = load_dataset(args.dataset)
    bundles = read_bundles(args.bundles)
    split = read_split(args.split) if args.split else None
    rundir.mkdir(parents=True, exist_ok=True)
    _write_json(rundir / "config.json", config.to_dict())
    if args.split:
        (rundir / "split.csv").write_bytes(Path(args.split).read_bytes())
    # digest the inputs as they were read, before the run can outlast an edit
    inputs = [args.dataset, args.bundles] + ([args.split] if args.split else [])
    digests = _input_digests(inputs + ([args.config] if args.config else []))

    result = train(records, bundles, config, split,
                   checkpoint_path=rundir / "checkpoint.bin")
    _write_json(rundir / "history.json",
                [dataclasses.asdict(e) for e in result.history])
    (rundir / "steps.jsonl").write_text("".join(
        json.dumps(s.to_dict(), sort_keys=True) + "\n" for s in result.step_log))

    final = result.history[-1]
    print(f"trained {config.head}: {result.steps} steps, "
          f"final train loss {final.losses.l_total:.6f}")
    if result.val is not None:
        _write_eval_outputs(result.val, rundir / "eval.json",
                            rundir / "predictions.csv")
        print(format_report(result.val.report))

    _write_manifest(rundir / "run_manifest.json", "train", config.to_dict(),
                    digests)
    return 0


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    records = load_dataset(args.dataset)
    bundles = read_bundles(args.bundles)
    result = evaluate(ckpt.model, records, bundles)
    print(format_report(result.report))
    if result.skipped:
        print(f"skipped {len(records) - len(result.rows)} record(s) with missing "
              f"bundles, e.g. {result.skipped[:5]}", file=sys.stderr)
    _write_eval_outputs(result, args.out, args.per_sample)
    if args.out:
        _write_manifest(str(args.out) + ".manifest.json", "eval", {},
                        _input_digests([args.checkpoint, args.dataset,
                                        args.bundles]))
    return 0


def _parse_mutation_specs(args) -> list[tuple[str, str]]:
    specs: list[str] = []
    if args.mutations:
        specs.extend(s.strip() for s in args.mutations.split(",") if s.strip())
    if args.mutations_file:
        try:
            with open(args.mutations_file, encoding="utf-8-sig") as fh:
                specs.extend(line.strip() for line in fh if line.strip())
        except UnicodeDecodeError as exc:
            raise ConfigError(
                f"{args.mutations_file}: not UTF-8 text: {exc.reason}") from None
        except OSError as exc:
            raise ConfigError(
                f"{args.mutations_file}: cannot read: {exc.strerror}") from None
    if not specs:
        raise ConfigError("no mutations given: use --mutations or --mutations-file")
    out = []
    for spec in specs:
        if ":" not in spec:
            raise ConfigError(f"mutation spec must be PROTEIN:CODE, got {spec!r}")
        # the code follows the last colon: codes hold none, protein ids
        # may (PDB chains such as 1ABC:A)
        pid, code = spec.rsplit(":", 1)
        # bundles are named by the canonical code, as load_dataset names them
        out.append((pid, parse_mutation(code).code))
    return out


def cmd_predict(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    bundles = read_bundles(args.bundles)
    # every spec is predicted before the first line is written, so a
    # failing spec leaves stdout empty
    specs = _parse_mutation_specs(args)
    ids = [variant_ids(pid, code) for pid, code in specs]
    missing = [vid for pair in ids for vid in pair if vid not in bundles]
    if missing:
        raise DataError(f"no bundle for variant {missing[0]}")
    ys = ckpt.model.predict_batch([[bundles[vid] for vid in pair] for pair in ids])
    writer = csv.writer(sys.stdout)
    writer.writerow(["protein_id", "mutation", "y1", "y2", "y_ens"])
    writer.writerows([*spec, *map(repr, y)] for spec, y in zip(specs, ys))
    return 0


def _random_gradcheck_bundle(vid: str, d_raw: int,
                             rng: np.random.Generator) -> EmbeddingBundle:
    return EmbeddingBundle(vid, {r: rng.normal(size=d_raw) for r in TRACK_ROLES})


def cmd_gradcheck(args) -> int:
    """Check one cell of the acceptance grid: width ``d_raw = d + 3``, two sample
    pairs drawn from ``default_rng(50_000 + 97*d + seed)``."""
    if args.d < 1:
        raise ConfigError(f"--d must be >= 1, got {args.d}")
    d_raw = args.d + 3
    model = build_model(args.head, d_raw, args.d, args.seed)
    rng = np.random.default_rng(50_000 + 97 * args.d + args.seed)
    samples = [(_random_gradcheck_bundle(f"A{i}:WT", d_raw, rng),
                _random_gradcheck_bundle(f"A{i}:M", d_raw, rng), float(rng.normal()))
               for i in range(2)]
    result = check_model(model, samples)
    print(f"head={args.head} d={args.d} seed={args.seed} "
          f"max_rel_err={result.max_rel_err:.3e} "
          f"worst={result.worst_param}{list(result.worst_index)} "
          f"({result.n_checked} values)")
    if result.max_rel_err >= GRAD_TOLERANCE:
        raise NumericError(
            f"gradient check failed: {result.max_rel_err:.3e} >= "
            f"{GRAD_TOLERANCE:.0e} at {result.worst_param}"
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meltshift",
        description="Mutation melting-temperature shift prediction pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-split",
                       help="homology-aware train/val split manifest")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--identity", type=float, default=DEFAULT_IDENTITY)
    p.add_argument("--ratio", default="%d:%d" % DEFAULT_RATIO)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--kmer", type=int, default=DEFAULT_KMER,
                   help=f"k-mer length, 1-{MAX_KMER}")
    p.add_argument("--clusters-tsv",
                   help="import externally computed clusters instead")
    p.set_defaults(func=cmd_prepare_split)

    p = sub.add_parser("synth-embed",
                       help="deterministic synthetic embedding bundles")
    p.add_argument("dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--d-raw", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tracks", default="seq", choices=list(TRACK_SETS))
    p.set_defaults(func=cmd_synth_embed)

    p = sub.add_parser("train", help="train a model into a run directory")
    p.add_argument("dataset")
    p.add_argument("bundles")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--split", help="split manifest from prepare-split")
    p.add_argument("--config",
                   help="JSON object of TrainConfig fields, such as a run's "
                        "config.json (flags win)")
    p.add_argument("--head", choices=MODEL_KINDS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--max-lr", type=float)
    p.add_argument("--clip-norm", type=float, dest="clip_max_norm")
    p.add_argument("--seed", type=int)
    p.add_argument("--d-proj", type=int)
    p.add_argument("--tracks", choices=list(TRACK_SETS))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("checkpoint")
    p.add_argument("dataset")
    p.add_argument("bundles")
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--per-sample", help="per-sample predictions CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="predict listed mutations")
    p.add_argument("checkpoint")
    p.add_argument("bundles")
    p.add_argument("--mutations", help="comma list of PROTEIN:CODE specs; the "
                   "code follows the last colon")
    p.add_argument("--mutations-file", help="file with one PROTEIN:CODE per line")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck",
                       help="verify analytic gradients against finite differences")
    p.add_argument("--head", default="ensemble", choices=MODEL_KINDS)
    p.add_argument("--d", type=int, default=8, help="projection width")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except MeltshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
