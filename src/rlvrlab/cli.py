"""Command-line entry point wiring curation, verification, training,
evaluation and reporting into reproducible runs.

Exit codes: 0 success, 1 domain failure (a non-equivalent single-pair
verification, a collapsed training run), 2 usage errors, missing files,
malformed input (a bad config, pairs, records, metrics or checkpoint
file), out-of-range numbers and outputs that cannot be written, with a
one-line message.
Training and evaluation draw all their randomness from the run's single
--seed; the other commands use none.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, curation, tasks, trainer, verifier
from .config import TrainConfig, check_eval_sizes
from .policy import CHECKPOINT_VERSION, PolicyParams, load_checkpoint, save_checkpoint

JSONL_SCHEMA_VERSION = 1


def _config_hash(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def write_manifest(
    path: str,
    command: str,
    config_obj,
    seed,
    started_at: str,
    artifacts: list[str],
) -> None:
    """Atomically record what a run did, what it produced and the machine
    and versions it ran on."""
    # The SIMD targets numpy was built for and found: a run is
    # byte-identical only on the same numpy build and dispatch target.
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    manifest = {
        "command": command,
        "config_hash": _config_hash(config_obj),
        "seed": seed,
        "started_at": started_at,
        "finished_at": _utc_now(),
        "artifacts": sorted(artifacts),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "numpy_simd": {"baseline": simd["baseline"], "found": simd["found"]},
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=2, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # Name the manifest, not its temporary file.
        raise OSError(exc.errno, exc.strerror, path) from exc


def _require_file(path: str, parser: argparse.ArgumentParser) -> None:
    if not os.path.isfile(path):
        parser.exit(2, f"error: file not found: {path}\n")


def _require_positive(args, parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if not 0 < value < math.inf:  # also rejects nan
            flag = "--" + name.replace("_", "-")
            want = "finite" if value == math.inf else "positive"
            parser.exit(2, f"error: {flag} must be {want}, got {value}\n")


def _require_seed(args, parser: argparse.ArgumentParser) -> None:
    if args.seed is not None and args.seed < 0:
        parser.exit(2, f"error: --seed must be >= 0, got {args.seed}\n")


def _read_jsonl(path: str, parser: argparse.ArgumentParser) -> list[tuple[int, object]]:
    """Each nonblank line of a JSONL file as (line number, JSON value); a
    missing file or a line that is not JSON exits 2."""
    _require_file(path, parser)
    try:
        return list(curation.read_jsonl(path))
    except ValueError as exc:
        parser.exit(2, f"error: {path} {exc}\n")


def _cmd_verify(args, parser) -> int:
    started = _utc_now()
    # A flag of the other mode would do nothing, so it is a usage error.
    if args.pairs:
        for flag, value in (
            ("--gold", args.gold),
            ("--pred", args.pred),
            ("--manifest", args.manifest),
        ):
            if value is not None:
                parser.exit(2, f"error: {flag} is for single-pair mode, not --pairs\n")
        out_lines = []
        for n, row in _read_jsonl(args.pairs, parser):
            if not (isinstance(row, dict) and "pred" in row and "gold" in row):
                parser.exit(
                    2,
                    f"error: {args.pairs} line {n}: "
                    'expected an object with "pred" and "gold"\n',
                )
            for key in ("pred", "gold"):
                value = row[key]
                if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                    parser.exit(
                        2,
                        f"error: {args.pairs} line {n}: "
                        f'"{key}" must be a string or a number, got {json.dumps(value)}\n',
                    )
            verdict = verifier.verify(str(row["pred"]), str(row["gold"]))
            row["outcome"] = verdict.outcome
            row["stage"] = verdict.stage
            out_lines.append(json.dumps(row, ensure_ascii=False))
        text = "\n".join(out_lines) + ("\n" if out_lines else "")
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            write_manifest(
                args.out + ".manifest.json",
                "verify",
                {"pairs": args.pairs},
                None,
                started,
                [args.out],
            )
        else:
            sys.stdout.write(text)
        return 0
    if args.out is not None:
        parser.exit(2, "error: --out is for --pairs mode\n")
    if args.gold is None or args.pred is None:
        parser.exit(2, "error: verify needs --gold and --pred, or --pairs\n")
    verdict = verifier.verify(args.pred, args.gold)
    print(json.dumps({"outcome": verdict.outcome, "stage": verdict.stage}))
    if args.manifest:
        write_manifest(
            args.manifest,
            "verify",
            {"gold": args.gold, "pred": args.pred},
            None,
            started,
            [],
        )
    return 0 if verdict.outcome == verifier.EQUIVALENT else 1


def _read_records(
    path: str, parser: argparse.ArgumentParser
) -> list[curation.ProblemRecord]:
    try:
        return curation.read_records(path)
    except ValueError as exc:
        parser.exit(2, f"error: {path} {exc}\n")


def _cmd_curate(args, parser) -> int:
    started = _utc_now()
    _require_positive(args, parser, "ngram")
    if not 0 <= args.jaccard <= 1:  # also rejects nan
        parser.exit(2, f"error: --jaccard must be in [0, 1], got {args.jaccard}\n")
    if args.max_answer_chars < 0:
        parser.exit(
            2, f"error: --max-answer-chars must be >= 0, got {args.max_answer_chars}\n"
        )
    _require_file(args.infile, parser)
    for path in args.eval_set:
        _require_file(path, parser)
    records = _read_records(args.infile, parser)
    eval_questions: list[str] = []
    for path in args.eval_set:
        eval_questions.extend(r.question for r in _read_records(path, parser))
    config = curation.CurationConfig(
        ngram_n=args.ngram,
        jaccard_threshold=args.jaccard,
        max_answer_chars=args.max_answer_chars,
        eval_questions=tuple(eval_questions),
    )
    kept, report = curation.run_pipeline(records, config)
    curation.write_records(kept, args.out)
    artifacts = [args.out]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        artifacts.append(args.report)
    print(report.render_table())
    write_manifest(
        args.out + ".manifest.json",
        "curate",
        {
            "in": args.infile,
            "ngram": args.ngram,
            "jaccard": args.jaccard,
            "max_answer_chars": args.max_answer_chars,
            "eval_sets": list(args.eval_set),
        },
        None,
        started,
        artifacts,
    )
    return 0


def _load_config(path: str, parser: argparse.ArgumentParser) -> TrainConfig:
    _require_file(path, parser)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return TrainConfig.from_dict(json.load(fh))
    except (ValueError, TypeError, OverflowError) as exc:
        # Invalid JSON, an unknown key, a wrong type, a failed check, or an
        # integer too large for a float field.
        parser.exit(2, f"error: {path}: {exc}\n")


def _cmd_train(args, parser) -> int:
    started = _utc_now()
    _require_seed(args, parser)
    config = _load_config(args.config, parser)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    metrics_path = os.path.join(args.out_dir, "metrics.jsonl")
    artifacts = [metrics_path]
    t0 = time.time()

    def save(name: str, policy: PolicyParams) -> None:
        path = os.path.join(args.out_dir, name)
        save_checkpoint(policy, path)
        artifacts.append(path)

    try:
        with open(metrics_path, "w", encoding="utf-8") as fh:
            result = trainer.train(
                config,
                metrics_sink=lambda rec: fh.write(
                    json.dumps(rec.to_dict(), sort_keys=True) + "\n"
                ),
                # Each stage's checkpoint is on disk when the stage ends, so
                # a run that aborts later keeps its finished stages.
                stage_sink=lambda idx, policy: save(f"stage{idx + 1}.ckpt", policy),
            )
    except trainer.CollectAbort as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    save("final.ckpt", result.policy)
    write_manifest(
        os.path.join(args.out_dir, "manifest.json"),
        "train",
        config.to_dict(),
        config.seed,
        started,
        artifacts,
    )
    print(
        f"trained {len(result.metrics)} steps across "
        f"{len(config.stages)} stage(s) in {time.time() - t0:.1f}s; "
        f"artifacts in {args.out_dir}"
    )
    return 0


def _cmd_eval(args, parser) -> int:
    started = _utc_now()
    _require_positive(args, parser, "k", "temperature", "max_len", "n_tasks")
    try:
        check_eval_sizes(args.k, args.max_len, args.n_tasks)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    _require_seed(args, parser)
    _require_file(args.ckpt, parser)
    try:
        params = load_checkpoint(args.ckpt)
    except ValueError as exc:
        parser.exit(2, f"error: {args.ckpt}: {exc}\n")
    if args.config:
        spec = _load_config(args.config, parser).task
    else:
        spec = tasks.TaskSpec()
    try:
        score = trainer.evaluate(
            params,
            spec,
            k=args.k,
            temperature=args.temperature,
            max_len=args.max_len,
            seed=args.seed,
            n_tasks=args.n_tasks,
        )
    except ValueError as exc:
        # The sizes and temperature are checked above, so this is the
        # checkpoint: a vocabulary other than the tasks', or a context
        # order no config can train.
        parser.exit(2, f"error: {args.ckpt}: {exc}\n")
    print(json.dumps({"avg_at_k": score, "k": args.k, "n_tasks": args.n_tasks}))
    if args.manifest:
        write_manifest(
            args.manifest,
            "eval",
            {
                "ckpt": args.ckpt,
                "task": dataclasses.asdict(spec),
                "k": args.k,
                "temperature": args.temperature,
                "max_len": args.max_len,
                "n_tasks": args.n_tasks,
                "seed": args.seed,
            },
            args.seed,
            started,
            [],
        )
    return 0


def _cmd_report(args, parser) -> int:
    started = _utc_now()
    rows = []
    for n, row in _read_jsonl(args.metrics, parser):
        if not isinstance(row, dict):
            parser.exit(2, f"error: {args.metrics} line {n}: expected an object\n")
        rows.append(row)
    fields = [f.name for f in dataclasses.fields(trainer.MetricsRecord)]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    write_manifest(
        args.out + ".manifest.json",
        "report",
        {"metrics": args.metrics},
        None,
        started,
        [args.out],
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error, its subparsers' too, in one ``error:`` line."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rlvrlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=(
            f"rlvrlab {__version__} (checkpoint format v{CHECKPOINT_VERSION}, "
            f"jsonl schema v{JSONL_SCHEMA_VERSION})"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a predicted answer against gold")
    p.add_argument("--gold")
    p.add_argument("--pred")
    p.add_argument("--pairs", help="JSONL of {gold, pred} rows for batch mode")
    p.add_argument("--out", help="output JSONL for batch mode (default stdout)")
    p.add_argument("--manifest", help="optional manifest path for single-pair mode")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("curate", help="run the data-curation funnel")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--eval-set", action="append", default=[])
    p.add_argument("--report", help="JSON funnel report path")
    defaults = curation.CurationConfig()
    p.add_argument("--ngram", type=int, default=defaults.ngram_n)
    p.add_argument("--jaccard", type=float, default=defaults.jaccard_threshold)
    p.add_argument("--max-answer-chars", type=int, default=defaults.max_answer_chars)
    p.set_defaults(fn=_cmd_curate)

    p = sub.add_parser("train", help="run multi-stage policy optimization")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="avg@k of a checkpoint on the task")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--config", help="train config supplying the task spec")
    p.add_argument("--k", type=int, default=32)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--max-len", type=int, default=48)
    p.add_argument("--n-tasks", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--manifest", help="optional manifest path")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("report", help="metrics JSONL to CSV curves")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report)
    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.fn(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        # A file the command cannot read or an output it cannot write.
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
