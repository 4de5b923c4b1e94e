"""Command-line entry point wiring curation, verification, training,
evaluation and reporting into reproducible runs.

``dispatch`` alone maps a command's outcome to its exit code: 0 success,
1 domain failure (a non-equivalent single-pair verification, a collapsed
training run), 2 usage errors, missing files, malformed input (a bad
config, pairs, records, metrics or checkpoint file), out-of-range numbers
and outputs that cannot be written, with a one-line message.
Training and evaluation draw all their randomness from the run's single
--seed; the other commands use none.
"""

from __future__ import annotations

import argparse
import contextlib
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


def write_manifest(path: str, args, config_obj, seed, artifacts: list[str]) -> None:
    """Atomically record what the command ``args`` did, what it produced and
    the machine and versions it ran on."""
    # The SIMD targets numpy was built for and found: a run is
    # byte-identical only on the same numpy build and dispatch target.
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    manifest = {
        "command": args.command,
        "config_hash": _config_hash(config_obj),
        "seed": seed,
        "started_at": args.started_at,
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


class _Usage(Exception):
    """A usage error, a missing file or malformed input: ``dispatch`` prints
    ``error: <message>`` and exits 2."""


@contextlib.contextmanager
def _reading(prefix: str, errors=ValueError):
    """Report a reader's ``errors`` as a usage error, ``prefix`` first."""
    try:
        yield
    except errors as exc:
        raise _Usage(f"{prefix}{exc}") from None


def _require_file(path: str) -> None:
    if not os.path.isfile(path):
        raise _Usage(f"file not found: {path}")


def _require_positive(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if not 0 < value < math.inf:  # also rejects nan
            flag = "--" + name.replace("_", "-")
            want = "finite" if value == math.inf else "positive"
            raise _Usage(f"{flag} must be {want}, got {value}")


def _require_seed(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise _Usage(f"--seed must be >= 0, got {args.seed}")


def _read_jsonl(path: str) -> list[tuple[int, object]]:
    """Each nonblank line of a JSONL file as (line number, JSON value); a
    missing file or a line that is not JSON is a usage error."""
    _require_file(path)
    with _reading(f"{path} "):
        return list(curation.read_jsonl(path))


def _cmd_verify(args) -> int:
    # A flag of the other mode would do nothing, so it is a usage error.
    if args.pairs:
        for flag, value in (
            ("--gold", args.gold),
            ("--pred", args.pred),
            ("--manifest", args.manifest),
        ):
            if value is not None:
                raise _Usage(f"{flag} is for single-pair mode, not --pairs")
        out_lines = []
        for n, row in _read_jsonl(args.pairs):
            where = f"{args.pairs} line {n}: "
            if not (isinstance(row, dict) and "pred" in row and "gold" in row):
                raise _Usage(where + 'expected an object with "pred" and "gold"')
            for key in ("pred", "gold"):
                value = row[key]
                if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                    raise _Usage(
                        f'{where}"{key}" must be a string or a number, got {json.dumps(value)}'
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
                args.out + ".manifest.json", args, {"pairs": args.pairs}, None, [args.out]
            )
        else:
            sys.stdout.write(text)
        return 0
    if args.out is not None:
        raise _Usage("--out is for --pairs mode")
    if args.gold is None or args.pred is None:
        raise _Usage("verify needs --gold and --pred, or --pairs")
    verdict = verifier.verify(args.pred, args.gold)
    print(json.dumps({"outcome": verdict.outcome, "stage": verdict.stage}))
    if args.manifest:
        write_manifest(args.manifest, args, {"gold": args.gold, "pred": args.pred}, None, [])
    return 0 if verdict.outcome == verifier.EQUIVALENT else 1


def _read_records(path: str) -> list[curation.ProblemRecord]:
    with _reading(f"{path} "):
        return curation.read_records(path)


def _cmd_curate(args) -> int:
    _require_positive(args, "ngram")
    if not 0 <= args.jaccard <= 1:  # also rejects nan
        raise _Usage(f"--jaccard must be in [0, 1], got {args.jaccard}")
    if args.max_answer_chars < 0:
        raise _Usage(f"--max-answer-chars must be >= 0, got {args.max_answer_chars}")
    _require_file(args.infile)
    for path in args.eval_set:
        _require_file(path)
    records = _read_records(args.infile)
    eval_questions: list[str] = []
    for path in args.eval_set:
        eval_questions.extend(r.question for r in _read_records(path))
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
        args,
        {
            "in": args.infile,
            "ngram": args.ngram,
            "jaccard": args.jaccard,
            "max_answer_chars": args.max_answer_chars,
            "eval_sets": list(args.eval_set),
        },
        None,
        artifacts,
    )
    return 0


def _load_config(path: str) -> TrainConfig:
    _require_file(path)
    # Invalid JSON, JSON nested past the recursion limit, an unknown key, a
    # wrong type, a failed check, or an integer too large for a float field.
    with _reading(f"{path}: ", (ValueError, RecursionError, TypeError, OverflowError)):
        with open(path, "r", encoding="utf-8") as fh:
            return TrainConfig.from_dict(json.load(fh))


def _cmd_train(args) -> int:
    _require_seed(args)
    config = _load_config(args.config)
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
    save("final.ckpt", result.policy)
    manifest = os.path.join(args.out_dir, "manifest.json")
    write_manifest(manifest, args, config.to_dict(), config.seed, artifacts)
    print(
        f"trained {len(result.metrics)} steps across "
        f"{len(config.stages)} stage(s) in {time.time() - t0:.1f}s; "
        f"artifacts in {args.out_dir}"
    )
    return 0


def _cmd_eval(args) -> int:
    _require_positive(args, "k", "temperature", "max_len", "n_tasks")
    with _reading(""):
        check_eval_sizes(args.k, args.max_len, args.n_tasks)
    _require_seed(args)
    _require_file(args.ckpt)
    with _reading(f"{args.ckpt}: "):
        params = load_checkpoint(args.ckpt)
    spec = _load_config(args.config).task if args.config else tasks.TaskSpec()
    # The sizes and temperature are checked above, so this is the
    # checkpoint: a vocabulary other than the tasks', or a context
    # order no config can train.
    with _reading(f"{args.ckpt}: "):
        score = trainer.evaluate(
            params,
            spec,
            k=args.k,
            temperature=args.temperature,
            max_len=args.max_len,
            seed=args.seed,
            n_tasks=args.n_tasks,
        )
    print(json.dumps({"avg_at_k": score, "k": args.k, "n_tasks": args.n_tasks}))
    if args.manifest:
        write_manifest(
            args.manifest,
            args,
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
            [],
        )
    return 0


def _cmd_report(args) -> int:
    rows = []
    for n, row in _read_jsonl(args.metrics):
        if not isinstance(row, dict):
            raise _Usage(f"{args.metrics} line {n}: expected an object")
        rows.append(row)
    fields = [f.name for f in dataclasses.fields(trainer.MetricsRecord)]
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    write_manifest(
        args.out + ".manifest.json", args, {"metrics": args.metrics}, None, [args.out]
    )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, its subparsers' too, as a ``_Usage``."""

    def error(self, message):
        raise _Usage(message)


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
    """Run the command ``argv`` names and return its exit code.  The one
    place where an outcome becomes an exit code and a line on stderr."""
    try:
        args = build_parser().parse_args(argv)
        args.started_at = _utc_now()
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits 0 after printing --help or --version.
        return int(exc.code or 0)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except trainer.CollectAbort as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # A file the command cannot read or an output it cannot write.
        where = f"{exc.filename}: " if exc.filename is not None else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
