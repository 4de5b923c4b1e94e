"""Inclusion-exclusion pipeline for building a verifiable training set.

Stages run in a fixed order: style/format screening, exact then near
deduplication, decontamination against evaluation questions, difficulty
pruning by pass rate, and an answer-length cap.  Each stage partitions its
input into (kept, excluded) without mutating records, and the funnel report
telescopes the counts.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .verifier import normalize as normalize_answer

PROOF_PATTERN = re.compile(r"\bprove\b|\bshow that\b|\bdisprove\b", re.IGNORECASE)
NON_ASCII_RATIO_LIMIT = 0.3


@dataclass(frozen=True)
class ProblemRecord:
    id: str
    question: str
    answer: str
    source: str = ""
    pass_rate: Optional[float] = None
    response: Optional[str] = None
    response_len: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.question:
            raise ValueError("question must be nonempty")
        rate = self.pass_rate
        if rate is not None:
            if isinstance(rate, bool) or not isinstance(rate, (int, float)):
                raise ValueError(f"pass_rate must be a number, got {rate!r}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"pass_rate {rate} outside [0, 1]")
        if self.response is not None and not isinstance(self.response, str):
            raise ValueError(
                f"response must be a string, got {type(self.response).__name__}"
            )
        n = self.response_len
        if n is not None and (isinstance(n, bool) or not isinstance(n, int) or n < 0):
            shown = n if type(n) is int else type(n).__name__
            raise ValueError(f"response_len must be an integer >= 0, got {shown}")

    def to_dict(self) -> dict:
        out = {
            "id": self.id,
            "question": self.question,
            "answer": self.answer,
            "source": self.source,
        }
        for key in ("pass_rate", "response", "response_len"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, d: dict, fallback_id: str = "") -> "ProblemRecord":
        """The record of a JSON object; a null field is read as absent.  An
        ``id``, ``answer`` or ``source`` may be a string or a number, which
        keeps its ``str()`` form; any other value is a ``ValueError``."""

        def text(key: str, default: str) -> str:
            value = d.get(key)
            if value is None:
                return default
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(
                    f"{key} must be a string or a number, got {type(value).__name__}"
                )
            return str(value)

        return cls(
            id=text("id", fallback_id),
            question=d["question"],
            answer=text("answer", ""),
            source=text("source", ""),
            pass_rate=d.get("pass_rate"),
            response=d.get("response"),
            response_len=d.get("response_len"),
        )


@dataclass(frozen=True)
class StageCount:
    name: str
    input_count: int
    excluded_count: int


@dataclass(frozen=True)
class FunnelReport:
    stages: tuple[StageCount, ...]
    final_count: int

    def __post_init__(self) -> None:
        count = self.stages[0].input_count if self.stages else self.final_count
        for stage in self.stages:
            if stage.input_count != count:
                raise ValueError("funnel stage counts do not telescope")
            count -= stage.excluded_count
        if count != self.final_count:
            raise ValueError("funnel final count does not telescope")

    def to_dict(self) -> dict:
        return {
            "stages": [
                {
                    "name": s.name,
                    "input": s.input_count,
                    "excluded": s.excluded_count,
                }
                for s in self.stages
            ],
            "final_count": self.final_count,
        }

    def render_table(self) -> str:
        width = max((len(s.name) for s in self.stages), default=5)
        lines = [f"{'stage':<{width}}  {'input':>8}  {'excluded':>8}  {'kept':>8}"]
        for s in self.stages:
            kept = s.input_count - s.excluded_count
            lines.append(
                f"{s.name:<{width}}  {s.input_count:>8}  {s.excluded_count:>8}  {kept:>8}"
            )
        lines.append(f"{'final':<{width}}  {'':>8}  {'':>8}  {self.final_count:>8}")
        return "\n".join(lines)


def _normalize_question(text: str) -> str:
    return " ".join(text.lower().split())


def _word_ngrams(text: str, n: int) -> set[tuple[str, ...]]:
    words = _normalize_question(text).split()
    return {tuple(words[i : i + n]) for i in range(len(words) - n + 1)}


def _partition(
    records: Sequence[ProblemRecord], exclude: Callable[[ProblemRecord], object]
) -> tuple[list[ProblemRecord], list[ProblemRecord]]:
    """(kept, excluded), in input order: a record goes to excluded when
    ``exclude`` of it is true."""
    kept, excluded = [], []
    for rec in records:
        (excluded if exclude(rec) else kept).append(rec)
    return kept, excluded


def _off_style(rec: ProblemRecord) -> bool:
    non_ascii = sum(1 for ch in rec.question if ord(ch) > 127)
    return bool(PROOF_PATTERN.search(rec.question)) or (
        non_ascii / len(rec.question) > NON_ASCII_RATIO_LIMIT
    )


def style_filter(
    records: Sequence[ProblemRecord],
) -> tuple[list[ProblemRecord], list[ProblemRecord]]:
    """Drop proof-style questions and questions that look non-English."""
    return _partition(records, _off_style)


def exact_dedup(
    records: Sequence[ProblemRecord],
) -> tuple[list[ProblemRecord], list[ProblemRecord]]:
    """Keep the first occurrence of each normalized question."""
    seen: set[str] = set()

    def seen_before(rec: ProblemRecord) -> bool:
        key = _normalize_question(rec.question)
        if key in seen:
            return True
        seen.add(key)
        return False

    return _partition(records, seen_before)


def ngram_dedup(
    records: Sequence[ProblemRecord],
    n: int = 10,
    jaccard_threshold: float = 0.5,
) -> tuple[list[ProblemRecord], list[ProblemRecord]]:
    """Drop near-duplicates by word n-gram Jaccard similarity.

    Candidate pairs come from an inverted index on n-grams, so only records
    sharing at least one n-gram with an earlier kept record are compared.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    index: dict[tuple[str, ...], list[int]] = defaultdict(list)
    kept_grams: list[set[tuple[str, ...]]] = []
    kept, excluded = [], []
    for rec in records:
        grams = _word_ngrams(rec.question, n)
        candidates = {idx for g in grams for idx in index.get(g, ())}
        duplicate = False
        for idx in candidates:
            other = kept_grams[idx]
            inter = len(grams & other)
            union = len(grams) + len(other) - inter
            if union > 0 and inter / union >= jaccard_threshold:
                duplicate = True
                break
        if duplicate:
            excluded.append(rec)
        else:
            pos = len(kept_grams)
            kept_grams.append(grams)
            for g in grams:
                index[g].append(pos)
            kept.append(rec)
    return kept, excluded


def decontaminate(
    records: Sequence[ProblemRecord],
    eval_questions: Sequence[str],
    n: int = 10,
) -> tuple[list[ProblemRecord], list[ProblemRecord]]:
    """Drop records sharing any word n-gram with any evaluation question."""
    eval_grams: set[tuple[str, ...]] = set()
    for q in eval_questions:
        eval_grams |= _word_ngrams(q, n)
    return _partition(
        records, lambda rec: eval_grams and _word_ngrams(rec.question, n) & eval_grams
    )


def difficulty_filter(
    records: Sequence[ProblemRecord],
) -> tuple[list[ProblemRecord], list[ProblemRecord]]:
    """Drop the trivial (pass rate 1) and the unsolvable (pass rate 0).

    Records without a pass rate pass through unchanged.
    """
    return _partition(records, lambda rec: rec.pass_rate in (0.0, 1.0))


def answer_length_filter(
    records: Sequence[ProblemRecord], max_chars: int = 20
) -> tuple[list[ProblemRecord], list[ProblemRecord]]:
    """Drop records whose normalized answer exceeds ``max_chars``."""
    return _partition(
        records, lambda rec: len(normalize_answer(rec.answer)) > max_chars
    )


@dataclass(frozen=True)
class CurationConfig:
    ngram_n: int = 10
    jaccard_threshold: float = 0.5
    max_answer_chars: int = 20
    eval_questions: tuple[str, ...] = field(default_factory=tuple)


def run_pipeline(
    records: Sequence[ProblemRecord], config: CurationConfig
) -> tuple[list[ProblemRecord], FunnelReport]:
    """Apply every filter in order and report the per-stage exclusions."""
    stages: list[StageCount] = []
    current = list(records)

    def apply(name: str, fn) -> None:
        nonlocal current
        kept, excluded = fn(current)
        stages.append(StageCount(name, len(current), len(excluded)))
        current = kept

    apply("style", style_filter)
    apply("exact_dedup", exact_dedup)
    apply(
        "ngram_dedup",
        lambda recs: ngram_dedup(recs, config.ngram_n, config.jaccard_threshold),
    )
    apply(
        "decontaminate",
        lambda recs: decontaminate(recs, config.eval_questions, config.ngram_n),
    )
    apply("difficulty", difficulty_filter)
    apply(
        "answer_length",
        lambda recs: answer_length_filter(recs, config.max_answer_chars),
    )
    return current, FunnelReport(tuple(stages), len(current))


def read_jsonl(path: str) -> Iterator[tuple[int, object]]:
    """Each nonblank line of a JSONL file as (line number, JSON value), in
    order; a line that is not JSON, or nests too deep for ``json`` to
    decode within Python's recursion limit, is a ``ValueError`` that names
    it."""
    # Read bytes, so that json.loads reports bad UTF-8 as a ValueError.
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"line {n}: invalid JSON: {exc}") from None
            yield n, value


def read_records(path: str) -> list[ProblemRecord]:
    """The records of a JSONL file, one per nonblank line; a line that is
    not a valid record is a ``ValueError`` that names it."""
    records = []
    for n, d in read_jsonl(path):
        if not (isinstance(d, dict) and isinstance(d.get("question"), str)):
            raise ValueError(f'line {n}: expected an object with a string "question"')
        try:
            records.append(ProblemRecord.from_dict(d, f"r{n - 1}"))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"line {n}: {exc}") from None
    return records


def write_records(records: Sequence[ProblemRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), ensure_ascii=False) + "\n")
