"""Benchmark ingestion, multi-table filtering, and run configuration.

Both supported benchmarks ship a table catalogue (tables.json), a dev
split of natural-language questions with gold SQL, and one SQLite file
per database. Items get stable ids "{db_id}:{index}" since the source
files carry none. Filtering keeps only items whose gold SQL touches at
least two tables; unparseable gold is dropped with a logged reason.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from .llm import CACHE_MODES, LlmConfig
from .schema import DatabaseSchema, load_catalogue, load_descriptions
from .sqlref import extract_refs
from .tokens import TokenizeError

log = logging.getLogger(__name__)

FLAVORS = ("spider", "bird")
METHODS = ("unjoin-sp", "unjoin-mp", "cot", "cot-ss")


class DatasetError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvalItem:
    item_id: str
    db_id: str
    question: str
    gold_sql: str
    evidence: str = ""
    gold_table_count: int | None = None

    @property
    def prompt_question(self) -> str:
        """Question text as prompted; evidence hints ride along when present."""
        if self.evidence:
            return f"{self.question}\nEvidence: {self.evidence}"
        return self.question


@dataclass
class DatasetBundle:
    flavor: str
    catalogue: dict[str, DatabaseSchema]
    items: list[EvalItem]
    db_paths: dict[str, Path]
    descriptions: dict[str, dict[str, str]] = field(default_factory=dict)


def _pick(root: Path, names: list[str]) -> Path:
    for name in names:
        candidate = root / name
        if candidate.exists():
            return candidate
    raise DatasetError(
        f"missing dataset file under {root}: tried {', '.join(names)}"
    )


def load_dataset(root: str | Path, flavor: str) -> DatasetBundle:
    """Load a benchmark root into schemas, items, and database paths."""
    if flavor not in FLAVORS:
        raise DatasetError(f"unknown dataset flavor {flavor!r}; expected one of {FLAVORS}")
    root = Path(root)
    if not root.is_dir():
        raise DatasetError(f"dataset root {root} is not a directory")
    if flavor == "bird":
        tables_path = _pick(root, ["dev_tables.json", "tables.json"])
        db_dir = next((root / d for d in ("dev_databases", "database") if (root / d).is_dir()), None)
    else:
        tables_path = _pick(root, ["tables.json"])
        db_dir = root / "database" if (root / "database").is_dir() else None
    items_path = _pick(root, ["dev.json"])

    catalogue = load_catalogue(tables_path)
    with open(items_path, encoding="utf-8") as fh:
        raw_items = json.load(fh)

    items = []
    for i, raw in enumerate(raw_items):
        db_id = raw["db_id"]
        gold = raw.get("query") or raw.get("SQL") or ""
        items.append(
            EvalItem(
                item_id=f"{db_id}:{i}",
                db_id=db_id,
                question=raw.get("question", ""),
                gold_sql=gold.strip(),
                evidence=(raw.get("evidence") or "").strip(),
            )
        )

    db_paths: dict[str, Path] = {}
    descriptions: dict[str, dict[str, str]] = {}
    if db_dir is not None:
        for db_id in catalogue:
            folder = db_dir / db_id
            db_paths[db_id] = folder / f"{db_id}.sqlite"
            if flavor == "bird" and folder.is_dir():
                desc = load_descriptions(folder)
                if desc:
                    descriptions[db_id] = desc
    return DatasetBundle(flavor, catalogue, items, db_paths, descriptions)


def filter_items(
    items: list[EvalItem], catalogue: dict[str, DatabaseSchema]
) -> tuple[list[EvalItem], list[tuple[EvalItem, str]]]:
    """Keep multi-table items; return (kept, dropped-with-reason).

    Kept items carry their gold table count for later bucketing.
    """
    kept: list[EvalItem] = []
    dropped: list[tuple[EvalItem, str]] = []
    for item in items:
        db = catalogue.get(item.db_id)
        if db is None:
            dropped.append((item, f"unknown database {item.db_id!r}"))
            log.warning("dropping %s: unknown database %s", item.item_id, item.db_id)
            continue
        if not item.gold_sql:
            dropped.append((item, "missing gold SQL"))
            log.warning("dropping %s: missing gold SQL", item.item_id)
            continue
        try:
            refs = extract_refs(item.gold_sql, db)
        except (ValueError, TokenizeError) as exc:
            dropped.append((item, f"unparseable gold SQL: {exc}"))
            log.warning("dropping %s: unparseable gold SQL: %s", item.item_id, exc)
            continue
        count = len(refs.tables)
        if count < 2:
            dropped.append((item, "single-table query"))
            continue
        kept.append(replace(item, gold_table_count=count))
    return kept, dropped


def load_retrieval_lists(path: str | Path) -> dict[str, list[tuple[str, str, float]]]:
    """Load ranked table lists: JSONL of {question_id, tables: [...]}."""
    out: dict[str, list[tuple[str, str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                qid = str(raw["question_id"])
                tables = [
                    (t["db_id"], t["table_name"], float(t.get("score", 0.0)))
                    for t in raw["tables"]
                ]
            except (KeyError, TypeError, ValueError) as exc:
                raise DatasetError(f"bad retrieval record on line {line_no}: {exc}") from exc
            out[qid] = tables
    return out


@dataclass
class RunConfig:
    dataset: str = "spider"
    root: str = ""
    method: str = "unjoin-sp"
    model: str = ""
    endpoint: str = ""
    temperature: float = 0.0
    max_output_tokens: int = 1024
    request_timeout_s: float = 60.0
    retries: int = 2
    cache_mode: str = "replay"
    cache_dir: str = ""
    workers: int = 4
    topk: int = 10
    retrieval: str = ""
    template_dir: str = ""
    out_dir: str = "runs/out"
    exec_timeout_s: float = 30.0

    def llm_config(self) -> LlmConfig:
        return LlmConfig(
            model=self.model,
            endpoint=self.endpoint,
            temperature=self.temperature,
            max_output_tokens=self.max_output_tokens,
            timeout_s=self.request_timeout_s,
            retries=self.retries,
            max_in_flight=self.workers,
        )

    def validate(self) -> None:
        if self.dataset not in FLAVORS:
            raise DatasetError(f"unknown dataset {self.dataset!r}")
        if self.method not in METHODS:
            raise DatasetError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.cache_mode not in CACHE_MODES:
            raise DatasetError(f"unknown cache mode {self.cache_mode!r}")
        if self.cache_mode == "replay":
            if not self.cache_dir or not Path(self.cache_dir).is_dir():
                raise DatasetError("replay mode requires an existing --cache-dir")
        if self.cache_mode == "record" and not self.cache_dir:
            raise DatasetError("record mode requires --cache-dir")
        if self.workers < 1:
            raise DatasetError("workers must be >= 1")
        if self.topk < 1:
            raise DatasetError("topk must be >= 1")

    def to_dict(self) -> dict:
        raw = asdict(self)
        # where results land does not shape them; keep records portable
        raw.pop("out_dir")
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise DatasetError(f"unknown config keys: {', '.join(sorted(unknown))}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
