"""Benchmark ingestion, multi-table filtering, and run configuration.

Both supported benchmarks ship a table catalogue (tables.json), a dev
split of natural-language questions with gold SQL, and one SQLite file
per database. Items get stable ids "{db_id}:{index}" since the source
files carry none. A malformed entry (not an object, or a field that is
not text) loads as an item with that field blank, so it costs one item,
not the load. Filtering keeps only items whose gold SQL touches at
least two tables of the item's database; an item without a known
database, gold SQL or a question, with unparseable gold, or whose gold
names a table its database lacks, is dropped with a logged reason.
Each distinct gold text is parsed and resolved once per filtering
call; each item's tables are checked against its own database. The
score made there rides on each kept item whose database it was resolved
against, so scoring that item's gold needs no second parse.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .evaluation import Score, score_sql
from .llm import CACHE_MODES, LlmConfig
from .prompting import METHOD_TEMPLATES
from .schema import DatabaseSchema, load_catalogue, load_descriptions

log = logging.getLogger(__name__)

FLAVORS = ("spider", "bird")
METHODS = tuple(METHOD_TEMPLATES)


class DatasetError(RuntimeError):
    pass


@dataclass(frozen=True)
class EvalItem:
    """One question with its gold SQL.

    ``gold_score`` is the gold's score from ``filter_items``, set only
    there, on a kept item whose database the score was resolved against.
    An item is not built from it: it stays out of ``repr``, equality and
    ``to_dict``, and a ``dataclasses.replace`` copy lacks it, so the
    copy's gold is scored from its text.
    """

    item_id: str
    db_id: str
    question: str
    gold_sql: str
    evidence: str = ""
    gold_table_count: int | None = None
    gold_score: Score | None = field(default=None, init=False, repr=False, compare=False)

    def to_dict(self) -> dict:
        """The fields the item is built from, as ``unjoin filter --out`` writes them."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

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


def _text(value, index: int, name: str) -> str:
    """A dev entry's text field. Anything else is logged and read as blank,
    so ``filter_items`` drops the item with a reason instead of the load
    failing."""
    if isinstance(value, str):
        return value
    what = "missing" if value is None else f"a {type(value).__name__}, not text"
    log.warning("dev entry %d: %s is %s; read as blank", index, name, what)
    return ""


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

    if not isinstance(raw_items, list):
        raise DatasetError(f"{items_path} does not hold a list of entries")

    items = []
    for i, raw in enumerate(raw_items):
        if not isinstance(raw, dict):
            log.warning("dev entry %d is not a JSON object; read as blank", i)
            items.append(EvalItem(f":{i}", "", "", ""))
            continue
        db_id = _text(raw.get("db_id"), i, "db_id")
        gold = _text(raw.get("query") or raw.get("SQL") or "", i, "gold SQL")
        items.append(
            EvalItem(
                item_id=f"{db_id}:{i}",
                db_id=db_id,
                question=_text(raw.get("question", ""), i, "question"),
                gold_sql=gold.strip(),
                evidence=_text(raw.get("evidence") or "", i, "evidence").strip(),
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

    Kept items carry their gold table count for later bucketing. Every
    table the gold names must be one of its own database's (reference
    extraction credits any FROM name, as scoring a prediction needs).
    Each distinct gold text is scored once per call (``score_sql``), at
    the first item that reaches that step, and its table set (or parse
    error) serves every later item that carries it: a statement's table
    set comes from its own names, not from the schema it is resolved
    against. Each item's tables are still checked against its own
    database. A kept item whose database is the one the score was
    resolved against carries the score as ``gold_score``; the columns a
    bare name resolves to depend on the schema, so another item's gold is
    scored again when it is evaluated.
    """
    kept: list[EvalItem] = []
    dropped: list[tuple[EvalItem, str]] = []
    scores: dict[str, Score | str] = {}
    for item in items:
        gold = item.gold_sql
        db = catalogue.get(item.db_id)
        if db is None:
            dropped.append((item, f"unknown database {item.db_id!r}"))
            log.warning("dropping %s: unknown database %s", item.item_id, item.db_id)
            continue
        if not gold:
            dropped.append((item, "missing gold SQL"))
            log.warning("dropping %s: missing gold SQL", item.item_id)
            continue
        if not item.question.strip():
            dropped.append((item, "missing question"))
            log.warning("dropping %s: missing question", item.item_id)
            continue
        score = scores.get(gold)
        if score is None:
            try:
                score = score_sql(gold, db)
            except ValueError as exc:
                score = str(exc)
            scores[gold] = score
        if isinstance(score, str):
            dropped.append((item, f"unparseable gold SQL: {score}"))
            log.warning("dropping %s: unparseable gold SQL: %s", item.item_id, score)
            continue
        lacking = [table for table in score.tables if table not in db.table_names]
        if lacking:
            reason = f"gold names tables its database lacks: {', '.join(lacking)}"
            dropped.append((item, reason))
            log.warning("dropping %s: %s", item.item_id, reason)
            continue
        count = len(score.tables)
        if count < 2:
            dropped.append((item, "single-table query"))
            continue
        kept_item = EvalItem(item.item_id, item.db_id, item.question, gold, item.evidence, count)
        if score.schema is db:
            # Frozen, and no init field: only the filter attaches a score.
            object.__setattr__(kept_item, "gold_score", score)
        kept.append(kept_item)
    return kept, dropped


def load_retrieval_lists(path: str | Path) -> dict[str, list[tuple[str, str, float]]]:
    """Load ranked table lists: JSONL of {question_id, tables: [{db_id, table_name, score}]}."""
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
                for key in ("db_id", "table_name"):
                    if any(not isinstance(t[key], str) for t in raw["tables"]):
                        raise TypeError(f"{key} must be text")
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
        if self.max_output_tokens < 1:
            raise DatasetError("max_output_tokens must be >= 1")
        if self.retries < 0:
            raise DatasetError("retries must be >= 0")
        # "not > 0" rejects NaN too.
        if not self.request_timeout_s > 0:
            raise DatasetError("request_timeout_s must be > 0")
        if not self.exec_timeout_s > 0:
            raise DatasetError("exec_timeout_s must be > 0")

    def to_dict(self) -> dict:
        raw = asdict(self)
        # where results land does not shape them; keep records portable
        raw.pop("out_dir")
        return raw

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """A config from a JSON object; each value has its field's type (an int may be a float)."""
        if not isinstance(raw, dict):
            raise DatasetError(f"config must be a JSON object, not {type(raw).__name__}")
        unknown = set(raw) - cls.__dataclass_fields__.keys()
        if unknown:
            raise DatasetError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for name, value in raw.items():
            want = type(cls.__dataclass_fields__[name].default)
            if type(value) not in ((int, float) if want is float else (want,)):
                raise DatasetError(f"config key {name!r} must be {want.__name__}, "
                                   f"not {type(value).__name__}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))
