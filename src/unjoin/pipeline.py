"""Per-item method orchestration and whole-run evaluation.

Each method is a short, strictly ordered stage sequence: build prompt,
complete, extract SQL, repair identifiers; the multi-prompt variant
runs it twice (flat-view query, then translation back). The four
methods are small runners in one table, driven by ``run_method``
through a per-run stage runner that owns the client and cache mode.

The failure rule lives in that runner, once: a completion error or an
extraction error fails the item at the stage the runner was told, and
the prediction keeps everything obtained before it (the completions so
far and, from the multi-prompt variant's step 2 on, the repaired
intermediate query). Later stages do not run; a failed item counts
against QE. Stage names: ``step1-complete``, ``step1-extract``,
``step2-complete``, ``step2-extract`` for unjoin-mp; ``complete`` and
``extract`` for the others; ``retrieval`` when an open-book item has
no usable table pool.

Open-book runs swap the item's home schema for a TablePool assembled
from an external retrieval list; everything downstream is unchanged.
Predictions always execute against the item's home database, so a pool
that lacks the right tables shows up as execution failure rather than
being silently excused.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from .correction import (
    CorrectionReport,
    correct_identifiers,
    correct_identifiers_simplified,
)
from .dataset import DatasetBundle, DatasetError, EvalItem, RunConfig
from .evaluation import (
    COMPARISON_SEMANTICS,
    OK,
    RUNTIME_ERROR,
    EvalRecord,
    ExecOutcome,
    compare_results,
    execute,
    has_top_level_order_by,
    precision_recall,
)
from .llm import (
    ExtractionError,
    LlmClient,
    LlmError,
    extract_sql,
    extract_sql_blocks,
    trim_sql,
)
from .prompting import (
    baseline_schema_block,
    build_baseline_prompt,
    build_mp_step1_prompt,
    build_mp_step2_prompt,
    build_sp_prompt,
    template_hashes,
)
from .schema import DatabaseSchema, SchemaError, TableDef, simplify_schema
from .sqlref import RefSet, extract_refs

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PredictedQuery:
    method: str
    intermediate_sql: str | None = None
    final_sql: str | None = None
    intermediate_report: CorrectionReport | None = None
    final_report: CorrectionReport | None = None
    completions: tuple[str, ...] = ()
    failed: bool = False
    failure_stage: str | None = None
    failure_reason: str | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if self.failed == (self.final_sql is not None):
            raise ValueError("final_sql must be present exactly when the item did not fail")

    def to_dict(self) -> dict:
        def report(r: CorrectionReport | None):
            if r is None:
                return None
            return {
                "substitutions": [
                    [s.original, s.replacement, s.distance, s.position]
                    for s in r.substitutions
                ],
                "unresolved": list(r.unresolved),
            }

        return {
            "method": self.method,
            "intermediate_sql": self.intermediate_sql,
            "final_sql": self.final_sql,
            "intermediate_report": report(self.intermediate_report),
            "final_report": report(self.final_report),
            "completions": list(self.completions),
            "failed": self.failed,
            "failure_stage": self.failure_stage,
            "failure_reason": self.failure_reason,
            "warnings": list(self.warnings),
        }


class _StageFailure(Exception):
    def __init__(self, stage: str, reason: str):
        super().__init__(reason)
        self.stage = stage


class _Run:
    """One method run on one item: the client, and what each stage obtained.

    Runners call ``complete`` and ``extract`` with the stage name to
    charge a failure to, and store the intermediate query and warnings
    here as soon as they have them, so a failed run keeps everything
    obtained before its failing stage.
    """

    def __init__(self, method: str, client: LlmClient, cache_mode: str):
        self.method = method
        self.client = client
        self.cache_mode = cache_mode
        self.completions: list[str] = []
        self.intermediate_sql: str | None = None
        self.intermediate_report: CorrectionReport | None = None
        self.warnings: list[str] = []

    def complete(self, prompt: str, stage: str) -> str:
        try:
            completion = self.client.complete(prompt, self.cache_mode)
        except LlmError as exc:
            raise _StageFailure(stage, str(exc)) from exc
        self.completions.append(completion)
        return completion

    def extract(self, completion: str, stage: str) -> str:
        try:
            return extract_sql(completion)
        except ExtractionError as exc:
            raise _StageFailure(stage, str(exc)) from exc

    def predicted(self, **outcome) -> PredictedQuery:
        return PredictedQuery(
            method=self.method,
            intermediate_sql=self.intermediate_sql,
            intermediate_report=self.intermediate_report,
            completions=tuple(self.completions),
            warnings=tuple(self.warnings),
            **outcome,
        )


def _unjoin_mp(run: _Run, item: EvalItem, db: DatabaseSchema, template_dir, descriptions):
    simplified = simplify_schema(db, descriptions)
    question = item.prompt_question
    prompt1 = build_mp_step1_prompt(simplified, question, template_dir)
    raw1 = run.extract(run.complete(prompt1, "step1-complete"), "step1-extract")
    run.intermediate_sql, run.intermediate_report = correct_identifiers_simplified(
        raw1, simplified
    )
    prompt2 = build_mp_step2_prompt(
        simplified, run.intermediate_sql, question, db, template_dir
    )
    raw2 = run.extract(run.complete(prompt2, "step2-complete"), "step2-extract")
    return correct_identifiers(raw2, db)


def _unjoin_sp(run: _Run, item: EvalItem, db: DatabaseSchema, template_dir, descriptions):
    simplified = simplify_schema(db, descriptions)
    prompt = build_sp_prompt(simplified, item.prompt_question, db, template_dir)
    completion = run.complete(prompt, "complete")
    blocks = extract_sql_blocks(completion)
    if len(blocks) >= 2:
        # The template orders step 1 before step 2, so the last block is
        # the translated query and the first is the simplified one.
        run.intermediate_sql, run.intermediate_report = correct_identifiers_simplified(
            trim_sql(blocks[0]), simplified
        )
        final_raw = trim_sql(blocks[-1])
    elif len(blocks) == 1:
        final_raw = trim_sql(blocks[0])
        run.warnings.append("single fenced block in completion; intermediate query missing")
        log.warning("%s: %s", item.item_id, run.warnings[-1])
    else:
        final_raw = run.extract(completion, "extract")
        run.warnings.append("no fenced blocks in completion; used keyword fallback")
    return correct_identifiers(final_raw, db)


def _baseline(run: _Run, item: EvalItem, db: DatabaseSchema, template_dir, descriptions):
    schema_block = baseline_schema_block(run.method, db)
    prompt = build_baseline_prompt(run.method, schema_block, item.prompt_question, template_dir)
    raw = run.extract(run.complete(prompt, "complete"), "extract")
    return correct_identifiers(raw, db)


_RUNNERS = {
    "unjoin-sp": _unjoin_sp,
    "unjoin-mp": _unjoin_mp,
    "cot": _baseline,
    "cot-ss": _baseline,
}


def run_method(
    method: str,
    item: EvalItem,
    db: DatabaseSchema,
    client: LlmClient,
    cache_mode: str,
    template_dir: str | Path | None = None,
    descriptions: dict[str, str] | None = None,
) -> PredictedQuery:
    """Run one method on one item; a failed stage fails the item, not the run."""
    runner = _RUNNERS.get(method)
    if runner is None:
        raise DatasetError(f"unknown method {method!r}")
    run = _Run(method, client, cache_mode)
    try:
        final_sql, final_report = runner(run, item, db, template_dir, descriptions)
    except _StageFailure as exc:
        return run.predicted(failed=True, failure_stage=exc.stage, failure_reason=str(exc))
    return run.predicted(final_sql=final_sql, final_report=final_report)


# ----- open-book table pools -----


@dataclass(frozen=True)
class TablePool:
    schema: DatabaseSchema
    # pool table name -> (source db_id, original table name)
    provenance: dict


class PoolError(ValueError):
    pass


def assemble_pool(
    retrieved: list[tuple[str, str, float]],
    catalogue: dict[str, DatabaseSchema],
    topk: int = 10,
) -> TablePool:
    """Build one synthetic schema from the top-k retrieved tables.

    Name collisions across source databases are resolved by suffixing
    the source db_id, deterministically in list order. Foreign keys
    survive only when both endpoint tables made it into the pool from
    the same source database.
    """
    ranked = sorted(enumerate(retrieved), key=lambda e: (-e[1][2], e[0]))
    picked = [entry for _, entry in ranked[: max(1, topk)]]
    tables = []
    provenance = {}
    names_lower: set[str] = set()
    chosen: dict[tuple[str, str], str] = {}  # (db_id, table_lower) -> pool name
    for db_id, table_name, _ in picked:
        src = catalogue.get(db_id)
        if src is None:
            raise PoolError(f"retrieved table references unknown database {db_id!r}")
        table = src.find_table(table_name)
        if table is None:
            raise PoolError(f"retrieved table {db_id}.{table_name} not in catalogue")
        key = (db_id, table.name.lower())
        if key in chosen:
            continue
        pool_name = table.name
        if pool_name.lower() in names_lower:
            pool_name = f"{table.name}__{db_id}"
        if pool_name.lower() in names_lower:
            continue
        names_lower.add(pool_name.lower())
        chosen[key] = pool_name
        if pool_name == table.name:
            tables.append(table)
        else:
            tables.append(TableDef(pool_name, table.columns))
        provenance[pool_name] = (db_id, table.name)
    if not tables:
        raise PoolError("retrieval list produced an empty pool")
    fks = []
    for db_id, src in catalogue.items():
        for t1, c1, t2, c2 in src.foreign_keys:
            p1 = chosen.get((db_id, t1.lower()))
            p2 = chosen.get((db_id, t2.lower()))
            if p1 and p2:
                fks.append((p1, c1, p2, c2))
    try:
        schema = DatabaseSchema("pool", tuple(tables), tuple(fks))
    except SchemaError as exc:
        raise PoolError(f"pool assembly failed: {exc}") from exc
    return TablePool(schema, provenance)


# ----- full-run evaluation -----


def _empty_refset() -> RefSet:
    return RefSet(frozenset(), frozenset())


def _safe_refs(sql: str | None, db: DatabaseSchema) -> RefSet:
    if not sql:
        return _empty_refset()
    try:
        return extract_refs(sql, db)
    except ValueError:
        return _empty_refset()


def evaluate_item(
    item: EvalItem,
    prediction: PredictedQuery,
    home_db: DatabaseSchema,
    pred_db: DatabaseSchema,
    db_file: Path | None,
    exec_timeout_s: float,
) -> EvalRecord:
    """Execute gold and prediction, extract references, score one item."""
    if db_file is not None and db_file.exists():
        gold_exec = execute(item.gold_sql, db_file, exec_timeout_s)
        if prediction.final_sql:
            pred_exec = execute(prediction.final_sql, db_file, exec_timeout_s)
        else:
            pred_exec = None
    else:
        gold_exec = ExecOutcome(status=RUNTIME_ERROR, error="database file missing")
        pred_exec = None
    qe = pred_exec is not None and pred_exec.status == OK
    em = qe and compare_results(
        gold_exec, pred_exec, has_top_level_order_by(item.gold_sql)
    )
    gold_refs = _safe_refs(item.gold_sql, home_db)
    pred_refs = _safe_refs(prediction.final_sql, pred_db)
    t_prec, t_rec = precision_recall(pred_refs.tables, gold_refs.tables)
    c_prec, c_rec = precision_recall(pred_refs.columns, gold_refs.columns)
    return EvalRecord(
        item_id=item.item_id,
        method=prediction.method,
        db_id=item.db_id,
        question=item.question,
        gold_sql=item.gold_sql,
        prediction=prediction.to_dict(),
        gold_exec=gold_exec,
        pred_exec=pred_exec,
        qe=qe,
        em=em,
        gold_tables=tuple(sorted(gold_refs.tables)),
        gold_columns=tuple(sorted(gold_refs.columns)),
        pred_tables=tuple(sorted(pred_refs.tables)),
        pred_columns=tuple(sorted(pred_refs.columns)),
        table_precision=t_prec,
        table_recall=t_rec,
        column_precision=c_prec,
        column_recall=c_rec,
        gold_table_count=item.gold_table_count
        if item.gold_table_count is not None
        else len(gold_refs.tables),
    )


def run_evaluation(
    bundle: DatasetBundle,
    items: list[EvalItem],
    config: RunConfig,
    client: LlmClient,
    retrieval: dict[str, list[tuple[str, str, float]]] | None = None,
) -> tuple[list[EvalRecord], dict]:
    """Run one method over items; returns records in item order plus meta."""
    template_dir = config.template_dir or None

    def one(item: EvalItem) -> EvalRecord:
        home_db = pred_db = bundle.catalogue[item.db_id]
        descriptions = bundle.descriptions.get(item.db_id)
        try:
            if retrieval is not None:
                listed = retrieval.get(item.item_id)
                if not listed:
                    raise PoolError(f"no retrieval list for {item.item_id}")
                pred_db = assemble_pool(listed, bundle.catalogue, config.topk).schema
                descriptions = None
        except PoolError as exc:
            prediction = PredictedQuery(
                method=config.method,
                failed=True,
                failure_stage="retrieval",
                failure_reason=str(exc),
            )
        else:
            prediction = run_method(
                config.method, item, pred_db, client, config.cache_mode,
                template_dir, descriptions,
            )
        return evaluate_item(
            item, prediction, home_db, pred_db,
            bundle.db_paths.get(item.db_id), config.exec_timeout_s,
        )

    workers = max(1, config.workers)
    if workers == 1:
        records = [one(item) for item in items]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(one, items))
    meta = {
        "config": config.to_dict(),
        "template_hashes": template_hashes(template_dir),
        "comparison": COMPARISON_SEMANTICS,
        "n_items": len(records),
    }
    return records, meta
