"""Per-item method orchestration and whole-run evaluation.

Each method is a short, strictly ordered stage sequence: build prompt,
complete, extract SQL; the multi-prompt variant runs it twice (flat-view
query, then translation back). The four methods are small runners in
one table, each returning its raw final SQL to ``run_method``, which
repairs it the same way for every method. A stage runner holds the
client, cache mode and templates.

The failure rule lives in that runner, once: a completion error or an
extraction error fails the item at the stage the runner was told, and
the prediction keeps everything obtained before it (the completions so
far and, from the multi-prompt variant's step 2 on, the repaired
intermediate query). Later stages do not run; a failed item counts
against QE. Stage names: ``step1-complete``, ``step1-extract``,
``step2-complete``, ``step2-extract`` for unjoin-mp; ``complete`` and
``extract`` for the others; ``retrieval`` when an open-book item has
no usable table pool.

Open-book runs swap the item's home schema for a pool schema assembled
from an external retrieval list; everything downstream is unchanged.
Predictions always execute against the item's home database, so a pool
that lacks the right tables shows up as execution failure rather than
being silently excused.
"""

from __future__ import annotations

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
    HeldConnections,
    Score,
    compare_results,
    execute,
    precision_recall,
    score_sql,
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
    METHOD_TEMPLATES,
    TemplateSet,
    baseline_schema_block,
    build_baseline_prompt,
    build_mp_step1_prompt,
    build_mp_step2_prompt,
    build_sp_prompt,
)
from .schema import DatabaseSchema, SchemaError, TableDef, simplify_schema


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
    """One method run on one item: client, templates, and what each stage obtained.

    Runners call ``complete`` and ``extract`` with the stage name to
    charge a failure to, and store the intermediate query and warnings
    here as soon as they have them, so a failed run keeps everything
    obtained before its failing stage.
    """

    def __init__(self, method: str, client: LlmClient, cache_mode: str, templates):
        self.method = method
        self.client = client
        self.cache_mode = cache_mode
        self.templates = templates
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


def _unjoin_mp(run: _Run, item: EvalItem, db: DatabaseSchema, descriptions):
    simplified = simplify_schema(db, descriptions)
    question = item.prompt_question
    prompt1 = build_mp_step1_prompt(simplified, question, run.templates)
    raw1 = run.extract(run.complete(prompt1, "step1-complete"), "step1-extract")
    run.intermediate_sql, run.intermediate_report = correct_identifiers_simplified(
        raw1, simplified
    )
    prompt2 = build_mp_step2_prompt(
        simplified, run.intermediate_sql, question, db, run.templates
    )
    return run.extract(run.complete(prompt2, "step2-complete"), "step2-extract")


def _unjoin_sp(run: _Run, item: EvalItem, db: DatabaseSchema, descriptions):
    simplified = simplify_schema(db, descriptions)
    prompt = build_sp_prompt(simplified, item.prompt_question, db, run.templates)
    completion = run.complete(prompt, "complete")
    blocks = extract_sql_blocks(completion)
    if len(blocks) >= 2:
        # The template orders step 1 before step 2, so the last block is
        # the translated query and the first is the simplified one.
        run.intermediate_sql, run.intermediate_report = correct_identifiers_simplified(
            trim_sql(blocks[0]), simplified
        )
        return trim_sql(blocks[-1])
    final_raw = run.extract(completion, "extract")
    run.warnings.append("single fenced block in completion; intermediate query missing"
                        if blocks else "no fenced blocks in completion; used keyword fallback")
    return final_raw


def _baseline(run: _Run, item: EvalItem, db: DatabaseSchema, descriptions):
    schema_block = baseline_schema_block(run.method, db)
    prompt = build_baseline_prompt(run.method, schema_block, item.prompt_question, run.templates)
    return run.extract(run.complete(prompt, "complete"), "extract")


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
    templates: TemplateSet | None = None,
    descriptions: dict[str, str] | None = None,
) -> PredictedQuery:
    """Run one method on one item; a failed stage fails the item, not the run.

    ``templates`` is the run's loaded ``TemplateSet``; None renders from
    the shipped templates, read once per process.
    """
    runner = _RUNNERS.get(method)
    if runner is None:
        raise DatasetError(f"unknown method {method!r}")
    run = _Run(method, client, cache_mode, templates)
    try:
        final_sql, final_report = correct_identifiers(runner(run, item, db, descriptions), db)
    except _StageFailure as exc:
        return run.predicted(failed=True, failure_stage=exc.stage, failure_reason=str(exc))
    return run.predicted(final_sql=final_sql, final_report=final_report)


# ----- open-book table pools -----


class PoolError(ValueError):
    pass


def assemble_pool(
    retrieved: list[tuple[str, str, float]],
    catalogue: dict[str, DatabaseSchema],
    topk: int = 10,
) -> DatabaseSchema:
    """Build one synthetic schema from the top-k retrieved tables.

    Name collisions across source databases are resolved by suffixing
    the source db_id, deterministically in list order. Foreign keys
    survive only when both endpoint tables made it into the pool from
    the same source database.
    """
    ranked = sorted(enumerate(retrieved), key=lambda e: (-e[1][2], e[0]))
    picked = [entry for _, entry in ranked[: max(1, topk)]]
    tables = []
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
        return DatabaseSchema("pool", tuple(tables), tuple(fks))
    except SchemaError as exc:
        raise PoolError(f"pool assembly failed: {exc}") from exc


# ----- full-run evaluation -----


_NO_SCORE = Score((), (), False, None)


def _scored(sql: str | None, db: DatabaseSchema) -> Score:
    """``sql``'s score against ``db``; no references for text that does not parse."""
    if not sql:
        return _NO_SCORE
    try:
        return score_sql(sql, db)
    except ValueError:
        return _NO_SCORE


def evaluate_item(
    item: EvalItem,
    prediction: PredictedQuery,
    home_db: DatabaseSchema,
    pred_db: DatabaseSchema,
    db_file: Path | None,
    exec_timeout_s: float,
    held: HeldConnections | None = None,
) -> EvalRecord:
    """Execute gold and prediction, extract references, score one item.

    The gold's references, and whether it orders its rows, come from
    one parse: the score ``filter_items`` made and the item carries
    (``gold_score``) when it was resolved against ``home_db``, otherwise
    a parse made here. The prediction is always parsed here, once, and
    resolved against ``pred_db``. Text the parser rejects has no
    references; such a gold's rows compare as a multiset.

    Without its database file, whether absent from the start, gone
    before the prediction ran, or under a path that is no directory, the
    item's gold outcome is a runtime error "database file missing" and
    its prediction is not executed.
    """
    missing = ExecOutcome(status=RUNTIME_ERROR, error="database file missing")
    gold_exec, pred_exec = missing, None
    if db_file is not None:
        try:
            gold_exec = execute(item.gold_sql, db_file, exec_timeout_s, held)
            if prediction.final_sql:
                pred_exec = execute(prediction.final_sql, db_file, exec_timeout_s, held)
        except FileNotFoundError:
            gold_exec, pred_exec = missing, None
    gold = item.gold_score
    if gold is None or gold.schema is not home_db:
        gold = _scored(item.gold_sql, home_db)
    pred = _scored(prediction.final_sql, pred_db)
    qe = pred_exec is not None and pred_exec.status == OK
    em = qe and compare_results(gold_exec, pred_exec, gold.ordered)
    t_prec, t_rec = precision_recall(pred.tables, gold.tables)
    c_prec, c_rec = precision_recall(pred.columns, gold.columns)
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
        gold_tables=gold.tables,
        gold_columns=gold.columns,
        pred_tables=pred.tables,
        pred_columns=pred.columns,
        table_precision=t_prec,
        table_recall=t_rec,
        column_precision=c_prec,
        column_recall=c_rec,
        gold_table_count=item.gold_table_count
        if item.gold_table_count is not None
        else len(gold.tables),
    )


def run_evaluation(
    bundle: DatasetBundle,
    items: list[EvalItem],
    config: RunConfig,
    client: LlmClient,
    retrieval: dict[str, list[tuple[str, str, float]]] | None = None,
) -> tuple[list[EvalRecord], dict]:
    """Run one method over items; returns records in item order plus meta.

    The method's templates are read once, before the first item, and
    the recorded hashes come from the same bytes; a missing one raises
    ``TemplateError`` before any endpoint call. The run holds one
    read-only connection per thread and closes them all before it
    returns or raises.
    """
    templates = TemplateSet(METHOD_TEMPLATES.get(config.method, ()), config.template_dir or None)
    held = HeldConnections()

    def one(item: EvalItem) -> EvalRecord:
        home_db = pred_db = bundle.catalogue[item.db_id]
        descriptions = bundle.descriptions.get(item.db_id)
        try:
            if retrieval is not None:
                listed = retrieval.get(item.item_id)
                if not listed:
                    raise PoolError(f"no retrieval list for {item.item_id}")
                pred_db = assemble_pool(listed, bundle.catalogue, config.topk)
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
                templates, descriptions,
            )
        return evaluate_item(
            item, prediction, home_db, pred_db,
            bundle.db_paths.get(item.db_id), config.exec_timeout_s, held,
        )

    workers = max(1, config.workers)
    try:
        if workers == 1:
            # No pool: a one-thread pool measured about 1-2 MB more peak RSS
            # and 5% fewer items/s on the narrow benchmark (ROADMAP "Dropped").
            records = [one(item) for item in items]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                records = list(pool.map(one, items))
    finally:
        held.close()
    meta = {
        "config": config.to_dict(),
        "template_hashes": templates.hashes,
        "comparison": COMPARISON_SEMANTICS,
        "n_items": len(records),
    }
    return records, meta
