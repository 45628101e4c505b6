"""Multi-table text-to-SQL by schema flattening, with an evaluation harness.

The package splits the problem into two stages: a deterministic schema
simplification that flattens a relational schema into a single virtual
table, and an LLM-driven stage that writes a query against that virtual
table and then translates it back to the original schema. Identifier
noise in model output is repaired by edit distance against the schema
vocabulary. The harness executes predictions against SQLite databases
and scores execution match plus schema-linking precision and recall.
"""

__version__ = "0.1.0"

from .schema import (
    ColumnDef,
    DatabaseSchema,
    SchemaError,
    SimplifiedEntry,
    SimplifiedSchema,
    TableDef,
    load_catalogue,
    load_descriptions,
    render_original_schema,
    render_simplified,
    simplify_schema,
)
from .sqlref import RefSet, extract_refs, extract_refs_simplified
from .correction import (
    CorrectionReport,
    Substitution,
    correct_identifiers,
    correct_identifiers_simplified,
    levenshtein,
)
from .prompting import (
    PromptTemplate,
    build_baseline_prompt,
    build_mp_step1_prompt,
    build_mp_step2_prompt,
    build_sp_prompt,
)
from .llm import (
    ExchangeCache,
    ExtractionError,
    LlmClient,
    LlmConfig,
    LlmError,
    ReplayMissError,
    TransportError,
    exchange_key,
    extract_sql,
)
from .evaluation import (
    EvalRecord,
    ExecOutcome,
    bucket_by_table_count,
    compare_results,
    execute,
    precision_recall,
    score_run,
)
from .dataset import (
    DatasetBundle,
    DatasetError,
    EvalItem,
    RunConfig,
    filter_items,
    load_dataset,
)
from .pipeline import (
    PredictedQuery,
    TablePool,
    assemble_pool,
    run_baseline,
    run_evaluation,
    run_method,
    run_unjoin_mp,
    run_unjoin_sp,
)
