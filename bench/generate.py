"""Seeded workload generation for the benchmark.

Each workload is a dataset root the program loads like a real SPIDER or
BIRD dump, plus either a replay cache of oracle exchanges or, for the
record workload, an oracle store the stub endpoint answers from. The
same (workload, seed, size) always yields byte-identical files.

The generator uses the program's prompt builders and cache format only
to key the oracle exchanges; what counts as a correct answer (gold SQL,
gold simplified SQL, the typos injected) is decided here, independently
of the code under test. Typos are chosen with the edit distance below,
not with ``unjoin.correction``.

Run standalone: ``python3 bench/generate.py WORKLOAD SEED OUT_DIR``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sqlite3
import sys
from pathlib import Path

from shapes import (
    BASES,
    CASES,
    DISTRACTORS,
    WIDE_ATTRIBUTES,
    WIDE_TABLES,
    WIDE_VALUES,
)

ORACLE_MODEL = "oracle"

# Workload definitions. ``size`` is DB copies for the spider shape and
# wide databases for the bird shape; each pool holds about as many
# distinct items as a 30 s run consumes. A run takes ``slice_items``
# items per method per sweep.
WORKLOADS = {
    "spider_narrow": {
        "shape": "spider", "size": 100, "cache_mode": "replay", "workers": 1,
        "methods": ("unjoin-mp", "unjoin-sp", "cot", "cot-ss"), "slice_items": 25,
    },
    "bird_wide_noisy": {
        "shape": "bird", "size": 10, "cache_mode": "replay", "workers": 1,
        "methods": ("unjoin-mp", "cot"), "slice_items": 10,
        "items_per_db": 60, "typo_share": 0.5,
    },
    "record_slow_endpoint": {
        "shape": "spider", "size": 92, "cache_mode": "record", "workers": 2,
        "methods": ("unjoin-mp", "cot"), "slice_items": 25,
        "delay_s": 0.003, "fail_first_share": 0.1,
    },
}

# SQLite keywords plus the words the program's tokenizer reserves. A
# generated name or typo must be none of these.
SQL_KEYWORDS = frozenset(
    """
    abort action add after all alter always analyze and as asc attach autoincrement
    before begin between by cascade case cast check collate column commit conflict
    constraint create cross current current_date current_time current_timestamp
    database default deferrable deferred delete desc detach distinct do drop each
    else end escape except exclude exclusive exists explain fail filter first
    following for foreign from full generated glob group groups having if ignore
    immediate in index indexed initially inner insert instead intersect into is
    isnull join key last left like limit match materialized natural no not nothing
    notnull null nulls of offset on or order others outer over partition plan
    pragma preceding primary query raise range recursive references regexp reindex
    release rename replace restrict returning right rollback row rows savepoint
    select set table temp temporary then ties to transaction trigger unbounded
    union unique update using vacuum values view virtual when where window with
    without
    """.split()
)


# ----- edit distance and typo choice -----


def edit_distance(a: str, b: str, cap: int | None = None) -> int:
    """Levenshtein distance by the textbook two-row table.

    With ``cap``, stops as soon as every entry of a row exceeds it and
    returns ``cap + 1``: each alignment passes through every row, so the
    distance is at least that row's minimum.
    """
    prev = list(range(len(b) + 1))
    for i in range(1, len(a) + 1):
        cur = [i]
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost))
        if cap is not None and min(cur) > cap:
            return cap + 1
        prev = cur
    return prev[-1]


def allowed_distance(intended: str) -> int:
    return max(2, math.ceil(0.4 * len(intended)))


def _word_typos(word: str) -> list[str]:
    """Dropped plurals, transposed letters and lost underscores."""
    out = []
    if len(word) > 3 and word.endswith("s"):
        out.append(word[:-1])
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a != b and a.isalpha() and b.isalpha():
            out.append(word[:i] + b + a + word[i + 2 :])
    for i, ch in enumerate(word):
        if ch == "_" and 0 < i < len(word) - 1:
            out.append(word[:i] + word[i + 1 :])
    return out


def typo_variants(name: str) -> list[str]:
    """Near misses of a name; a dotted name is varied one part at a time."""
    parts = name.split(".")
    out = []
    for k, part in enumerate(parts):
        for typo in _word_typos(part):
            out.append(".".join(parts[:k] + [typo] + parts[k + 1 :]))
    return out


def pick_typo(rng: random.Random, intended: str, candidates, forbidden) -> str | None:
    """A typo of ``intended`` that repair can only map back to ``intended``.

    Accepted when it is within the allowed distance of ``intended``,
    strictly closer to it than to every other candidate of its kind, and
    neither an existing name nor a keyword in any of its parts.
    """
    variants = typo_variants(intended)
    rng.shuffle(variants)
    for typo in variants:
        if typo in forbidden or any(p in SQL_KEYWORDS for p in typo.split(".")):
            continue
        dist = edit_distance(typo, intended)
        if dist > allowed_distance(intended):
            continue
        if all(
            edit_distance(typo, other, cap=dist) > dist
            for other in candidates
            if other != intended
        ):
            return typo
    return None


# ----- dataset files -----


def tables_json_entry(db_id: str, tables, fks) -> dict:
    cols = [[-1, "*"]]
    types = ["text"]
    index = {}
    for ti, (table, columns) in enumerate(tables):
        for name, col_type in columns:
            index[(table, name)] = len(cols)
            cols.append([ti, name])
            types.append(col_type)
    names = [t for t, _ in tables]
    return {
        "db_id": db_id,
        "table_names_original": names,
        "table_names": names,
        "column_names_original": cols,
        "column_names": cols,
        "column_types": types,
        "foreign_keys": [[index[(t1, c1)], index[(t2, c2)]] for t1, c1, t2, c2 in fks],
        "primary_keys": [],
    }


def write_sqlite(path: Path, tables, rows: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    con = sqlite3.connect(path)
    try:
        for table, columns in tables:
            cols = ", ".join(f'"{name}" {col_type}' for name, col_type in columns)
            con.execute(f'CREATE TABLE "{table}" ({cols})')
            marks = ", ".join("?" for _ in columns)
            con.executemany(f'INSERT INTO "{table}" VALUES ({marks})', rows[table])
        con.commit()
    finally:
        con.close()


# ----- spider shape: diversified copies of the fixture databases -----


def _parent_first(tables, fks) -> list[str]:
    parents = {t: {p for c, _, p, _ in fks if c == t} for t, _ in tables}
    order: list[str] = []
    while len(order) < len(tables):
        for t, _ in tables:
            if t not in order and parents[t] <= set(order):
                order.append(t)
    return order


def _distractor_value(rng: random.Random, col_type: str):
    if col_type == "number":
        return rng.randint(0, 99)
    return rng.choice(WIDE_VALUES)


def spider_copy(rng: random.Random, base: str, seen: set):
    """One copy of a fixture database with seeded distractors and rows.

    Base rows are kept and extra rows only reuse values and keys that
    exist, so every fixture question still returns rows.
    """
    (tables, fks), base_rows = BASES[base]
    while True:
        extras = {t: sorted(rng.sample(DISTRACTORS, rng.randint(0, 2))) for t, _ in tables}
        signature = tuple(tuple(extras[t]) for t, _ in tables)
        if signature not in seen:
            seen.add(signature)
            break
    fk_of = {(c, cc): (p, pc) for c, cc, p, pc in fks}
    rows: dict[str, list[tuple]] = {}
    for table in _parent_first(tables, fks):
        columns = dict(tables)[table]
        table_rows = [list(r) for r in base_rows[table]]
        for _ in range(rng.randint(0, 3)):
            row = []
            for k, (name, _) in enumerate(columns):
                if (table, name) in fk_of:
                    parent, pcol = fk_of[(table, name)]
                    pk = [n for n, _ in dict(tables)[parent]].index(pcol)
                    row.append(rng.choice(rows[parent])[pk])
                elif k == 0 and name.endswith("_id"):
                    row.append(max(r[0] for r in table_rows) + 1)
                else:
                    row.append(rng.choice(table_rows)[k])
            table_rows.append(row)
        rows[table] = [
            tuple(r) + tuple(_distractor_value(rng, ct) for _, ct in extras[table])
            for r in table_rows
        ]
    new_tables = [(t, list(cols) + extras[t]) for t, cols in tables]
    return new_tables, fks, rows


def build_spider(rng: random.Random, copies: int, root: Path) -> dict:
    """Write a SPIDER-layout root; return expected answers per item id."""
    entries, dev, expected = [], [], {}
    seen = {base: set() for base in BASES}
    for k in range(copies):
        for base in BASES:
            db_id = f"{base}_{k:03d}"
            tables, fks, rows = spider_copy(rng, base, seen[base])
            entries.append(tables_json_entry(db_id, tables, fks))
            write_sqlite(root / "database" / db_id / f"{db_id}.sqlite", tables, rows)
        for base, question, gold, simplified in CASES:
            db_id = f"{base}_{k:03d}"
            item_id = f"{db_id}:{len(dev)}"
            dev.append({"db_id": db_id, "question": question, "query": gold})
            if simplified is not None:
                expected[item_id] = {
                    "gold": gold,
                    "simplified": re.sub(rf"\bFROM {base}\b", f"FROM {db_id}", simplified),
                    "typos": {},
                }
    (root / "tables.json").write_text(json.dumps(entries, indent=1), encoding="utf-8")
    (root / "dev.json").write_text(json.dumps(dev, indent=1), encoding="utf-8")
    return expected


# ----- bird shape: wide schemas with near-miss identifiers -----


def wide_schema(rng: random.Random, n_tables: int = 20, n_cols: int = 25):
    picked = rng.sample(WIDE_TABLES, n_tables)
    tables, fks, parent = [], [], {}
    for i, (table, key) in enumerate(picked):
        columns = [(key, "integer")]
        if i > 0:
            p_table, p_key = picked[i - 1 if rng.random() < 0.6 else rng.randrange(i)]
            parent[table] = (p_table, p_key)
            columns.append((p_key, "integer"))
            fks.append((table, p_key, p_table, p_key))
        columns += [(a, "text") for a in rng.sample(WIDE_ATTRIBUTES, n_cols - len(columns))]
        tables.append((table, columns))
    rows = {}
    for table, columns in tables:
        n = rng.randint(4, 8)
        table_rows = []
        for r in range(1, n + 1):
            row = [r]
            if table in parent:
                row.append(rng.randint(1, len(rows[parent[table][0]])))
            row += [rng.choice(WIDE_VALUES) for _ in columns[len(row):]]
            table_rows.append(tuple(row))
        rows[table] = table_rows
    return tables, fks, rows, parent


def _render(pieces, override=None) -> str:
    override = override or {}
    return "".join(
        override.get(i, p if isinstance(p, str) else p[1]) for i, p in enumerate(pieces)
    )


def _inject(rng, pieces, kinds, vocab, forbidden):
    """Replace one identifier slot of ``kinds`` with a typo; return (sql, typos)."""
    slots = [i for i, p in enumerate(pieces) if not isinstance(p, str) and p[0] in kinds]
    rng.shuffle(slots)
    for i in slots:
        kind, name = pieces[i]
        typo = pick_typo(rng, name, vocab[kind], forbidden)
        if typo is not None:
            return _render(pieces, {i: typo}), [[typo, name]]
    return _render(pieces), []


def wide_items(rng, db_id, tables, parent, con, n_items, typo_share, block):
    """Questions along foreign-key chains of 2 to 5 tables.

    Typos go into the same number of items in every ``block`` of
    consecutive items, so that equal slices cost the same to repair.
    """
    attrs = {t: [c for c, ty in cols if ty == "text"] for t, cols in tables}
    key_of = {t: cols[0][0] for t, cols in tables}
    names = {t for t, _ in tables}
    columns = {c for _, cols in tables for c, _ in cols}
    entries = {f"{t}.{c}" for t, cols in tables for c, _ in cols}
    vocab = {"table": names, "col": columns, "chain": entries}
    forbidden = names | columns | entries

    def chain_from(t):
        out = [t]
        while out[-1] in parent:
            out.append(parent[out[-1]][0])
        return out

    chains = [chain_from(t) for t, _ in tables]
    typo_items = {
        start + i
        for start in range(0, n_items, block)
        for i in rng.sample(range(min(block, n_items - start)),
                            round(typo_share * min(block, n_items - start)))
    }
    items, questions = [], set()
    while len(items) < n_items:
        length = rng.choice([2, 3, 4, 5])
        long_enough = [c for c in chains if len(c) >= length]
        if not long_enough:
            continue
        chain = rng.choice(long_enough)[:length]
        head, tail = chain[0], chain[-1]
        a, b = rng.sample(attrs[head], 2)
        c = rng.choice(attrs[tail])
        ordered = rng.random() < 0.3
        gold = ["SELECT DISTINCT ", ("table", head), ".", ("col", a), ", ",
                ("table", head), ".", ("col", b), " FROM ", ("table", head)]
        for child, par in zip(chain, chain[1:]):
            key = key_of[par]
            gold += [" JOIN ", ("table", par), " ON ", ("table", child), ".", ("col", key),
                     " = ", ("table", par), ".", ("col", key)]
        join_sql = _render(gold)
        values = sorted({v for (v,) in con.execute(
            f"SELECT DISTINCT {tail}.{c} {join_sql[join_sql.index(' FROM '):]}")})
        value = rng.choice(values)
        question = f"What are the {a} and {b} of {head} linked to {tail} with {c} {value}"
        question += f", sorted by {a}?" if ordered else "?"
        if question in questions:
            continue
        questions.add(question)
        gold += [" WHERE ", ("table", tail), ".", ("col", c), f" = '{value}'"]
        simple = ["SELECT DISTINCT ", ("chain", f"{head}.{a}"), ", ", ("chain", f"{head}.{b}"),
                  f" FROM {db_id} WHERE ", ("chain", f"{tail}.{c}"), f" = '{value}'"]
        if ordered:
            gold += [" ORDER BY ", ("table", head), ".", ("col", a)]
            simple += [" ORDER BY ", ("chain", f"{head}.{a}")]
        completions = {
            "unjoin-mp:1": (_render(simple), []),
            "unjoin-mp:2": (_render(gold), []),
            "cot": (_render(gold), []),
        }
        if len(items) in typo_items:
            completions = {
                "unjoin-mp:1": _inject(rng, simple, {"chain"}, vocab, forbidden),
                "unjoin-mp:2": _inject(rng, gold, {"table", "col"}, vocab, forbidden),
                "cot": _inject(rng, gold, {"table", "col"}, vocab, forbidden),
            }
        items.append({
            "question": question,
            "evidence": f"{value} refers to {tail}.{c} = '{value}'",
            "gold": _render(gold),
            "simplified": _render(simple),
            "completions": completions,
        })
    return items


def _description(table: str, column: str) -> str:
    return f"the {column.replace('_', ' ')} of the {table.rstrip('s')} record"


def build_bird(rng: random.Random, n_dbs: int, items_per_db: int, typo_share: float,
               block: int, root: Path) -> dict:
    """Write a BIRD-layout root; return expected answers per item id."""
    entries, dev, expected = [], [], {}
    for k in range(n_dbs):
        db_id = f"wide_{k:02d}"
        tables, fks, rows, parent = wide_schema(rng)
        entries.append(tables_json_entry(db_id, tables, fks))
        folder = root / "dev_databases" / db_id
        db_file = folder / f"{db_id}.sqlite"
        write_sqlite(db_file, tables, rows)
        desc_dir = folder / "database_description"
        desc_dir.mkdir(parents=True)
        for table, columns in tables:
            lines = ["original_column_name,column_name,column_description,data_format,value_description"]
            lines += [f"{c},{c.replace('_', ' ')},{_description(table, c)},{t}," for c, t in columns]
            body = "\n".join(lines) + "\n"
            (desc_dir / f"{table}.csv").write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
        con = sqlite3.connect(db_file)
        try:
            items = wide_items(rng, db_id, tables, parent, con, items_per_db, typo_share,
                               block)
        finally:
            con.close()
        for item in items:
            item_id = f"{db_id}:{len(dev)}"
            dev.append({"question_id": len(dev), "db_id": db_id, "question": item["question"],
                        "evidence": item["evidence"], "SQL": item["gold"]})
            expected[item_id] = {
                "gold": item["gold"],
                "simplified": item["simplified"],
                "completions": {k: v[0] for k, v in item["completions"].items()},
                "typos": {k: v[1] for k, v in item["completions"].items() if v[1]},
            }
    (root / "dev_tables.json").write_text(json.dumps(entries, indent=1), encoding="utf-8")
    (root / "dev.json").write_text(json.dumps(dev, indent=1), encoding="utf-8")
    return expected


# ----- oracle exchanges -----


def _fenced(sql: str) -> str:
    return f"```sql\n{sql}\n```"


def oracle_exchanges(bundle, expected: dict, methods) -> list[tuple[str, str]]:
    """(prompt, completion) for every method stage of every expected item.

    The step-2 prompt is built from the gold simplified query, so a
    stage-1 repair that differs from gold misses the oracle.
    """
    from unjoin.prompting import (
        baseline_schema_block,
        build_baseline_prompt,
        build_mp_step1_prompt,
        build_mp_step2_prompt,
        build_sp_prompt,
    )
    from unjoin.schema import simplify_schema

    by_id = {item.item_id: item for item in bundle.items}
    out = []
    for item_id, exp in expected.items():
        item = by_id[item_id]
        db = bundle.catalogue[item.db_id]
        question = item.prompt_question
        simplified = simplify_schema(db, bundle.descriptions.get(item.db_id))
        said = exp.get("completions", {})
        for method in methods:
            if method == "unjoin-mp":
                out.append((build_mp_step1_prompt(simplified, question),
                            _fenced(said.get("unjoin-mp:1", exp["simplified"]))))
                out.append((build_mp_step2_prompt(simplified, exp["simplified"], question, db),
                            _fenced(said.get("unjoin-mp:2", exp["gold"]))))
            elif method == "unjoin-sp":
                joint = (f"{_fenced(exp['simplified'])}\n\nTranslated back to the original "
                         f"schema:\n\n{_fenced(exp['gold'])}")
                out.append((build_sp_prompt(simplified, question, db), joint))
            else:
                prompt = build_baseline_prompt(method, baseline_schema_block(method, db), question)
                out.append((prompt, _fenced(said.get(method, exp["gold"]))))
    return out


def prompt_digest(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def generate(workload: str, seed: int, out: Path, size: int | None = None,
             items_per_db: int | None = None) -> dict:
    """Write root/, cache/ or oracle/, and expected.json under ``out``."""
    from unjoin.dataset import load_dataset
    from unjoin.llm import ExchangeCache, LlmConfig, LlmExchange, exchange_key

    spec = WORKLOADS[workload]
    size = size or spec["size"]
    rng = random.Random(f"{workload}:{seed}")
    root = out / "root"
    root.mkdir(parents=True)
    if spec["shape"] == "spider":
        flavor = "spider"
        expected = build_spider(rng, size, root)
    else:
        flavor = "bird"
        expected = build_bird(rng, size, items_per_db or spec["items_per_db"],
                              spec["typo_share"], spec["slice_items"], root)
    bundle = load_dataset(root, flavor)
    exchanges = oracle_exchanges(bundle, expected, spec["methods"])
    if spec["cache_mode"] == "replay":
        cache = ExchangeCache(out / "cache")
        cfg = LlmConfig(model=ORACLE_MODEL, temperature=0.0)
        for prompt, completion in exchanges:
            cache.put(LlmExchange(key=exchange_key(prompt, cfg), prompt=prompt,
                                  completion=completion))
    else:
        oracle = out / "oracle"
        oracle.mkdir()
        for prompt, completion in exchanges:
            record = {"completion": completion,
                      "fail_first": rng.random() < spec["fail_first_share"]}
            (oracle / f"{prompt_digest(prompt)}.json").write_text(
                json.dumps(record), encoding="utf-8")
    db_ids = {item_id.split(":")[0] for item_id in expected}
    prompts = [p for p, _ in exchanges]
    summary = {
        "workload": workload,
        "seed": seed,
        "flavor": flavor,
        "items": expected,
        "traffic": {
            "typo_item_share": sum(1 for e in expected.values() if e["typos"]) / len(expected),
            "repeated_prompt_share": 1 - len(set(prompts)) / len(prompts),
            "items_per_db": len(expected) / len(db_ids),
        },
    }
    (out / "expected.json").write_text(json.dumps(summary, indent=1, sort_keys=True),
                                       encoding="utf-8")
    return summary


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
