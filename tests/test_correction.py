"""Identifier repair: seeded perturbation suite plus targeted units.

The perturbation suite takes the 25 multi-table gold queries twice each,
injects 1-2 character edits into one schema identifier, and checks how
many come back exactly. Restoration can legitimately lose a few cases to
nearer candidates, so the bar is 90%; the structural invariants
(idempotence, only identifier tokens touched) must hold on all of them.
"""

import itertools
import random
import re
import sqlite3
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from unjoin.correction import (
    CorrectionReport,
    PackedNames,
    _best,
    correct_identifiers,
    correct_identifiers_simplified,
    levenshtein,
)
from unjoin.pipeline import assemble_pool
from unjoin.schema import ColumnDef, DatabaseSchema, TableDef, simplify_schema
from unjoin.sqlref import extract_refs
from unjoin.tokens import IDENT, KEYWORDS, QIDENT, tokenize

from conftest import SPIDER_CASES, academic_schema, financial_schema, retail_schema
from oracles import banded_levenshtein, slow_best, slow_levenshtein

SEED = 20240814
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def schema_idents(db):
    names = {t.name.lower() for t in db.tables}
    for t in db.tables:
        names |= {c.name.lower() for c in t.columns}
    return names


def mutate(word: str, rng: random.Random, edits: int) -> str:
    out = word
    for _ in range(edits):
        op = rng.choice(("sub", "ins", "del"))
        pos = rng.randrange(len(out))
        ch = rng.choice(LETTERS)
        if op == "sub":
            out = out[:pos] + ch + out[pos + 1:]
        elif op == "ins":
            out = out[:pos] + ch + out[pos:]
        elif len(out) > 2:
            out = out[:pos] + out[pos + 1:]
    return out


def perturb(sql: str, rng: random.Random, idents: set[str]) -> str | None:
    spots = [
        t for t in tokenize(sql)
        if t.kind == IDENT and t.lower in idents and len(t.value) >= 4
    ]
    if not spots:
        return None
    tok = rng.choice(spots)
    for _ in range(100):
        bad = mutate(tok.value, rng, rng.choice((1, 2)))
        if (
            bad.lower() != tok.lower
            and bad.lower() not in idents
            and bad.lower() not in KEYWORDS
            and bad[0].isalpha()
        ):
            return sql[: tok.start] + bad + sql[tok.end:]
    return None


def perturbation_suite():
    """50 (db, gold, perturbed) cases, deterministic across runs."""
    rng = random.Random(SEED)
    schemas = {"retail": retail_schema(), "academic": academic_schema()}
    idents = {name: schema_idents(db) for name, db in schemas.items()}
    cases = []
    golds = [(db_id, gold) for db_id, _, gold, simp in SPIDER_CASES if simp is not None]
    for db_id, gold in golds * 2:
        broken = perturb(gold, rng, idents[db_id])
        assert broken is not None
        cases.append((schemas[db_id], gold, broken))
    return cases


SUITE = perturbation_suite()


def test_suite_has_fifty_distinct_perturbations():
    assert len(SUITE) == 50
    assert all(gold != broken for _, gold, broken in SUITE)


def test_at_least_ninety_percent_restored_exactly():
    restored = 0
    for db, gold, broken in SUITE:
        fixed, report = correct_identifiers(broken, db)
        if fixed == gold:
            restored += 1
    assert restored >= 45, f"only {restored}/50 restored"


def test_gold_queries_are_fixed_points():
    for db, gold, _ in SUITE:
        fixed, report = correct_identifiers(gold, db)
        assert fixed == gold
        assert not report.substitutions


def test_correction_is_idempotent_on_all_cases():
    for db, _, broken in SUITE:
        once, _ = correct_identifiers(broken, db)
        twice, report = correct_identifiers(once, db)
        assert twice == once
        assert not report.substitutions


def test_only_identifier_tokens_are_touched():
    for db, _, broken in SUITE:
        fixed, _ = correct_identifiers(broken, db)
        before = tokenize(broken)
        after = tokenize(fixed)
        assert len(before) == len(after)
        for b, a in zip(before, after):
            assert b.kind == a.kind
            if b.kind != IDENT:
                assert b.value == a.value


def _check_edits(sql, fixed, report):
    """The report's substitutions are the edits: each is the slice of
    ``sql`` it names, applying them from last to first gives ``fixed``,
    and each distance is the search's, from the name with its quotes and
    a chain's spaces dropped; for a bare name, from ``original`` itself."""
    out = sql
    for sub in reversed(report.substitutions):
        end = sub.position + len(sub.original)
        assert sql[sub.position:end] == sub.original
        out = out[:sub.position] + sub.replacement + out[end:]
        searched, name = (re.sub(r"[`\[\]\"\s]", "", text).lower()
                          for text in (sub.original, sub.replacement))
        assert [sub.distance] == _distances(searched, [name])
        assert sub.distance > 0
    assert out == fixed


def test_reported_substitutions_match_the_input():
    for db, _, broken in SUITE:
        fixed, report = correct_identifiers(broken, db)
        _check_edits(broken, fixed, report)


@pytest.mark.parametrize("flat, sql, repaired", [
    (False, "SELECT `nmae` FROM customer", "SELECT `name` FROM customer"),
    (False, "SELECT [nmae] FROM customer", "SELECT [name] FROM customer"),
    (False, "SELECT `custmer`.name FROM customer", "SELECT `customer`.name FROM customer"),
    (True, 'SELECT "customer".nmae FROM retail', "SELECT customer.name FROM retail"),
    (True, "SELECT customer . nmae FROM retail", "SELECT customer.name FROM retail"),
], ids=["backticks", "brackets", "backticked-qualifier", "quoted-chain", "spaced-chain"])
def test_reported_substitutions_of_quoted_names_are_the_edits(retail_db, flat, sql, repaired):
    if flat:
        fixed, report = correct_identifiers_simplified(sql, simplify_schema(retail_db))
    else:
        fixed, report = correct_identifiers(sql, retail_db)
    assert fixed == repaired
    assert len(report.substitutions) == 1 and not report.unresolved
    _check_edits(sql, fixed, report)


# ----- targeted units -----


def test_single_edit_column_repair(retail_db):
    fixed, report = correct_identifiers("SELECT orders.statas FROM orders", retail_db)
    assert fixed == "SELECT orders.status FROM orders"
    assert report.substitutions[0].replacement == "status"


def test_table_repair_in_from(retail_db):
    fixed, _ = correct_identifiers("SELECT name FROM custmer", retail_db)
    assert fixed == "SELECT name FROM customer"


def test_alias_resolves_to_repaired_table(retail_db):
    fixed, _ = correct_identifiers(
        "SELECT T1.nmae FROM customer AS T1", retail_db
    )
    assert fixed == "SELECT T1.name FROM customer AS T1"


def test_bare_column_candidates_limited_to_referenced_tables(retail_db):
    # orders.status is one edit away, but orders is not referenced here
    fixed, report = correct_identifiers("SELECT statas FROM product", retail_db)
    assert fixed == "SELECT statas FROM product"
    assert "statas" in report.unresolved


def test_unresolved_names_in_text_order(retail_db):
    _, report = correct_identifiers("SELECT zzzzzz FROM qqqqqq", retail_db)
    assert report.unresolved == ("zzzzzz", "qqqqqq")
    _, report = correct_identifiers("SELECT wwwwww.zzzzzz FROM qqqqqq", retail_db)
    assert report.unresolved == ("wwwwww", "zzzzzz", "qqqqqq")


# (query, the misspelled keyword repair reports); each query is written
# for the retail schema and its flat view, named "retail".
MISSPELLED_KEYWORDS = [
    ("SELECT customer.name FRMO customer", "FRMO"),
    ("SELECT customer.name FROM customer GROPU BY customer.name", "GROPU"),
    ("SELECT customer.name FROM customer WHER customer.gender = 'F'", "WHER"),
    ("SELECT customer.name FROM customer LIMT 5", "LIMT"),
    ("SELECT customer.name FROM customer ORDER BY customer.name LIMIT 5 OFSET 'x'", "OFSET"),
    # Before "(", where no call can stand: after a FROM source or an expression.
    ("SELECT name FROM customer WHER (gender = 'F')", "WHER"),
    ("SELECT customer.name FROM customer WHERE (customer.gender = 'F') GROPU (customer.name)",
     "GROPU"),
]

# (query, a name in it): an implicit alias that is a word near a keyword,
# a short alias or an alias no keyword is near, or a call or keyword
# before "(". None is reported.
KEYWORD_LOOKALIKES = [
    ("SELECT name FROM customer ORDER BY name NULLS FIRST", "NULLS"),
    ("SELECT name FROM customer WHERE name MATCH gender", "MATCH"),
    ("SELECT name FROM customer WHERE name REGEXP 'x'", "REGEXP"),
    ("SELECT name FROM customer WINDOW w AS (PARTITION BY gender)", "WINDOW"),
    ("SELECT c.name FROM customer c WHERE c.gender = 'F'", "c"),
    ("SELECT t1.name FROM customer t1 JOIN city c ON t1.city_id = c.city_id", "t1"),
    ("SELECT count(*) n FROM customer", "n"),
    # Calls and keywords before "(": none stands where an alias would.
    ("SELECT count(*), coalesce(name, 'x'), max(city_id) FROM customer", "max"),
    ("SELECT 1 + max(city_id) - min(city_id) FROM customer", "min"),
    ("SELECT name FROM customer WHERE coalesce(gender, 'x') = 'F'", "coalesce"),
    ("SELECT name FROM customer WHERE city_id IN (SELECT city_id FROM city)", "IN"),
    ("SELECT name FROM customer WHERE EXISTS (SELECT 1 FROM city)", "EXISTS"),
    ("SELECT gender FROM customer JOIN city USING (city_id)", "USING"),
    ("SELECT count(*) FILTER (WHERE gender = 'F') FROM customer", "FILTER"),
    ("SELECT rank() OVER (ORDER BY name) FROM customer", "OVER"),
    ("WITH t(x) AS (SELECT name FROM customer) SELECT x FROM t", "t"),
    ("SELECT name FROM customer WHERE name REGEXP ('x')", "REGEXP"),
    ("SELECT name FROM customer WHERE name MATCH ('x')", "MATCH"),
]


@pytest.mark.parametrize("sql, keyword", MISSPELLED_KEYWORDS)
def test_misspelled_clause_keyword_reported_never_rewritten(retail_db, sql, keyword):
    fixed, report = correct_identifiers(sql, retail_db)
    assert (fixed, report.unresolved) == (sql, (keyword,))
    flat = re.sub(r"\bcustomer\b(?!\.)", "retail", sql)  # the FROM table, not a qualifier
    fixed, report = correct_identifiers_simplified(flat, simplify_schema(retail_db))
    assert (fixed, report.unresolved) == (flat, (keyword,))


@pytest.mark.parametrize("sql, alias", KEYWORD_LOOKALIKES)
def test_keyword_lookalikes_not_reported(retail_db, sql, alias):
    _, report = correct_identifiers(sql, retail_db)
    assert report.unresolved == ()
    _, report = correct_identifiers_simplified(sql, simplify_schema(retail_db))
    assert alias not in report.unresolved


def test_distance_beyond_threshold_left_alone(retail_db):
    # "name" has threshold 2; three edits away stays put
    fixed, report = correct_identifiers("SELECT nxxx FROM customer", retail_db)
    assert fixed == "SELECT nxxx FROM customer"
    assert "nxxx" in report.unresolved


def test_distance_at_threshold_repaired(retail_db):
    fixed, _ = correct_identifiers("SELECT nxxe FROM customer", retail_db)
    assert fixed == "SELECT name FROM customer"


def test_tie_prefers_referenced_table():
    db = DatabaseSchema(
        "tie",
        (TableDef("alpha", (ColumnDef("aaaa"),)), TableDef("beta", (ColumnDef("aaab"),))),
        (),
    )
    fixed, _ = correct_identifiers("SELECT aaac FROM alpha", db)
    assert fixed == "SELECT aaaa FROM alpha"


def test_tie_between_referenced_tables_breaks_lexicographically():
    db = DatabaseSchema(
        "tie",
        (TableDef("alpha", (ColumnDef("aaaa"),)), TableDef("beta", (ColumnDef("aaab"),))),
        (),
    )
    fixed, _ = correct_identifiers("SELECT aaac FROM alpha, beta", db)
    assert fixed == "SELECT aaaa FROM alpha, beta"


def test_double_quoted_tokens_never_corrected(retail_db):
    sql = 'SELECT "nmae" FROM customer'
    fixed, report = correct_identifiers(sql, retail_db)
    assert fixed == sql
    assert report == CorrectionReport()  # nor reported as unresolved


def test_backtick_quoting_preserved_on_rewrite(retail_db):
    fixed, _ = correct_identifiers("SELECT `nmae` FROM customer", retail_db)
    assert fixed == "SELECT `name` FROM customer"


def test_string_literals_untouched(retail_db):
    sql = "SELECT name FROM customer WHERE name = 'custmer'"
    fixed, _ = correct_identifiers(sql, retail_db)
    assert fixed == sql


def test_cte_names_are_not_correction_targets(retail_db):
    sql = (
        "WITH ordr AS (SELECT order_id FROM orders) "
        "SELECT ordr.order_id FROM ordr"
    )
    fixed, _ = correct_identifiers(sql, retail_db)
    assert fixed == sql


def test_select_alias_not_corrected(retail_db):
    sql = "SELECT count(*) AS totl FROM orders GROUP BY status ORDER BY totl"
    fixed, _ = correct_identifiers(sql, retail_db)
    assert fixed == sql


@pytest.mark.parametrize("sql", [
    # A column of a derived table is named by its select list, not the schema.
    "SELECT d.total FROM (SELECT count(*) AS total FROM orders) AS d",
    # A bare name equal to a CTE name.
    "WITH total AS (SELECT 1 AS k) SELECT total FROM total",
    # No base table is referenced, so every schema column is a candidate,
    # and a known one must not be substituted for itself at distance 0.
    "WITH x AS (SELECT 1 AS k) SELECT name FROM x",
])
def test_names_outside_the_schema_left_alone(retail_db, sql):
    assert correct_identifiers(sql, retail_db) == (sql, CorrectionReport())


@pytest.mark.parametrize("sql", [
    # A blob literal, a collation name and NULLS FIRST|LAST are no names,
    # though each lies one edit from a column of this table.
    "SELECT name FROM t WHERE name <> x'41'",
    "SELECT name FROM t ORDER BY name COLLATE NOCASE",
    "SELECT name FROM t ORDER BY name DESC NULLS LAST",
    "SELECT name FROM t ORDER BY name ASC NULLS FIRST",
])
def test_words_sqlite_reads_as_no_name_left_alone(retail_db, sql):
    db = DatabaseSchema("d", (TableDef("t", tuple(
        ColumnDef(c) for c in ("name", "nocases", "nulls_", "xs", "firsts"))),))
    assert correct_identifiers(sql, db) == (sql, CorrectionReport())
    # Scoring reads no column from them either, though the table has
    # columns of those very names.
    named = DatabaseSchema("d", (TableDef("t", tuple(
        ColumnDef(c) for c in ("name", "nocase", "first", "last"))),))
    assert extract_refs(sql, named).columns == {"t.name"}
    # With no near name, they are not reported as unresolved either.
    sql = sql.replace("FROM t", "FROM customer")
    assert correct_identifiers(sql, retail_db) == (sql, CorrectionReport())


@pytest.mark.parametrize("schema, sql", [
    # A schema-qualified FROM name is a table, not a qualified column.
    (retail_schema, "SELECT count(*) FROM main.customer"),
    (retail_schema, "SELECT c.name FROM temp.customer AS c"),
    # The names in a CTE column list are definitions, like aliases.
    (financial_schema, "WITH t(x) AS (SELECT 1) SELECT x FROM t"),
    # A keyword after a comma-joined table opens a derived table; it is
    # not an alias of the table before the comma.
    (retail_schema, "SELECT c.name FROM customer, (SELECT name, city_id FROM city) AS c"),
    (retail_schema,
     "SELECT c.name FROM customer, (WITH k AS (SELECT name FROM city) SELECT name FROM k) AS c"),
    (retail_schema, "SELECT c.name FROM (WITH k AS (SELECT name FROM city), "
                    "j AS (SELECT name FROM k) SELECT name FROM j) AS c"),
])
def test_names_the_query_defines_left_alone(schema, sql):
    assert correct_identifiers(sql, schema()) == (sql, CorrectionReport())


@pytest.mark.parametrize("source", ["city AS {}", "city {}"])
@pytest.mark.parametrize("alias", ["r", "row", "filter", "range"])
def test_keyword_alias_qualifies_its_column(retail_db, source, alias):
    # SQLite takes a keyword such as ROW as an alias; its column is city's.
    sql = f"SELECT 1 FROM {source.format(alias)}, customer WHERE {alias}.gendr = 1"
    assert correct_identifiers(sql, retail_db) == (sql, CorrectionReport(unresolved=("gendr",)))


# (sql, repaired): each repaired query runs on SQLite 3.40.1, given an index
# named customer_name_idx.
FRONT_END_REPAIRS = [
    # A comma after a join condition starts the next FROM source.
    ("SELECT item.quantity FROM orders JOIN customer ON orders.customer_id = "
     "customer.customer_id, item WHERE item.order_id = orders.order_id",
     "SELECT item.quantity FROM orders JOIN customer ON orders.customer_id = "
     "customer.customer_id, item WHERE item.order_id = orders.order_id"),
    ("SELECT city.name FROM orders JOIN customer ON orders.customer_id = "
     "customer.customer_id, citys",
     "SELECT city.name FROM orders JOIN customer ON orders.customer_id = "
     "customer.customer_id, city"),
    ("SELECT c.name FROM orders JOIN city USING (city_id), custmer c",
     "SELECT c.name FROM orders JOIN city USING (city_id), customer c"),
    # A keyword names a FROM subquery without AS.
    ("SELECT row.name FROM (SELECT name FROM customer) row",
     "SELECT row.name FROM (SELECT name FROM customer) row"),
    # The FROM of IS [NOT] DISTINCT FROM is followed by a column.
    ("SELECT name FROM customer WHERE gender IS DISTINCT FROM gendr",
     "SELECT name FROM customer WHERE gender IS DISTINCT FROM gender"),
    ("SELECT name FROM customer WHERE gender IS NOT DISTINCT FROM gendr",
     "SELECT name FROM customer WHERE gender IS NOT DISTINCT FROM gender"),
    # The index a table is read by is no reference.
    ("SELECT name FROM customer INDEXED BY customer_name_idx WHERE gendr = 'F'",
     "SELECT name FROM customer INDEXED BY customer_name_idx WHERE gender = 'F'"),
    ("SELECT c.name FROM customer AS c NOT INDEXED WHERE c.gendr = 'F'",
     "SELECT c.name FROM customer AS c NOT INDEXED WHERE c.gender = 'F'"),
]


@pytest.mark.parametrize("sql, repaired", FRONT_END_REPAIRS)
def test_repair_reads_from_lists_as_sqlite_does(retail_db, sql, repaired):
    fixed, report = correct_identifiers(sql, retail_db)
    assert fixed == repaired
    assert report.unresolved == ()


def test_filter_after_a_call_is_no_alias(retail_db):
    # ")" closes a call here, not a FROM subquery: FILTER stays a keyword.
    fixed, report = correct_identifiers(
        "SELECT count(*) FILTER (WHERE gendr = 'F') FROM customer", retail_db
    )
    assert fixed == "SELECT count(*) FILTER (WHERE gender = 'F') FROM customer"
    assert report.unresolved == ()


def test_unresolved_qualifier_tie_prefers_referenced_table():
    db = DatabaseSchema(
        "tie",
        (TableDef("a", (ColumnDef("nmaexy"),)), TableDef("b", (ColumnDef("name"),))),
        (),
    )
    # Both candidates are two edits from "nmae"; only a is in FROM.
    fixed, report = correct_identifiers("SELECT zzzzzzzz.nmae FROM a", db)
    assert fixed == "SELECT zzzzzzzz.nmaexy FROM a"
    assert report.unresolved == ("zzzzzzzz",)


@pytest.mark.parametrize("sql", [
    "WITH x AS (SELECT name AS nam FROM customer) SELECT x.nam FROM x",
    "WITH x AS (SELECT name AS nam FROM customer) SELECT y.nam FROM x AS y",
])
def test_cte_qualified_columns_left_alone(retail_db, retail_sqlite, sql):
    # The CTE's columns are its select list's names, which repair must not
    # rewrite into base-table columns the CTE does not have.
    fixed, report = correct_identifiers(sql, retail_db)
    conn = sqlite3.connect(f"file:{retail_sqlite}?mode=ro", uri=True)
    try:
        assert conn.execute(fixed).fetchall() == conn.execute(sql).fetchall() != []
    finally:
        conn.close()
    assert (fixed, report) == (sql, CorrectionReport())


# ----- simplified-side repair -----


def test_simplified_chain_repair(retail_db):
    simp = simplify_schema(retail_db)
    fixed, _ = correct_identifiers_simplified(
        "SELECT custmer.nmae FROM retail", simp
    )
    assert fixed == "SELECT customer.name FROM retail"


@pytest.mark.parametrize("sql, repaired", [
    ("SELECT customer.name FROM retial", "SELECT customer.name FROM retail"),
    # A quoted name keeps its quotes, as on the table side.
    ("SELECT customer.name FROM `retial`", "SELECT customer.name FROM `retail`"),
    ("SELECT customer.name FROM [retial]", "SELECT customer.name FROM [retail]"),
    # A double-quoted name may be a string: it is left alone and not
    # reported. A chain is repaired whole and written bare.
    ('SELECT customer.name FROM "retial"', 'SELECT customer.name FROM "retial"'),
    ('SELECT "customer".nmae FROM retail', "SELECT customer.name FROM retail"),
], ids=["bare", "backticks", "brackets", "double-quoted", "double-quoted-chain"])
def test_simplified_virtual_table_repair(retail_db, sql, repaired):
    simp = simplify_schema(retail_db)
    fixed, report = correct_identifiers_simplified(sql, simp)
    assert (fixed, report.unresolved) == (repaired, ())


def test_simplified_bare_names_left_alone(retail_db):
    simp = simplify_schema(retail_db)
    sql = "SELECT garbage FROM retail"
    fixed, _ = correct_identifiers_simplified(sql, simp)
    assert fixed == sql


def test_simplified_gold_queries_are_fixed_points():
    schemas = {"retail": retail_schema(), "academic": academic_schema()}
    for db_id, _, _, simplified in SPIDER_CASES:
        if simplified is None:
            continue
        simp = simplify_schema(schemas[db_id])
        fixed, report = correct_identifiers_simplified(simplified, simp)
        assert fixed == simplified
        assert not report.substitutions


# ----- repair vocabulary held on the schema objects -----


def test_repair_is_the_same_on_cold_and_warm_schemas():
    rng = random.Random(SEED)
    schemas = {"retail": retail_schema(), "academic": academic_schema()}
    flat_cases = []
    for db_id, _, _, simplified in SPIDER_CASES:
        if simplified is not None:
            db = schemas[db_id]
            broken = perturb(simplified, rng, schema_idents(db) | {db_id})
            flat_cases.append((db, broken))

    def cold(db):
        return DatabaseSchema(db.db_id, db.tables, db.foreign_keys)

    for db, _, broken in SUITE:
        warm = correct_identifiers(broken, db)
        fresh = cold(db)
        assert correct_identifiers(broken, fresh) == warm
        assert correct_identifiers(broken, fresh) == warm
    for db, broken in flat_cases:
        warm = correct_identifiers_simplified(broken, simplify_schema(db))
        fresh = cold(db)
        assert correct_identifiers_simplified(broken, simplify_schema(fresh)) == warm
        assert correct_identifiers_simplified(broken, simplify_schema(fresh)) == warm
    assert sum(bool(correct_identifiers_simplified(b, simplify_schema(db))[1].substitutions)
               for db, b in flat_cases) >= 20


def test_open_book_pool_repairs_against_its_own_names():
    retail = retail_schema()
    branch = DatabaseSchema("branch", retail.tables, retail.foreign_keys)
    catalogue = {"retail": retail, "branch": branch}
    correct_identifiers("SELECT nmae FROM custmer", retail)  # warm the source schema
    pool = assemble_pool([("retail", "customer", 0.9), ("branch", "customer", 0.8),
                          ("retail", "orders", 0.7)], catalogue)
    assert sorted(t.name for t in pool.tables) == ["customer", "customer__branch", "orders"]
    fixed, report = correct_identifiers(
        "SELECT customer__brnch.nmae FROM customer__brnch", pool)
    assert fixed == "SELECT customer__branch.name FROM customer__branch"
    assert report.unresolved == ()
    _, report = correct_identifiers("SELECT name FROM customer__branch", retail)
    assert report.unresolved == ("customer__branch",)


# ----- edit distance against an independent implementation -----


def _packed(names):
    return PackedNames((name, name) for name in names)


def _distances(token, names):
    """``levenshtein``'s distance from ``token`` to each of ``names``, read lane by lane."""
    packed = _packed(names)
    found = levenshtein(token, packed)
    return [packed.lane(found, k) for k in range(len(names))]


def test_levenshtein_known_values():
    assert _distances("kitten", ["sitting", "kitten", "", "sitten", "kitten"]) == [3, 0, 6, 1, 0]
    assert _distances("", ["abc", ""]) == [3, 0]
    assert _distances("abc", ["abc"]) == [0]
    assert _distances("abc", []) == []


# A small alphabet repeats characters. Two of them are not ASCII; the
# rest are characters a packed layout might take for a lane separator
# or read back as a bit ("\n", "\0", " ", "0", "1"). Long strings (past
# 64 characters) take a lane past one machine word. A lane is a whole
# number of bytes with a bit above its list's longest name, so a name of
# 8k - 1 characters fills its lane when it is the longest.
_CHARS = "ab_zé日\n\0 01"
_short = st.text(alphabet=_CHARS, max_size=8)
_strings = _short | st.text(alphabet=_CHARS, min_size=65, max_size=80)


def _filling(*sizes):
    """Names of one of ``sizes``, each 8k - 1 characters."""
    return st.sampled_from(sizes).flatmap(
        lambda size: st.text(alphabet=_CHARS, min_size=size, max_size=size))


_lane_filling = _filling(7, 15, 23, 63, 71)


def _longer_than_twice(draw, names):
    """A token over twice as long as the longest of ``names``."""
    size = 2 * max(map(len, names), default=0) + 1
    return draw(st.text(alphabet=_CHARS, min_size=size, max_size=size + 8))


@st.composite
def near(draw, word):
    """``word`` after up to four random edits."""
    chars = list(word)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(("sub", "ins", "del")))
        if op == "ins":
            chars.insert(pos, draw(st.sampled_from(_CHARS)))
        elif pos < len(chars):
            if op == "sub":
                chars[pos] = draw(st.sampled_from(_CHARS))
            else:
                del chars[pos]
    return "".join(chars)


@st.composite
def distance_cases(draw):
    """(token, names): 0, 1, a few or hundreds of names, each either
    independent of the token or a few edits away from it, duplicates,
    empty names and names that fill their lane included. Sometimes the
    token is over twice the longest name. With hundreds of names the
    token and names are short, so the recursive oracle stays fast."""
    size = draw(st.sampled_from((0, 1, 3, 8, 300)))
    if size > 8:
        pool = _short | st.just("") | _filling(7)
    else:
        pool = _strings | st.just("") | _lane_filling
    token = draw(pool)
    names = draw(st.lists(pool | near(token), min_size=size, max_size=size))
    if names and draw(st.booleans()):
        names.append(draw(st.sampled_from(names)))
    if draw(st.booleans()):
        token = _longer_than_twice(draw, names)
    return token, names


@settings(deadline=None)
@given(distance_cases())
@example(("", []))
@example(("ab", [""]))
@example(("a\nb", ["a\nb", "a\0b", "a b", "a", "", "a\nb"]))
@example(("a" * 70, ["a" * 65, "b" * 70, "a" * 140, " " * 3]))
@example(("abc", ["", "", ""]))
@example(("a" * 7, ["a" * 7]))
@example(("ab" * 8, ["b" * 15, "", "a" * 15]))
@example(("a" * 130, ["a" * 63, "ab"]))
@example(("a" * 300, ["a" * 256, "a"]))
@example(("ab" * 150, ["b", "", "ab"]))
def test_levenshtein_matches_recursive_oracle(case):
    token, names = case
    want = [slow_levenshtein(token, name) for name in names]
    assert _distances(token, names) == want
    assert [banded_levenshtein(token, name) for name in names] == want


# ----- candidate search against an exhaustive one -----

# Names come from a small pool, so lists often hold several candidates
# with the same lower-case name; canonical names are unique per entry, so
# the test sees which of them was chosen. Up to 60 entries of up to 100
# characters span many machine words. Each entry is (lower, owner): the
# owner is the table of the list the entry falls in, None or a name that
# the query may reference. Runs of one owner make the lists, in order.
_OWNERS = (None, "a", "b")
_short_names = st.just("") | st.text(alphabet=_CHARS, max_size=7) | _filling(7, 15)
_names = _short_names | _lane_filling | st.text(alphabet=_CHARS, min_size=60, max_size=100)


@st.composite
def search_cases(draw):
    """(token, entries), with one-lane lists, empty names and names that
    fill their lane among the entries. The token is drawn on its own, or
    over twice the longest name; then the names are short, so the
    exhaustive search stays fast."""
    long_token = draw(st.booleans())
    pool = draw(st.lists(_short_names if long_token else _names, min_size=1, max_size=5))
    entries = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(_OWNERS)),
                            max_size=60))
    token = _longer_than_twice(draw, pool) if long_token else draw(_strings)
    return token, entries


@settings(deadline=None)
@given(search_cases(), st.sets(st.sampled_from(_OWNERS[1:])))
@example(("", [("", None)]), set())
@example(("ab", [("", "a"), ("ab", "b"), ("", "a")]), {"a"})
@example(("a" * 7, [("a" * 7, None), ("a" * 7, None)]), set())
@example(("a" * 15, [("a" * 7, "a"), ("a" * 15, "b"), ("a" * 15, "a")]), {"b"})
@example(("abzz", [("ab", None)]), set())  # the longest token a name is within threshold of
def test_best_matches_exhaustive_search(case, referenced):
    token, entries = case
    lanes = [(lower, f"{lower.upper()}#{i}", owner) for i, (lower, owner) in enumerate(entries)]
    lists = [PackedNames([(lower, canonical) for lower, canonical, _ in run], owner)
             for owner, run in itertools.groupby(lanes, key=lambda lane: lane[2])]
    triples = [(lower, canonical, owner in referenced) for lower, canonical, owner in lanes]
    assert _best(token, lists, referenced) == slow_best(token, triples)


# ----- packed names held on the schema objects -----


def _wide_schema():
    """20 tables of 25 columns, names spread over many characters."""
    rng = random.Random(SEED)
    tables = []
    for t in range(20):
        words = {"".join(rng.choice(LETTERS + "_") for _ in range(rng.randint(4, 14)))
                 for _ in range(40)}
        columns = sorted(words)[:25]
        tables.append(TableDef(f"table_{t}_" + columns[0], tuple(ColumnDef(c) for c in columns)))
    return DatabaseSchema("wide", tuple(tables))


def _wide_chain_queries(db, count):
    """Near-miss "table.column" chains of ``db``, one per query."""
    rng = random.Random(SEED + 1)
    queries = []
    for _ in range(count):
        table = rng.choice(db.tables)
        column = rng.choice(table.columns).name
        chain = mutate(f"{table.name}.{column}", rng, rng.choice((1, 2)))
        queries.append(f"SELECT {chain} FROM {db.db_id}")
    return queries


def test_repeated_searches_reuse_the_views_packed_names():
    db = _wide_schema()
    view = simplify_schema(db)
    (query,) = _wide_chain_queries(db, 1)
    chain = query.split()[1].lower()
    first = correct_identifiers_simplified(query, view)
    packed = view.packed_entries
    held = {ch: packed.mask(ch) for ch in chain}
    assert correct_identifiers_simplified(query, view) == first
    assert view.packed_entries is packed
    assert all(packed.mask(ch) is bits for ch, bits in held.items())
    # The same view comes back for equal descriptions, packed names and all.
    assert simplify_schema(db, {}).packed_entries is packed


def test_other_views_and_schemas_pack_their_own_names():
    db = _wide_schema()
    packed = simplify_schema(db).packed_entries
    described = simplify_schema(db, {db.tables[0].name + "." + db.tables[0].columns[0].name: "x"})
    twin = DatabaseSchema(db.db_id, db.tables, db.foreign_keys)
    assert described.packed_entries is not packed
    assert simplify_schema(twin).packed_entries is not packed
    assert twin.packed_tables is not db.packed_tables
    assert all(twin.packed_columns[t] is not db.packed_columns[t] for t in db.packed_columns)


WIDE = _wide_schema()
WIDE_VIEW = simplify_schema(WIDE)
_TOKENS = st.text(alphabet=LETTERS + "_.0é", max_size=30)


@settings(deadline=None)
@given(st.lists(_TOKENS, min_size=1, max_size=5))
def test_picks_from_held_masks_equal_picks_from_fresh_masks(tokens):
    held = [[WIDE_VIEW.packed_entries], [WIDE.packed_tables], list(WIDE.packed_columns.values())]
    for token in tokens:
        for lists in held:
            fresh = [PackedNames(zip(p.names, p.canonical), p.owner) for p in lists]
            assert _best(token, lists) == _best(token, fresh)


def test_threads_searching_one_view_pick_as_a_sequential_run():
    db = _wide_schema()
    queries = _wide_chain_queries(db, 40)
    sequential = simplify_schema(_wide_schema())
    want = [correct_identifiers_simplified(q, sequential) for q in queries]
    assert sum(bool(report.substitutions) for _, report in want) >= 30
    view = simplify_schema(db)  # no mask built yet: the threads race to build them
    start = threading.Barrier(4)
    got = [None] * 4

    def search(k):
        start.wait(timeout=30)
        got[k] = [correct_identifiers_simplified(q, view) for q in queries]

    threads = [threading.Thread(target=search, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 4


# ----- repair rewrites identifier spans only, and is a fixed point -----

RETAIL = retail_schema()
RETAIL_TABLES = sorted(t.name for t in RETAIL.tables)
RETAIL_COLUMNS = sorted({c.name for t in RETAIL.tables for c in t.columns})


@st.composite
def near_miss(draw, names):
    """A schema name with up to two random edits, in a random quoting."""
    word = draw(st.sampled_from(names))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        pos = draw(st.integers(min_value=1, max_value=len(word) - 1))
        ch = draw(st.sampled_from(LETTERS))
        op = draw(st.sampled_from(("sub", "ins", "del")))
        if op == "sub":
            word = word[:pos] + ch + word[pos + 1:]
        elif op == "ins":
            word = word[:pos] + ch + word[pos:]
        elif len(word) > 3:
            word = word[:pos] + word[pos + 1:]
    if word.lower() in KEYWORDS:
        word = names[0]
    opener = draw(st.sampled_from(("", "", "", "`", "[", '"')))
    closer = {"": "", "`": "`", "[": "]", '"': '"'}[opener]
    return f"{opener}{word}{closer}"


@st.composite
def noisy_queries(draw):
    table = near_miss(RETAIL_TABLES)
    column = near_miss(RETAIL_COLUMNS)
    t1, t2 = draw(table), draw(table)
    alias = draw(st.booleans())
    q1, q2 = ("T1", "T2") if alias else (t1, t2)

    def col_ref():
        qualifier = draw(st.sampled_from((None, q1, q2)))
        name = draw(column)
        return name if qualifier is None else f"{qualifier}.{name}"

    sql = f"SELECT {col_ref()}, count(*) FROM {t1}"
    if alias:
        sql += " AS T1"
    if draw(st.booleans()):
        sql += f" JOIN {t2}" + (" AS T2" if alias else "")
        sql += f" ON {q1}.{draw(column)} = {q2}.{draw(column)}"
    if draw(st.booleans()):
        literal = draw(st.sampled_from(RETAIL_COLUMNS + RETAIL_TABLES))
        sql += f" WHERE {col_ref()} = '{literal}'"
    if draw(st.booleans()):
        sql += f" GROUP BY {col_ref()} ORDER BY {col_ref()} DESC"
    return sql


@given(noisy_queries())
def test_repair_rewrites_only_identifier_spans_and_is_idempotent(sql):
    fixed, _ = correct_identifiers(sql, RETAIL)
    before, after = tokenize(sql), tokenize(fixed)
    assert len(before) == len(after)
    prev_b = prev_a = 0
    for b, a in zip(before, after):
        assert (b.kind, b.quote) == (a.kind, a.quote)
        # Text between tokens (whitespace) is untouched.
        assert sql[prev_b:b.start] == fixed[prev_a:a.start]
        if b.value != a.value:
            assert b.kind in (IDENT, QIDENT) and b.quote != '"'
        prev_b, prev_a = b.end, a.end
    assert sql[prev_b:] == fixed[prev_a:]
    again, report = correct_identifiers(fixed, RETAIL)
    assert again == fixed
    assert not report.substitutions


# ----- CAST types and arithmetic operands -----


def test_cast_target_type_is_never_repaired():
    db = DatabaseSchema(
        "shop", (TableDef("orders", (ColumnDef("price"), ColumnDef("tax"))),), ()
    )
    sql = "SELECT CAST(price AS TEXT), CAST(price AS REAL) FROM orders WHERE CAST(tax AS INTEGER) > 1"
    fixed, report = correct_identifiers(sql, db)
    assert fixed == sql
    assert report.unresolved == ()


def test_operand_after_multiplication_is_repaired(retail_db):
    fixed, _ = correct_identifiers(
        "SELECT product.name FROM product, item WHERE price * quantty > 3", retail_db
    )
    assert fixed == "SELECT product.name FROM product, item WHERE price * quantity > 3"


# ----- names with letters outside ASCII -----


def _cafe_db():
    return DatabaseSchema("shop", (TableDef("t", (ColumnDef("café"), ColumnDef("prix"))),), ())


def test_non_ascii_name_left_alone_and_runs_on_sqlite():
    db = _cafe_db()
    sql = "SELECT café FROM t"
    fixed, report = correct_identifiers(sql, db)
    assert fixed == sql
    assert report.substitutions == () and report.unresolved == ()
    assert "t.café" in extract_refs(sql, db).columns
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (café, prix)")
        conn.execute("INSERT INTO t VALUES (1, 2)")
        assert conn.execute(sql).fetchall() == [(1,)]
    finally:
        conn.close()


def test_ascii_spelling_repaired_to_non_ascii_name():
    fixed, report = correct_identifiers("SELECT cafe FROM t", _cafe_db())
    assert fixed == "SELECT café FROM t"
    assert report.substitutions[0].replacement == "café"
