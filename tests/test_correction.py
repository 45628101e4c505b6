"""Identifier repair: seeded perturbation suite plus targeted units.

The perturbation suite takes the 25 multi-table gold queries twice each,
injects 1-2 character edits into one schema identifier, and checks how
many come back exactly. Restoration can legitimately lose a few cases to
nearer candidates, so the bar is 90%; the structural invariants
(idempotence, only identifier tokens touched) must hold on all of them.
"""

import random

import pytest
from hypothesis import given, strategies as st

from unjoin.correction import (
    CorrectionReport,
    Substitution,
    _best,
    correct_identifiers,
    correct_identifiers_simplified,
    levenshtein,
)
from unjoin.schema import ColumnDef, DatabaseSchema, TableDef, simplify_schema
from unjoin.tokens import IDENT, KEYWORDS, QIDENT, tokenize

from conftest import SPIDER_CASES, academic_schema, retail_schema
from oracles import slow_best, slow_levenshtein

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
        assert not report.changed


def test_correction_is_idempotent_on_all_cases():
    for db, _, broken in SUITE:
        once, _ = correct_identifiers(broken, db)
        twice, report = correct_identifiers(once, db)
        assert twice == once
        assert not report.changed


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


def test_reported_substitutions_match_the_input():
    for db, _, broken in SUITE:
        _, report = correct_identifiers(broken, db)
        for sub in report.substitutions:
            assert broken[sub.position: sub.position + len(sub.original)] == sub.original
            assert sub.distance == levenshtein(sub.original.lower(), sub.replacement.lower())
            assert sub.distance > 0


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
    assert not report.changed


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


def test_report_changed_flag():
    report = CorrectionReport((), ())
    assert not report.changed
    report = CorrectionReport((Substitution("a", "b", 1, 0),), ())
    assert report.changed


# ----- simplified-side repair -----


def test_simplified_chain_repair(retail_db):
    simp = simplify_schema(retail_db)
    fixed, _ = correct_identifiers_simplified(
        "SELECT custmer.nmae FROM retail", simp
    )
    assert fixed == "SELECT customer.name FROM retail"


def test_simplified_virtual_table_repair(retail_db):
    simp = simplify_schema(retail_db)
    fixed, _ = correct_identifiers_simplified(
        "SELECT customer.name FROM retial", simp
    )
    assert fixed == "SELECT customer.name FROM retail"


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
        assert not report.changed


# ----- edit distance against an independent implementation -----


def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "abc") == 0


@given(
    st.text(alphabet="abcde", max_size=8),
    st.text(alphabet="abcde", max_size=8),
    st.none() | st.integers(min_value=0, max_value=6),
)
def test_levenshtein_matches_recursive_oracle(a, b, bound):
    exact = slow_levenshtein(a, b)
    if bound is None or exact <= bound:
        assert levenshtein(a, b, bound) == exact
    else:
        assert levenshtein(a, b, bound) == bound + 1


# ----- bounded candidate search against an exhaustive one -----

# Names come from a small pool, so lists often hold several candidates
# with the same lower-case name; canonical names are unique per entry, so
# the test sees which of them was chosen.
candidate_lists = st.lists(
    st.text(alphabet="abc_", min_size=1, max_size=7), min_size=1, max_size=5
).flatmap(
    lambda pool: st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=12)
).map(
    lambda entries: [
        (lower, f"{lower.upper()}#{i}", referenced)
        for i, (lower, referenced) in enumerate(entries)
    ]
)


@given(st.text(alphabet="abc_", max_size=7), candidate_lists)
def test_best_matches_exhaustive_search(token, candidates):
    assert _best(token, candidates) == slow_best(token, candidates)


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
    assert not report.changed


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
