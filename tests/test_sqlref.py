"""Reference extraction against hand-derived expectations.

Each case in CASES was worked out by hand from the retail schema:
tables customer(customer_id, name, gender, city_id), city(city_id, name,
population), orders(order_id, customer_id, amount, status, order_date),
item(item_id, order_id, product_id, quantity), product(product_id, name,
price, category).
"""

import sqlite3

import pytest
from hypothesis import example, given, settings, strategies as st

from unjoin.schema import ColumnDef, DatabaseSchema, TableDef, simplify_schema
from unjoin.sqlref import (
    RefSet,
    extract_refs,
    extract_refs_simplified,
    resolve_refs,
)
from unjoin.sqlast import parse

from conftest import (
    FIXTURE_GOLDS,
    SPIDER_CASES,
    academic_schema,
    financial_schema,
    retail_schema,
    toy_shop_schema,
)

# (id, sql, tables, columns, ambiguous)
CASES = [
    ("alias-join",
     "SELECT T1.name, T2.amount FROM customer AS T1 JOIN orders AS T2 "
     "ON T1.customer_id = T2.customer_id",
     {"customer", "orders"},
     {"customer.name", "orders.amount", "customer.customer_id", "orders.customer_id"},
     set()),
    ("bare-columns-resolved-by-ownership",
     "SELECT gender, status FROM customer JOIN orders "
     "ON customer.customer_id = orders.customer_id",
     {"customer", "orders"},
     {"customer.gender", "orders.status", "customer.customer_id", "orders.customer_id"},
     set()),
    ("star-expands-both-tables",
     "SELECT * FROM customer JOIN city ON customer.city_id = city.city_id",
     {"customer", "city"},
     {"customer.customer_id", "customer.name", "customer.gender", "customer.city_id",
      "city.city_id", "city.name", "city.population"},
     set()),
    ("qualified-star-expands-one-table",
     "SELECT orders.* FROM customer JOIN orders "
     "ON customer.customer_id = orders.customer_id",
     {"customer", "orders"},
     {"orders.order_id", "orders.customer_id", "orders.amount", "orders.status",
      "orders.order_date", "customer.customer_id"},
     set()),
    ("count-star-does-not-expand",
     "SELECT count(*) FROM customer JOIN orders "
     "ON customer.customer_id = orders.customer_id",
     {"customer", "orders"},
     {"customer.customer_id", "orders.customer_id"},
     set()),
    ("in-subquery",
     "SELECT name FROM customer WHERE customer_id IN "
     "(SELECT customer_id FROM orders WHERE status = 'Pending')",
     {"customer", "orders"},
     {"customer.name", "customer.customer_id", "orders.customer_id", "orders.status"},
     set()),
    ("correlated-exists",
     "SELECT c.name FROM customer c WHERE EXISTS "
     "(SELECT 1 FROM orders o WHERE o.customer_id = c.customer_id)",
     {"customer", "orders"},
     {"customer.name", "orders.customer_id", "customer.customer_id"},
     set()),
    ("cte-columns-map-through",
     "WITH big AS (SELECT customer_id, amount FROM orders WHERE amount > 100) "
     "SELECT customer.name, big.amount FROM customer JOIN big "
     "ON customer.customer_id = big.customer_id",
     {"customer", "orders"},
     {"orders.customer_id", "orders.amount", "customer.name", "customer.customer_id"},
     set()),
    ("derived-aggregate-output-maps-to-nothing",
     "SELECT d.total FROM (SELECT customer_id, sum(amount) AS total "
     "FROM orders GROUP BY customer_id) AS d",
     {"orders"},
     {"orders.customer_id", "orders.amount"},
     set()),
    ("derived-passthrough-column",
     "SELECT d.customer_id FROM (SELECT customer_id FROM orders) AS d",
     {"orders"},
     {"orders.customer_id"},
     set()),
    ("self-join-qualified",
     "SELECT a.name, b.name FROM customer a JOIN customer b ON a.city_id = b.city_id",
     {"customer"},
     {"customer.name", "customer.city_id"},
     set()),
    ("self-join-bare-column-not-ambiguous",
     "SELECT gender FROM customer a JOIN customer b ON a.customer_id = b.customer_id",
     {"customer"},
     {"customer.gender", "customer.customer_id"},
     set()),
    ("ambiguous-bare-column-counts-both-owners",
     "SELECT name FROM customer JOIN product ON customer.customer_id = product.product_id",
     {"customer", "product"},
     {"customer.name", "product.name", "customer.customer_id", "product.product_id"},
     {"name"}),
    ("quoted-identifiers",
     'SELECT "customer"."name" FROM "customer" JOIN `orders` '
     'ON "customer".customer_id = `orders`.customer_id',
     {"customer", "orders"},
     {"customer.name", "customer.customer_id", "orders.customer_id"},
     set()),
    ("unknown-from-table-still-counted",
     "SELECT ghost.col FROM ghost",
     {"ghost"},
     {"ghost.col"},
     set()),
    ("stray-qualifier-still-counted",
     "SELECT customer.name, phantom.x FROM customer",
     {"customer", "phantom"},
     {"customer.name", "phantom.x"},
     set()),
    ("group-having-order",
     "SELECT city.name, count(*) FROM city JOIN customer "
     "ON city.city_id = customer.city_id GROUP BY city.name "
     "HAVING count(*) > 1 ORDER BY city.population DESC",
     {"city", "customer"},
     {"city.name", "city.city_id", "customer.city_id", "city.population"},
     set()),
    ("order-by-select-alias-swallowed",
     "SELECT count(*) AS n FROM orders GROUP BY status ORDER BY n DESC",
     {"orders"},
     {"orders.status"},
     set()),
    ("alias-shadows-table-name",
     "SELECT orders.name FROM customer AS orders",
     {"customer"},
     {"customer.name"},
     set()),
    ("scalar-subquery-in-select",
     "SELECT name, (SELECT max(amount) FROM orders "
     "WHERE orders.customer_id = customer.customer_id) FROM customer",
     {"customer", "orders"},
     {"customer.name", "orders.amount", "orders.customer_id", "customer.customer_id"},
     set()),
    ("union-counts-both-branches",
     "SELECT name FROM customer UNION SELECT name FROM product",
     {"customer", "product"},
     {"customer.name", "product.name"},
     set()),
    ("intersect-counts-both-branches",
     "SELECT city_id FROM city INTERSECT SELECT city_id FROM customer",
     {"city", "customer"},
     {"city.city_id", "customer.city_id"},
     set()),
    ("using-column-owned-by-both-sides",
     "SELECT quantity FROM item JOIN orders USING (order_id)",
     {"item", "orders"},
     {"item.quantity", "item.order_id", "orders.order_id"},
     {"order_id"}),
    ("three-part-chain-uses-last-two",
     "SELECT main.customer.name FROM customer",
     {"customer"},
     {"customer.name"},
     set()),
    ("function-names-skipped",
     "SELECT upper(name), length(status) FROM customer JOIN orders "
     "ON customer.customer_id = orders.customer_id",
     {"customer", "orders"},
     {"customer.name", "orders.status", "customer.customer_id", "orders.customer_id"},
     set()),
    ("case-when-scans-operands",
     "SELECT CASE WHEN amount > 100 THEN 'big' ELSE 'small' END FROM orders",
     {"orders"},
     {"orders.amount"},
     set()),
    ("arithmetic-across-tables",
     "SELECT product.price * item.quantity FROM product JOIN item "
     "ON product.product_id = item.product_id",
     {"product", "item"},
     {"product.price", "item.quantity", "product.product_id", "item.product_id"},
     set()),
    ("nested-subqueries-two-levels",
     "SELECT name FROM customer WHERE city_id IN (SELECT city_id FROM city "
     "WHERE population > (SELECT avg(population) FROM city))",
     {"customer", "city"},
     {"customer.name", "customer.city_id", "city.city_id", "city.population"},
     set()),
    ("star-over-derived-table",
     "SELECT * FROM (SELECT name, gender FROM customer) AS d",
     {"customer"},
     {"customer.name", "customer.gender"},
     set()),
    ("five-table-join",
     "SELECT city.name, sum(product.price * item.quantity) FROM city "
     "JOIN customer ON city.city_id = customer.city_id "
     "JOIN orders ON customer.customer_id = orders.customer_id "
     "JOIN item ON orders.order_id = item.order_id "
     "JOIN product ON item.product_id = product.product_id "
     "WHERE product.category = 'Electronics' GROUP BY city.name",
     {"city", "customer", "orders", "item", "product"},
     {"city.name", "product.price", "item.quantity", "city.city_id",
      "customer.city_id", "customer.customer_id", "orders.customer_id",
      "orders.order_id", "item.order_id", "item.product_id",
      "product.product_id", "product.category"},
     set()),
]


@pytest.mark.parametrize(
    "sql, tables, columns, ambiguous",
    [c[1:] for c in CASES],
    ids=[c[0] for c in CASES],
)
def test_extraction_matches_hand_derived_sets(retail_db, sql, tables, columns, ambiguous):
    refs = extract_refs(sql, retail_db)
    assert refs.tables == frozenset(tables)
    assert refs.columns == frozenset(columns)
    assert refs.ambiguous == frozenset(ambiguous)


def test_fixture_has_thirty_cases():
    assert len(CASES) == 30
    assert len({c[0] for c in CASES}) == 30


def test_every_column_owner_is_in_tables(retail_db):
    for _, sql, _, _, _ in CASES:
        refs = extract_refs(sql, retail_db)
        for col in refs.columns:
            assert col.split(".")[0] in refs.tables


def test_refset_rejects_column_without_table():
    with pytest.raises(ValueError):
        RefSet(frozenset({"a"}), frozenset({"b.x"}), frozenset())


def test_self_join_touches_one_table(retail_db):
    refs = extract_refs(
        "SELECT 1 FROM customer a JOIN customer b ON a.city_id = b.city_id",
        retail_db,
    )
    assert refs.tables == frozenset({"customer"})


def test_cast_target_type_is_not_a_column():
    db = DatabaseSchema(
        "shop", (TableDef("review", (ColumnDef("score"), ColumnDef("text"))),), ()
    )
    refs = extract_refs("SELECT CAST(score AS TEXT) FROM review", db)
    assert refs.columns == frozenset({"review.score"})
    refs = extract_refs(
        "SELECT CAST(CAST(score AS INTEGER) AS TEXT) FROM review", db
    )
    assert refs.columns == frozenset({"review.score"})


def test_multiplication_operand_is_not_an_alias(retail_db):
    refs = extract_refs("SELECT price * quantity FROM product, item", retail_db)
    assert refs.columns == frozenset({"product.price", "item.quantity"})



@pytest.mark.parametrize("alias", ["row", "filter", "range"])
def test_keyword_alias_qualifies_its_column(retail_db, alias):
    # SQLite takes these keywords as table aliases: row.name is customer's.
    refs = extract_refs(
        f"SELECT 1 FROM customer AS {alias}, city WHERE {alias}.name = 1", retail_db
    )
    assert refs.tables == frozenset({"customer", "city"})
    assert refs.columns == frozenset({"customer.name"})
    assert refs.ambiguous == frozenset()


# Forms SQLite 3.40.1 runs (with an index named customer_name_idx).
SQLITE_FORMS = [
    "SELECT name FROM customer WHERE gender IS DISTINCT FROM 'F'",
    "SELECT name FROM customer WHERE gender IS NOT DISTINCT FROM 'F'",
    "SELECT name FROM customer INDEXED BY customer_name_idx WHERE gender = 'F'",
    "SELECT c.name FROM customer AS c NOT INDEXED WHERE c.gender = 'F'",
]


@pytest.mark.parametrize("sql", SQLITE_FORMS)
def test_distinct_from_and_index_hints_resolve(retail_db, sql):
    refs = extract_refs(sql, retail_db)
    assert refs.tables == frozenset({"customer"})
    assert refs.columns == frozenset({"customer.name", "customer.gender"})
    assert refs.ambiguous == frozenset()


def sqlite_reads(db: DatabaseSchema, sql: str) -> RefSet:
    """The tables and columns SQLite's authorizer sees ``sql`` read, on empty tables of ``db``."""
    con = sqlite3.connect(":memory:")
    reads = set()

    def authorize(action, table, column, *_):
        if action == sqlite3.SQLITE_READ:
            reads.add((table.lower(), column.lower()))
        return sqlite3.SQLITE_OK

    try:
        for t in db.tables:
            con.execute(f'CREATE TABLE "{t.name}" ({", ".join(c.name for c in t.columns)})')
        con.set_authorizer(authorize)
        con.execute(sql).fetchall()
    finally:
        con.close()
    return RefSet(frozenset(t for t, _ in reads), frozenset(f"{t}.{c}" for t, c in reads if c))


_TXY = DatabaseSchema("d", (TableDef("t", (ColumnDef("x"), ColumnDef("y"))),))
_TY_UX = DatabaseSchema("d", (TableDef("t", (ColumnDef("y"),)), TableDef("u", (ColumnDef("x"),))))


@pytest.mark.parametrize("db, sql, tables, columns", [
    # A CTE is in scope in its own body: FROM a there is the CTE, not a table.
    (_TXY, "WITH a(n) AS (SELECT x FROM t UNION ALL SELECT n + 1 FROM a WHERE n < 3) "
           "SELECT n FROM a", {"t"}, {"t.x"}),
    # So a CTE that shadows a table reads no base table at all.
    (_TXY, "WITH t(x) AS (SELECT 5 UNION ALL SELECT x + 1 FROM t WHERE x < 7) SELECT x FROM t",
     set(), set()),
    (_TXY, "WITH RECURSIVE a(n) AS (SELECT x FROM t UNION ALL SELECT n + 1 FROM a WHERE n < 3), "
           "b AS (SELECT y FROM t) SELECT n FROM a, b", {"t"}, {"t.x", "t.y"}),
    # A double-quoted FROM alias qualifies its column.
    (_TXY, 'SELECT "q".x FROM t "q"', {"t"}, {"t.x"}),
    # A bare name after a scalar subquery is its alias, not a column.
    (_TY_UX, "SELECT (SELECT max(x) FROM u) m FROM t", {"t", "u"}, {"u.x"}),
])
def test_refs_match_what_sqlite_reads(db, sql, tables, columns):
    refs = extract_refs(sql, db)
    assert (refs.tables, refs.columns, refs.ambiguous) == (tables, columns, frozenset())
    assert refs == sqlite_reads(db, sql)


def test_star_of_an_unknown_qualifier_credits_it_as_a_table():
    # SQLite rejects the query; scoring charges the unknown name as a table.
    sql = "SELECT q.* FROM t"
    with pytest.raises(sqlite3.OperationalError, match="no such table: q"):
        sqlite_reads(_TXY, sql)
    assert extract_refs(sql, _TXY) == RefSet(frozenset({"t", "q"}), frozenset())


# ----- the table set depends on the statement only -----

_FIXTURE_SCHEMAS = (retail_schema(), academic_schema(), financial_schema(), toy_shop_schema())
# Names the fixture golds use, so a generated schema often has a table
# or column a gold names, and often lacks one.
_NAMES = sorted(
    {t.name for db in _FIXTURE_SCHEMAS for t in db.tables}
    | {c.name for db in _FIXTURE_SCHEMAS for t in db.tables for c in t.columns}
    | {"t", "x", "T1", "T2"}
)
_GOLD_TABLES = {gold: extract_refs(gold, retail_schema()).tables for gold in FIXTURE_GOLDS}


@st.composite
def generated_schemas(draw):
    unique_names = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=6,
                            unique_by=str.lower)
    tables = [
        TableDef(name, tuple(ColumnDef(c) for c in draw(unique_names)))
        for name in draw(unique_names)
    ]
    return DatabaseSchema("generated", tuple(tables))


@settings(max_examples=100, deadline=None)
@given(generated_schemas())
@example(retail_schema())
@example(academic_schema())
def test_fixture_golds_name_the_same_tables_under_any_schema(db):
    for gold in FIXTURE_GOLDS:
        assert resolve_refs(parse(gold), db).tables == _GOLD_TABLES[gold], gold


# ----- simplified-side extraction -----


def test_simplified_chains_resolve(retail_db):
    simp = simplify_schema(retail_db)
    refs, unresolved = extract_refs_simplified(
        "SELECT customer.name FROM retail WHERE orders.status = 'Pending'", simp
    )
    assert refs.tables == frozenset({"customer", "orders"})
    assert refs.columns == frozenset({"customer.name", "orders.status"})
    assert unresolved == ()


def test_simplified_unknown_chain_reported(retail_db):
    simp = simplify_schema(retail_db)
    refs, unresolved = extract_refs_simplified(
        "SELECT custmer.gender FROM retail", simp
    )
    assert "custmer.gender" in unresolved
    assert refs.columns == frozenset()


def test_simplified_three_part_chain(retail_db):
    simp = simplify_schema(retail_db)
    refs, unresolved = extract_refs_simplified(
        "SELECT retail.customer.name FROM retail", simp
    )
    assert refs.columns == frozenset({"customer.name"})
    assert unresolved == ()


def test_simplified_star_contributes_nothing(retail_db):
    simp = simplify_schema(retail_db)
    refs, unresolved = extract_refs_simplified("SELECT * FROM retail", simp)
    assert refs.tables == frozenset()
    assert refs.columns == frozenset()
    assert unresolved == ()


def test_simplified_gold_queries_resolve_within_their_gold_refs():
    schemas = {"retail": retail_schema(), "academic": academic_schema()}
    golds = [(db_id, gold, simp) for db_id, _, gold, simp in SPIDER_CASES if simp]
    assert len(golds) == 25
    for db_id, gold, simplified in golds:
        db = schemas[db_id]
        refs, unresolved = extract_refs_simplified(simplified, simplify_schema(db))
        assert unresolved == (), simplified
        assert refs.columns <= extract_refs(gold, db).columns, simplified


@pytest.mark.parametrize("sql", [
    "SELECT customer.name, COUNT(*) AS cnt FROM retail GROUP BY customer.name ORDER BY cnt",
    "SELECT customer.name FROM retail r WHERE orders.status = 'Pending'",
    "WITH pending AS (SELECT orders.order_id FROM retail WHERE orders.status = 'Pending') "
    "SELECT COUNT(*) FROM pending",
])
def test_simplified_aliases_and_cte_names_not_reported(retail_db, sql):
    _, unresolved = extract_refs_simplified(sql, simplify_schema(retail_db))
    assert unresolved == ()


def test_simplified_unresolved_in_text_order(retail_db):
    _, unresolved = extract_refs_simplified(
        "SELECT custmer.gender, garbage FROM retial WHERE ordrs.status = 'x'",
        simplify_schema(retail_db),
    )
    assert unresolved == ("custmer.gender", "garbage", "retial", "ordrs.status")
