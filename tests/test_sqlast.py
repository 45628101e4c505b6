import hashlib
import json
import random
import re
import sqlite3
from collections import Counter
from dataclasses import fields, is_dataclass

import pytest

from unjoin.correction import _CLAUSE_KEYWORDS
from unjoin.evaluation import has_top_level_order_by
from unjoin.sqlast import (
    _ALIAS_STOPS,
    _CLAUSE_RESET,
    _CLAUSE_STOPS,
    DerivedSource,
    SelectStatement,
    SqlParseError,
    TableSource,
    _Roles,
    parse,
)
from unjoin.sqlref import resolve_refs
from unjoin.tokens import Token, TokenizeError, tokenize

from conftest import BIRD_CASES, SPIDER_CASES, academic_schema, retail_schema
from oracles import tokenizing_order_by
from test_correction import FRONT_END_REPAIRS, SUITE
from test_sqlref import CASES, SQLITE_FORMS


def only_block(sql):
    stmt = parse(sql)
    assert len(stmt.blocks) == 1
    return stmt.blocks[0]


def test_minimal_select():
    block = only_block("SELECT a FROM t")
    assert len(block.items) == 1
    assert block.items[0].alias is None
    assert not block.items[0].is_star
    assert block.sources == [TableSource("t", None)]


def test_explicit_and_implicit_aliases():
    block = only_block("SELECT a AS x, b y FROM t AS u JOIN v w ON u.id = w.id")
    assert [it.alias for it in block.items] == ["x", "y"]
    assert block.sources[0] == TableSource("t", "u")
    assert block.sources[1] == TableSource("v", "w")
    assert len(block.exprs) == 1


def test_star_items():
    block = only_block("SELECT *, t.* FROM t")
    assert block.items[0].is_star and block.items[0].star_qualifier is None
    assert block.items[1].is_star and block.items[1].star_qualifier == "t"


def test_count_star_is_not_a_star_item():
    block = only_block("SELECT count(*) FROM t")
    assert not block.items[0].is_star


def test_function_call_not_mistaken_for_alias():
    block = only_block("SELECT max(price) FROM product")
    assert block.items[0].alias is None


def test_cast_as_type_is_not_an_alias():
    block = only_block("SELECT CAST(a AS INTEGER) FROM t")
    assert block.items[0].alias is None


def test_case_end_allows_trailing_alias():
    block = only_block("SELECT CASE WHEN a > 0 THEN 1 ELSE 0 END flag FROM t")
    assert block.items[0].alias == "flag"


def test_where_group_having_order_limit_captured():
    block = only_block(
        "SELECT a, count(*) FROM t WHERE b > 1 GROUP BY a HAVING count(*) > 2 "
        "ORDER BY a DESC LIMIT 5 OFFSET 2"
    )
    # One run per clause in text order; OFFSET joins the LIMIT run.
    assert [[t.value for t in run] for run in block.exprs] == [
        ["b", ">", "1"],
        ["a"],
        ["count", "(", "*", ")", ">", "2"],
        ["a", "DESC"],
        ["5", "2"],
    ]


def test_join_chain_collects_all_sources():
    block = only_block(
        "SELECT 1 FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y, d"
    )
    assert [s.name for s in block.sources] == ["a", "b", "c", "d"]
    assert len(block.exprs) == 2


def test_using_columns_recorded_as_join_condition():
    block = only_block("SELECT 1 FROM a JOIN b USING (x, y)")
    assert len(block.exprs) == 1
    assert [t.value for t in block.exprs[0]] == ["x", "y"]


def _sqlite_rejects(sql):
    con = sqlite3.connect(":memory:")
    try:
        con.executescript("CREATE TABLE a (x, y); CREATE TABLE b (x, y);")
        with pytest.raises(sqlite3.OperationalError):
            con.execute(sql)
    finally:
        con.close()


def test_using_list_is_read_as_a_run():
    # A parenthesized name inside the list is read as the run reads it.
    sql = "SELECT 1 FROM a JOIN b USING (x, (y))"
    assert [t.value for t in only_block(sql).exprs[0]] == ["x", "y"]
    _sqlite_rejects(sql)


@pytest.mark.parametrize("sql, message", [
    # A clause word ends the run before the list closes.
    ("SELECT 1 FROM a JOIN b USING (x where)", "expected ')', got 'where' (offset 32)"),
    ("SELECT 1 FROM a JOIN b USING (x", "expected ')', got 'end of input'"),
    ("SELECT 1 FROM a JOIN b USING (x, y", "expected ')', got 'end of input'"),
])
def test_using_list_that_does_not_close_is_a_parse_error(sql, message):
    with pytest.raises(SqlParseError) as info:
        parse(sql)
    assert str(info.value) == message
    _sqlite_rejects(sql)


def test_parenthesized_join_group_flattens_into_scope():
    block = only_block("SELECT 1 FROM (a JOIN b ON a.x = b.x) JOIN c ON b.y = c.y")
    assert [s.name for s in block.sources] == ["a", "b", "c"]


def test_derived_table_with_alias():
    block = only_block("SELECT d.n FROM (SELECT name AS n FROM t) AS d")
    src = block.sources[0]
    assert isinstance(src, DerivedSource)
    assert src.alias == "d"
    assert isinstance(src.select, SelectStatement)


def test_db_qualified_table_keeps_table_part():
    block = only_block("SELECT 1 FROM main.customer")
    assert block.sources[0].name == "customer"


def test_subquery_in_where_is_spliced_into_expr():
    block = only_block("SELECT a FROM t WHERE a IN (SELECT b FROM u)")
    assert any(isinstance(piece, SelectStatement) for piece in block.exprs[0])


def test_cte_parsed_and_named():
    stmt = parse("WITH recent AS (SELECT a FROM t) SELECT * FROM recent")
    assert [name for name, _ in stmt.ctes] == ["recent"]
    assert isinstance(stmt.ctes[0][1], SelectStatement)


def test_cte_declared_column_list_is_tolerated():
    stmt = parse("WITH r(x, y) AS (SELECT a, b FROM t) SELECT x FROM r")
    assert [name for name, _ in stmt.ctes] == ["r"]


def test_cte_without_as_rejected():
    with pytest.raises(SqlParseError, match="expected AS in WITH clause"):
        parse("WITH a (SELECT 1) SELECT 1")


def test_implicit_alias_after_scalar_subquery():
    [item] = only_block("SELECT (SELECT max(x) FROM u) m FROM t").items
    assert item.alias == "m"
    assert [type(piece) for piece in item.expr] == [SelectStatement]


def test_word_sets_each_reader_splits_on():
    # Built from the three word classes; a change to a class shows here.
    assert _CLAUSE_STOPS == set(
        "where group having order limit offset union intersect except on using "
        "join left right full inner cross natural from".split())
    assert _ALIAS_STOPS == _CLAUSE_STOPS | set(
        "outer and or not in is as when then else end set values".split())
    assert _CLAUSE_RESET == set(
        "where select group having order limit offset union intersect except values set".split())
    assert _CLAUSE_KEYWORDS.names == tuple(sorted(
        "select from where group order having limit offset union intersect except join".split()))


def test_union_produces_two_blocks():
    stmt = parse("SELECT a FROM t UNION SELECT b FROM u")
    assert len(stmt.blocks) == 2


def test_union_all_and_intersect_and_except():
    for op in ("UNION ALL", "INTERSECT", "EXCEPT"):
        stmt = parse(f"SELECT a FROM t {op} SELECT b FROM u")
        assert len(stmt.blocks) == 2, op


def test_parenthesized_compound_operand_nests():
    stmt = parse("(SELECT a FROM t) UNION SELECT b FROM u")
    assert isinstance(stmt.blocks[0], SelectStatement)


def test_trailing_semicolon_tolerated():
    assert parse("SELECT 1;").blocks


def test_garbage_after_statement_rejected():
    with pytest.raises(SqlParseError):
        parse("SELECT 1; SELECT 2")


def test_unbalanced_parens_rejected():
    with pytest.raises(SqlParseError):
        parse("SELECT a FROM (SELECT b FROM t")


def test_missing_from_target_rejected():
    with pytest.raises(SqlParseError):
        parse("SELECT a FROM WHERE b = 1")


@pytest.mark.parametrize("sql, message", [
    ("SELECT 1 FROM", "expected table name"),
    ("SELECT name FROM customer GROUP name", "expected BY (offset 32)"),
])
def test_parse_error_says_what_it_expected(sql, message):
    with pytest.raises(SqlParseError) as info:
        parse(sql)
    assert str(info.value) == message


def test_cast_without_a_paren_is_a_plain_word():
    # SQLite rejects the query; the parser keeps CAST as a word of its item.
    [item] = only_block("SELECT CAST x FROM t").items
    assert ([t.value for t in item.expr], item.alias) == (["CAST", "x"], None)


def test_not_a_select_rejected():
    with pytest.raises(SqlParseError):
        parse("INSERT INTO t VALUES (1)")


def test_keyword_does_not_become_implicit_alias():
    block = only_block("SELECT a FROM t WHERE b = 1")
    assert block.sources[0].alias is None


def test_order_by_inside_subquery_stays_inner():
    block = only_block(
        "SELECT x FROM (SELECT a AS x FROM t ORDER BY a LIMIT 3) AS d"
    )
    assert not block.exprs
    inner = block.sources[0].select.blocks[0]
    assert [[t.value for t in run] for run in inner.exprs] == [["a"], ["3"]]


def test_is_distinct_from_stays_in_its_clause():
    block = only_block("SELECT a FROM t WHERE a IS NOT DISTINCT FROM b ORDER BY a")
    assert [[t.value for t in run] for run in block.exprs] == [
        ["a", "IS", "NOT", "DISTINCT", "FROM", "b"],
        ["a"],
    ]


@pytest.mark.parametrize("sql, alias", [
    ("SELECT 1 FROM t INDEXED BY i", None),
    ("SELECT 1 FROM t AS u INDEXED BY i", "u"),
    ("SELECT 1 FROM t u NOT INDEXED", "u"),
    # Without BY, INDEXED is an alias.
    ("SELECT 1 FROM t indexed", "indexed"),
])
def test_index_hint_is_read_after_the_alias(sql, alias):
    assert only_block(sql).sources == [TableSource("t", alias)]


def _blocks(node):
    """Every select block of a parsed statement, nested ones included."""
    if isinstance(node, SelectStatement):
        for _, body in node.ctes:
            yield from _blocks(body)
        for operand in node.blocks:
            yield from _blocks(operand)
        return
    yield node
    for src in node.sources:
        if isinstance(src, DerivedSource):
            yield from _blocks(src.select)
    for run in [item.expr for item in node.items] + node.exprs:
        for piece in run:
            if isinstance(piece, SelectStatement):
                yield from _blocks(piece)


AGREEMENT_CORPUS = (
    [case[1] for case in CASES]
    + [sql for _, gold, broken in SUITE for sql in (gold, broken)]
    + [case[2] for case in SPIDER_CASES] + [case[3] for case in SPIDER_CASES if case[3]]
    + [case[3] for case in BIRD_CASES] + [case[4] for case in BIRD_CASES if case[4]]
    + [sql for pair in FRONT_END_REPAIRS for sql in pair]
    + SQLITE_FORMS
)


def test_parser_and_role_scan_agree_on_sources():
    # Wherever the parser reads a query, the role scan finds the same FROM
    # tables and defines every source alias the parser reads.
    accepted, disagreements = 0, []
    for sql in AGREEMENT_CORPUS:
        try:
            stmt = parse(sql)
        except SqlParseError:
            continue
        accepted += 1
        sources = [src for block in _blocks(stmt) for src in block.sources]
        tables = Counter(src.name.lower() for src in sources if isinstance(src, TableSource))
        aliases = {src.alias.lower() for src in sources if src.alias}
        toks = tokenize(sql)
        roles = _Roles(toks)
        scanned = Counter(toks[i].lower for i in roles.tables)
        if tables != scanned or not aliases <= set(roles.alias_defs):
            disagreements.append(sql)
    assert accepted >= 200
    assert disagreements == []


def test_order_by_flag_matches_the_depth_scan_on_the_corpus():
    ordered = 0
    for sql in AGREEMENT_CORPUS:
        try:
            stmt = parse(sql)
        except SqlParseError:
            continue
        flag = has_top_level_order_by(stmt)
        assert flag == tokenizing_order_by(sql), sql
        ordered += flag
    assert ordered >= 20


def test_resolving_a_statement_leaves_it_unchanged():
    # filter_items shares one parse among the items that carry the same
    # gold text, each resolved against its own schema; that is sound only
    # while resolution reads the statement and never writes it.
    schemas = (retail_schema(), academic_schema())
    resolved = 0
    for sql in AGREEMENT_CORPUS:
        try:
            stmt = parse(sql)
        except SqlParseError:
            continue
        for db in schemas:
            resolve_refs(stmt, db)
        assert stmt == parse(sql), sql
        resolved += 1
    assert resolved >= 200


# A seeded corpus of token soups pins every list the role scan returns.
# Soups mix the syntax the scan tracks (parens, FROM lists, CTEs, CAST,
# syntax words, index hints, keyword aliases) in any order, so they
# reach states no well-formed query does. A change to how the scan keeps
# its state must leave the digest as it is.
SOUP_SEED = 20261020
SOUP_COUNT = 5000
SOUP_VOCABULARY = (
    "( ) , . *".split()
    + "FROM JOIN LEFT ON USING WITH RECURSIVE AS CAST SELECT WHERE GROUP BY ORDER "
      "HAVING UNION VALUES SET CASE END".split()
    + "IS DISTINCT COLLATE ASC NULLS FIRST INDEXED NOT".split()
    + "row filter".split()
    + "a b t customer name".split()
    + ['"q"', "`b`", "[c]", "'s'", "1", "2.5"]
)
ROLE_SCAN_PIN = "937a1bfa53ed35cc500b4616cdaec6a083431d9df2ff49bba6468e4f9ef1c537"


def soups() -> list[str]:
    rng = random.Random(SOUP_SEED)
    return [" ".join(rng.choice(SOUP_VOCABULARY) for _ in range(rng.randint(1, 25)))
            for _ in range(SOUP_COUNT)]


def _role_lists(sql):
    roles = _Roles(tokenize(sql))
    return [roles.tables, roles.chains, roles.qualifiers, roles.columns,
            sorted(roles.alias_defs.items()), roles.implicit_aliases, roles.stray_calls,
            sorted(roles.cte_names)]


def test_role_scan_outputs_are_pinned():
    text = json.dumps([_role_lists(sql) for sql in soups()], separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == ROLE_SCAN_PIN


# A seeded corpus of statements built from clause-sized fragments, with
# the soups and the agreement corpus, pins what the parser reads and what
# the resolver finds. The fragments reach every shape either branches on:
# subqueries in items, WHERE and FROM, CTEs with column lists, compound
# operands, CAST, syntax words, ``t.*``, keyword aliases such as ``row``,
# index hints and quoted keywords such as ``"as"``. A change to how a
# parsed run is read must leave the digest as it is.
PARSE_SEED = 20261027
PARSE_COUNT = 2000
_PARSE_FRAGMENTS = {
    "c": ("name", "city_id", "amount", "price", "status", "row", '"as"', "[name]",
          "c.name", "o.amount", "row.name", "main.customer.name", "missing"),
    "t": ("customer", "city", "orders", "product", "item", "main.customer", "r", "nowhere"),
    "item": (
        "*", "c.*", "customer.*", "row.*", "{c}", "{c} AS n", '{c} "as"', '{c} "as" city',
        '{c} AS "as"', "{c} row", "{c} n", "count(*) total", "count(DISTINCT {c})",
        "CAST({c} AS TEXT)", "CAST({c} AS TEXT) t", "CAST {c}", "CAST", "{c} COLLATE NOCASE",
        "{c} COLLATE NOCASE n", "CASE WHEN {c} > 1 THEN 1 ELSE 0 END flag", "price * quantity",
        "{s} m", "{s}", "{c} IS NOT DISTINCT FROM {c}", "'x' {c}", "1 AS",
    ),
    "source": (
        "{t}", "{t} c", "{t} AS row", "{t} row", '{t} "as"', "{t} INDEXED BY ix",
        "{t} c NOT INDEXED", "{t} AS o INDEXED BY ix", "{t} indexed", "{s} d", "{s} AS d", "{s}",
        "customer c JOIN orders o ON c.customer_id = o.customer_id",
        "city LEFT OUTER JOIN customer USING (city_id)",
        "(customer JOIN city ON customer.city_id = city.city_id)",
        "{t} CROSS JOIN {s} AS d", "orders, item",
    ),
    "where": (
        "{c} > 1", "{c} IN {s}", "EXISTS {s}", "{c} IS DISTINCT FROM 'x'",
        "{c} IS NOT DISTINCT FROM {c}", "{c} COLLATE NOCASE = 'a'", "CAST({c} AS REAL) > 2",
        "{c} BETWEEN 1 AND 2", "{c} = {s}", "{c} LIKE 'a%' AND {c} IS NULL", "NOT {c}",
        "row.{c} = 1", "{c} IN (1, 2)",
    ),
    "tail": (
        "", " GROUP BY {c}", " GROUP BY {c} HAVING count(*) > 1",
        " GROUP BY {c}, {c} HAVING {c} > {s}", " ORDER BY {c}",
        " ORDER BY {c} ASC NULLS FIRST", " ORDER BY 1 DESC NULLS LAST, {c} DESC",
        " ORDER BY {c} COLLATE NOCASE", " LIMIT 3", " ORDER BY {c} LIMIT 3 OFFSET 1",
        " GROUP {c}",
    ),
    "cte": ("", "", "", "", "WITH r AS {s} ", "WITH r(x, y) AS {s} ",
            "WITH RECURSIVE r AS {s}, q AS {s} "),
    "compound": ("{b}", "{b}", "{b}", "{b}", "{b} UNION {b}", "{b} UNION ALL {b}",
                 "{s} EXCEPT {b}", "{b} INTERSECT {s}"),
}


def _fragment(rng, kind, depth):
    def fill(match):
        slot = match.group(1)
        if slot == "s":
            return f"({_statement(rng, depth + 1)})" if depth < 1 else "(SELECT name FROM city)"
        if slot == "b":
            return _select_block(rng, depth)
        return rng.choice(_PARSE_FRAGMENTS[slot])
    return re.sub(r"\{([ctsb])\}", fill, rng.choice(_PARSE_FRAGMENTS[kind]))


def _select_block(rng, depth):
    items = ", ".join(_fragment(rng, "item", depth) for _ in range(rng.randint(1, 3)))
    text = "SELECT " + rng.choice(("", "DISTINCT ")) + items
    if rng.random() < 0.9:
        text += " FROM " + ", ".join(
            _fragment(rng, "source", depth) for _ in range(rng.randint(1, 2)))
    if rng.random() < 0.5:
        text += " WHERE " + _fragment(rng, "where", depth)
    return text + _fragment(rng, "tail", depth)


def _statement(rng, depth):
    return _fragment(rng, "cte", depth) + _fragment(rng, "compound", depth)


def parse_corpus() -> list[str]:
    rng = random.Random(PARSE_SEED)
    return [_statement(rng, 0) for _ in range(PARSE_COUNT)]


def _dump(node):
    """Node types, and each token's kind, value and start."""
    if isinstance(node, Token):
        return [node.kind, node.value, node.start]
    if is_dataclass(node):
        return [type(node).__name__] + [_dump(getattr(node, f.name)) for f in fields(node)]
    if isinstance(node, (list, tuple)):
        return [_dump(piece) for piece in node]
    return node


def _parse_result(sql, db):
    try:
        stmt = parse(sql)
    except (SqlParseError, TokenizeError) as exc:
        return [type(exc).__name__, str(exc)]
    refs = resolve_refs(stmt, db)
    return [_dump(stmt), sorted(refs.tables), sorted(refs.columns), sorted(refs.ambiguous),
            has_top_level_order_by(stmt)]


PARSE_PIN = "6bec7fd1aaffbff4a65d8ee47c85c452a0a7cf3ca9a37947700a18c900487278"


def test_parse_and_resolution_are_pinned():
    db = retail_schema()
    texts = AGREEMENT_CORPUS + soups() + parse_corpus()
    text = json.dumps([_parse_result(sql, db) for sql in texts], separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PARSE_PIN
