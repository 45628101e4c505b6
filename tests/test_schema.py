import json
import logging

import pytest
from hypothesis import given, strategies as st

from unjoin.schema import (
    ColumnDef,
    DatabaseSchema,
    SchemaError,
    TableDef,
    load_catalogue,
    load_descriptions,
    simplify_schema,
)

from conftest import financial_schema, synthetic_6x10_schema


def test_entry_count_matches_column_total(retail_db):
    simp = simplify_schema(retail_db)
    assert len(simp.entries) == sum(len(t.columns) for t in retail_db.tables) == 20


def test_financial_has_54_entries(financial_db):
    assert len(simplify_schema(financial_db).entries) == 54


def test_synthetic_6x10_has_60_entries(synthetic_db):
    assert len(simplify_schema(synthetic_db).entries) == 60


def test_virtual_table_named_after_database(retail_db):
    assert simplify_schema(retail_db).name == "retail"


def test_entries_follow_table_then_column_order(retail_db):
    simp = simplify_schema(retail_db)
    expected = [
        f"{t.name}.{c.name}" for t in retail_db.tables for c in t.columns
    ]
    assert [e.rendered for e in simp.entries] == expected


def test_every_entry_maps_back_to_its_source(retail_db):
    simp = simplify_schema(retail_db)
    for entry in simp.entries:
        table = retail_db.find_table(entry.table)
        assert table is not None
        assert entry.column in {c.name for c in table.columns}
        assert simp.lookup(entry.rendered) is entry
        assert simp.lookup(entry.rendered.upper()) is entry


def test_simplify_is_deterministic(retail_db):
    a = simplify_schema(retail_db)
    b = simplify_schema(retail_db)
    assert [e.rendered for e in a.entries] == [e.rendered for e in b.entries]


def test_descriptions_attach_to_entries(retail_db):
    simp = simplify_schema(retail_db, {"customer.name": "full name"})
    entry = simp.lookup("customer.name")
    assert entry.description == "full name"


def test_render_without_descriptions_is_name_per_line(retail_db):
    text = simplify_schema(retail_db).block
    lines = text.splitlines()
    assert lines[0] == "Table: retail"
    assert lines[1] == "customer.customer_id"
    assert len([ln for ln in lines if "." in ln]) == 20


def test_render_with_descriptions_adds_column(retail_db):
    simp = simplify_schema(retail_db, {"city.population": "resident count"})
    text = simp.block
    assert "Column Name" in text
    assert "Description" in text
    assert "resident count" in text


def test_render_original_schema_lists_tables_and_fks(retail_db):
    text = retail_db.original_block
    assert "CREATE TABLE customer (" in text
    assert "CREATE TABLE orders (" in text
    assert "Foreign Keys:" in text
    assert "customer.city_id = city.city_id" in text


# ----- derived data held on the schema objects -----


def test_simplify_returns_the_held_view_for_equal_descriptions(retail_db):
    first = simplify_schema(retail_db, {"customer.name": "full name"})
    assert simplify_schema(retail_db, {"customer.name": "full name"}) is first
    empty = simplify_schema(retail_db)
    assert simplify_schema(retail_db, {}) is empty


def test_simplify_rebuilds_for_different_or_mutated_descriptions(retail_db):
    desc = {"customer.name": "full name"}
    first = simplify_schema(retail_db, desc)
    desc["customer.name"] = "legal name"
    mutated = simplify_schema(retail_db, desc)
    assert mutated is not first
    assert mutated.lookup("customer.name").description == "legal name"
    assert "legal name" in mutated.block
    other = simplify_schema(retail_db, {"customer.name": "given name"})
    assert other.lookup("customer.name").description == "given name"
    assert "given name" in other.block
    assert "full name" not in other.block


def test_rendered_blocks_match_a_freshly_built_schema():
    desc = {"account.date": "creation date", "district.a2": "district name"}

    def blocks(db):
        with_desc = simplify_schema(db, desc)
        return db.original_block, with_desc.block, simplify_schema(db).block

    warm = financial_schema()
    for _ in range(3):  # the descriptions alternate, so the held view is replaced
        assert blocks(warm) == blocks(financial_schema())


def test_find_table_is_case_insensitive(retail_db):
    assert retail_db.find_table("CUSTOMER").name == "customer"
    assert retail_db.find_table("nope") is None


def test_duplicate_table_names_rejected():
    t = TableDef("t", (ColumnDef("a"),))
    t2 = TableDef("T", (ColumnDef("a"),))
    with pytest.raises(SchemaError):
        DatabaseSchema("db", (t, t2), ())


def test_duplicate_column_names_rejected():
    with pytest.raises(SchemaError) as info:
        DatabaseSchema("db", (TableDef("t", (ColumnDef("a"), ColumnDef("A"))),), ())
    assert "a" in str(info.value).lower()


@pytest.mark.parametrize("tables, message", [
    # A dotted table or column name renders like another table's column.
    ((TableDef("a.b", (ColumnDef("c"),)), TableDef("a", (ColumnDef("b.c"),))),
     "column 'c' of table 'a.b' and column 'b.c' of table 'a' flatten to one entry 'a.b.c'"),
    # A final sigma lowers by context: two names that lower apart lower
    # alike inside the flat entry.
    ((TableDef("AΣ", (ColumnDef("x"),)), TableDef("Aσ", (ColumnDef("x"),))),
     "column 'x' of table 'AΣ' and column 'x' of table 'Aσ' flatten to one entry 'Aσ.x'"),
    ((TableDef("A", (ColumnDef("Σ"), ColumnDef("ς"))),),
     "column 'Σ' of table 'A' and column 'ς' of table 'A' flatten to one entry 'A.ς'"),
], ids=["dotted", "sigma-tables", "sigma-columns"])
def test_flat_entries_that_lower_alike_are_rejected(tables, message):
    with pytest.raises(SchemaError) as info:
        DatabaseSchema("d", tables)
    assert str(info.value) == f"schema 'd': {message}"


def test_dotted_and_non_ascii_names_that_stay_apart_flatten():
    db = DatabaseSchema("d", (TableDef("a.b", (ColumnDef("c"), ColumnDef("d"))),
                              TableDef("é", (ColumnDef("x.y"), ColumnDef("Σ")))))
    assert [e.rendered for e in simplify_schema(db).entries] == ["a.b.c", "a.b.d", "é.x.y", "é.Σ"]


def test_foreign_key_endpoints_must_exist():
    t = TableDef("t", (ColumnDef("a"),))
    with pytest.raises(SchemaError):
        DatabaseSchema("db", (t,), (("t", "a", "missing", "b"),))


@pytest.mark.parametrize("db_id, tables, foreign_keys, message", [
    ("", (TableDef("t", (ColumnDef("a"),)),), (), "schema requires a non-empty db_id"),
    ("db", (TableDef("", (ColumnDef("a"),)),), (), "schema 'db' has an unnamed table"),
    ("db", (TableDef("t", (ColumnDef(""),)),), (), "schema 'db': table 't' has an unnamed column"),
    ("db", (TableDef("t", (ColumnDef("a"),)),), (("t", "a", "t", "b"),),
     "schema 'db': foreign key references unknown column 't'.'b'"),
])
def test_unnamed_parts_and_unknown_key_columns_rejected(db_id, tables, foreign_keys, message):
    with pytest.raises(SchemaError) as info:
        DatabaseSchema(db_id, tables, foreign_keys)
    assert str(info.value) == message


def test_empty_schema_rejected():
    with pytest.raises(SchemaError):
        DatabaseSchema("db", (), ())
    with pytest.raises(SchemaError, match="table 't' has no columns"):
        DatabaseSchema("db", (TableDef("t", ()),))


def test_load_catalogue_roundtrip(mini_spider_root):
    catalogue = load_catalogue(mini_spider_root / "tables.json")
    assert sorted(catalogue) == ["academic", "retail"]
    retail = catalogue["retail"]
    assert [t.name for t in retail.tables] == ["customer", "city", "orders", "item", "product"]
    assert ("customer", "city_id", "city", "city_id") in retail.foreign_keys
    assert len(retail.foreign_keys) == 4


def test_load_catalogue_skips_star_placeholder(mini_spider_root):
    catalogue = load_catalogue(mini_spider_root / "tables.json")
    for db in catalogue.values():
        for table in db.tables:
            assert "*" not in {c.name for c in table.columns}


def test_foreign_key_to_the_star_placeholder_is_skipped(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([{
        "db_id": "d", "table_names_original": ["t", "u"],
        "column_names_original": [[-1, "*"], [0, "a"], [1, "b"]],
        "foreign_keys": [[1, 0], [0, 2], [1, 2]],
    }]), encoding="utf-8")
    assert load_catalogue(path)["d"].foreign_keys == (("t", "a", "u", "b"),)


# (entry, what its warning must say) for each way a tables.json record breaks.
BAD_CATALOGUE_ENTRIES = [
    ({"db_id": "x", "table_names_original": ["t"]},
     "entry 2 ('x') skipped: KeyError: 'column_names_original'"),
    ({"db_id": "y", "table_names_original": [], "column_names_original": [[-1, "*"]]},
     "entry 3 ('y') skipped: SchemaError: schema 'y' has no tables"),
    ("not an object", "entry 4 skipped: TypeError: not a JSON object"),
    ({"db_id": "z", "table_names_original": ["t"], "column_names_original": [[3, "a"]]},
     "entry 5 ('z') skipped: IndexError"),
    ({"db_id": "w", "table_names_original": ["t"], "column_names_original": [[0, "a"]],
      "foreign_keys": [[0, 7]]},
     "entry 6 ('w') skipped: IndexError: foreign key [0, 7] out of range"),
    ({"table_names_original": ["t"], "column_names_original": [[0, "a"]]},
     "entry 7 skipped: KeyError: 'db_id'"),
    ({"db_id": "v", "table_names_original": [5], "column_names_original": [[0, "a"]]},
     "entry 8 ('v') skipped: AttributeError"),
    ({"db_id": 5, "table_names_original": ["t"], "column_names_original": [[0, "a"]]},
     "entry 9 skipped: TypeError: db_id is not text"),
    # A short types list once zipped away the columns past its end.
    ({"db_id": "s", "table_names_original": ["t", "u"],
      "column_names_original": [[-1, "*"], [0, "a"], [1, "b"], [1, "c"]],
      "column_types": ["text", "number"]},
     "entry 10 ('s') skipped: ValueError: 4 column entries but 2 column types"),
    # Only the star placeholder: tables with no columns, which SQLite cannot hold.
    ({"db_id": "n", "table_names_original": ["a", "b"], "column_names_original": [[-1, "*"]]},
     "entry 11 ('n') skipped: SchemaError: schema 'n': table 'a' has no columns"),
    # Two columns whose flat entries are equal: the flat view cannot hold both.
    ({"db_id": "f", "table_names_original": ["a.b", "a"],
      "column_names_original": [[-1, "*"], [0, "c"], [1, "b.c"]]},
     "entry 12 ('f') skipped: SchemaError: schema 'f': column 'c' of table 'a.b' and "
     "column 'b.c' of table 'a' flatten to one entry 'a.b.c'"),
]


def test_malformed_catalogue_entry_costs_one_database(mini_spider_root, tmp_path, caplog):
    good = json.loads((mini_spider_root / "tables.json").read_text(encoding="utf-8"))
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(good + [entry for entry, _ in BAD_CATALOGUE_ENTRIES]),
                    encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        catalogue = load_catalogue(path)
    assert catalogue == load_catalogue(mini_spider_root / "tables.json")
    assert len(caplog.records) == len(BAD_CATALOGUE_ENTRIES)
    for record, (_, want) in zip(caplog.records, BAD_CATALOGUE_ENTRIES):
        assert record.getMessage().startswith(f"tables.json {want}")


def test_duplicate_db_id_keeps_the_first_entry(tmp_path, caplog):
    def entry(db_id, table):
        return {"db_id": db_id, "table_names_original": [table],
                "column_names_original": [[-1, "*"], [0, "a"]]}

    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry("d", "t"), entry("e", "v"), entry("d", "u"),
                                entry("d", "w")]), encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        catalogue = load_catalogue(path)
    assert sorted(catalogue) == ["d", "e"]
    assert [t.name for t in catalogue["d"].tables] == ["t"]
    assert [r.getMessage() for r in caplog.records] == [
        "tables.json entry 2 ('d') skipped: duplicate db_id (first at entry 0)",
        "tables.json entry 3 ('d') skipped: duplicate db_id (first at entry 0)",
    ]


def test_catalogue_that_is_not_a_list_is_an_error(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps({"db_id": "retail"}), encoding="utf-8")
    with pytest.raises(SchemaError, match="does not hold a list"):
        load_catalogue(path)


def test_load_descriptions_reads_bom_csvs(mini_bird_root):
    descs = load_descriptions(mini_bird_root / "dev_databases" / "financial")
    assert descs["district.a2"] == "district name"
    assert descs["account.date"] == "the creation date of the account"


def test_load_descriptions_missing_folder_is_empty(tmp_path):
    assert load_descriptions(tmp_path) == {}


def test_load_descriptions_skips_a_csv_it_cannot_read(tmp_path):
    folder = tmp_path / "database_description"
    (folder / "account.csv").mkdir(parents=True)  # opening it raises IsADirectoryError
    (folder / "loan.csv").write_text(
        "original_column_name,column_description\nstatus,loan status\n", encoding="utf-8")
    assert load_descriptions(tmp_path) == {"loan.status": "loan status"}


_name = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


@given(
    st.lists(
        st.tuples(_name, st.lists(_name, min_size=1, max_size=5, unique=True)),
        min_size=1,
        max_size=5,
        unique_by=lambda t: t[0],
    )
)
def test_simplification_preserves_counts_and_bijection(spec):
    tables = tuple(
        TableDef(f"t_{name}", tuple(ColumnDef(c) for c in cols)) for name, cols in spec
    )
    db = DatabaseSchema("fuzz", tables, ())
    simp = simplify_schema(db)
    assert len(simp.entries) == sum(len(t.columns) for t in tables)
    seen = set()
    for entry in simp.entries:
        assert entry.rendered == f"{entry.table}.{entry.column}"
        assert entry.rendered not in seen
        seen.add(entry.rendered)
        assert simp.lookup(entry.rendered) is entry


def test_fixture_builders_are_self_consistent():
    # guards the fixtures themselves: the counts other tests rely on
    assert sum(len(t.columns) for t in financial_schema().tables) == 54
    assert sum(len(t.columns) for t in synthetic_6x10_schema().tables) == 60
