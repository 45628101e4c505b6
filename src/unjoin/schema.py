"""Relational schema model and deterministic schema simplification.

A multi-table schema is flattened into a single virtual table named
after the database. Every column of every table contributes exactly one
entry rendered as ``table_name.column_name``. The mapping back to the
original (table, column) pair is carried explicitly on each entry, so
downstream code never has to split the rendered string and guess.

What is derived from a schema object (lookup maps, rendered prompt
blocks, the flattened view, and the candidate lists of identifier
repair) is held by the object itself: it lives exactly as long as the
schema does, and every caller shares it. Callers must treat these values
as read-only. The candidate lists are built with ``correction.PackedNames``;
this module imports ``correction``, which names the schema types only in
annotations. The prompt blocks are ``llm.JsonText``: each computes its
JSON text on the first prompt that reads it, and holds it from then on.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .correction import PackedNames
from .llm import JsonText

log = logging.getLogger(__name__)


class SchemaError(ValueError):
    """Raised when a schema violates a structural invariant."""


@dataclass(frozen=True)
class ColumnDef:
    name: str
    col_type: str = ""


@dataclass(frozen=True)
class TableDef:
    name: str
    columns: tuple[ColumnDef, ...]


@dataclass(frozen=True)
class DatabaseSchema:
    db_id: str
    tables: tuple[TableDef, ...]
    # (table1, col1, table2, col2) with names exactly as declared
    foreign_keys: tuple[tuple[str, str, str, str], ...] = ()
    # Lower-case name maps, built while the names are checked for collisions.
    # table_names: lower-case table name -> declared name.
    table_names: dict[str, str] = field(init=False, compare=False, repr=False)
    # columns_by_table: lower-case table name -> (lower-case column name ->
    # declared name).
    columns_by_table: dict[str, dict[str, str]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.db_id:
            raise SchemaError("schema requires a non-empty db_id")
        if not self.tables:
            raise SchemaError(f"schema {self.db_id!r} has no tables")
        seen: dict[str, str] = {}
        by_table: dict[str, dict[str, str]] = {}
        flat: dict[str, tuple[str, str]] = {}  # lower-case flat entry -> (table, column)
        for t in self.tables:
            if not t.name:
                raise SchemaError(f"schema {self.db_id!r} has an unnamed table")
            if not t.columns:  # SQLite has no such table
                raise SchemaError(f"schema {self.db_id!r}: table {t.name!r} has no columns")
            low = t.name.lower()
            if low in seen:
                raise SchemaError(
                    f"schema {self.db_id!r}: table name collision between "
                    f"{seen[low]!r} and {t.name!r}"
                )
            seen[low] = t.name
            cols = by_table[low] = {}
            for c in t.columns:
                if not c.name:
                    raise SchemaError(
                        f"schema {self.db_id!r}: table {t.name!r} has an unnamed column"
                    )
                cl = c.name.lower()
                if cl in cols:
                    raise SchemaError(
                        f"schema {self.db_id!r}: column name collision in table "
                        f"{t.name!r} between {cols[cl]!r} and {c.name!r}"
                    )
                cols[cl] = c.name
                # The flat view lowers "table.column" as one text, so a dotted
                # name, or a final sigma (lowered by context), can collide.
                rendered = f"{t.name}.{c.name}"
                first = flat.setdefault(rendered.lower(), (t.name, c.name))
                if first != (t.name, c.name):
                    raise SchemaError(
                        f"schema {self.db_id!r}: column {first[1]!r} of table "
                        f"{first[0]!r} and column {c.name!r} of table {t.name!r} "
                        f"flatten to one entry {rendered!r}"
                    )
        object.__setattr__(self, "table_names", seen)
        object.__setattr__(self, "columns_by_table", by_table)
        for t1, c1, t2, c2 in self.foreign_keys:
            for tname, cname in ((t1, c1), (t2, c2)):
                cols = by_table.get(tname.lower())
                if cols is None:
                    raise SchemaError(
                        f"schema {self.db_id!r}: foreign key references unknown table {tname!r}"
                    )
                if cname.lower() not in cols:
                    raise SchemaError(
                        f"schema {self.db_id!r}: foreign key references unknown column "
                        f"{tname!r}.{cname!r}"
                    )

    def find_table(self, name: str) -> TableDef | None:
        low = name.lower()
        for t in self.tables:
            if t.name.lower() == low:
                return t
        return None

    # Derived data, computed on first use (frozen dataclasses without
    # slots keep a per-instance __dict__ that cached_property writes to).

    @cached_property
    def packed_tables(self) -> PackedNames:
        """The table names, sorted: the candidates for a table name."""
        return PackedNames(sorted(self.table_names.items()))

    @cached_property
    def packed_columns(self) -> dict[str, PackedNames]:
        """Lower-case table name -> its column names, sorted, owned by the table."""
        return {t: PackedNames(sorted(c.items()), t) for t, c in self.columns_by_table.items()}

    @cached_property
    def original_block(self) -> JsonText:
        """CREATE TABLE-style rendering of the schema plus FK lines."""
        parts = []
        for t in self.tables:
            col_lines = [f"  {c.name} {c.col_type}".rstrip() for c in t.columns]
            parts.append(f"CREATE TABLE {t.name} (\n" + ",\n".join(col_lines) + "\n);")
        text = "\n".join(parts)
        if self.foreign_keys:
            fk_lines = [f"{t1}.{c1} = {t2}.{c2}" for t1, c1, t2, c2 in self.foreign_keys]
            text += "\nForeign Keys:\n" + "\n".join(fk_lines)
        return JsonText(text)


@dataclass(frozen=True)
class SimplifiedEntry:
    rendered: str  # "table_name.column_name"
    table: str
    column: str
    description: str = ""


@dataclass(frozen=True)
class SimplifiedSchema:
    """Single virtual table produced by flattening a DatabaseSchema."""

    name: str
    entries: tuple[SimplifiedEntry, ...]
    # Lower-case rendered name -> entry. No two entries share one:
    # ``DatabaseSchema`` rejects a schema whose flat view would.
    _by_rendered: dict[str, SimplifiedEntry] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {e.rendered.lower(): e for e in self.entries}
        object.__setattr__(self, "_by_rendered", index)

    def lookup(self, rendered: str) -> SimplifiedEntry | None:
        return self._by_rendered.get(rendered.lower())

    @cached_property
    def packed_name(self) -> PackedNames:
        """The virtual table's name: the candidate for a FROM table."""
        return PackedNames([(self.name.lower(), self.name)])

    @cached_property
    def packed_entries(self) -> PackedNames:
        """The rendered entries, sorted: the candidates for a dotted chain."""
        return PackedNames(sorted((e.rendered.lower(), e.rendered) for e in self.entries))

    @cached_property
    def block(self) -> JsonText:
        """The prompt block: a "Table: <name>" header, then one line per entry.

        When any entry carries a description, names are padded to a
        common width so descriptions align in a second column.
        """
        lines = [f"Table: {self.name}"]
        if any(e.description for e in self.entries):
            width = max((len(e.rendered) for e in self.entries), default=0) + 2
            lines.append("Column Name".ljust(width) + "Description")
            for e in self.entries:
                if e.description:
                    lines.append(e.rendered.ljust(width) + e.description)
                else:
                    lines.append(e.rendered)
        else:
            lines.extend(e.rendered for e in self.entries)
        return JsonText("\n".join(lines))


def simplify_schema(db: DatabaseSchema, descriptions: dict[str, str] | None = None) -> SimplifiedSchema:
    """Flatten ``db`` into one virtual table named after the database.

    Entry order follows the declared table order, then column order
    within each table, so the output is byte-stable for a given input.
    ``descriptions`` optionally maps "table.column" (case-insensitive)
    to human-readable text attached to the matching entry.

    ``db`` holds the last view built from it with a copy of its
    descriptions, in its instance __dict__ as cached_property holds its
    values, and that view is returned again while the descriptions are
    equal by value (None counts as empty). Threads racing here each
    return a view of their own descriptions; whichever pair is stored
    last is a consistent one.
    """
    descriptions = descriptions or {}
    held = db.__dict__.get("_simplified_view")
    if held is None or held[0] != descriptions:
        desc = {(k or "").lower(): v for k, v in descriptions.items()}
        entries = []
        for t in db.tables:
            for c in t.columns:
                rendered = f"{t.name}.{c.name}"
                text = desc.get(rendered.lower(), "")
                entries.append(SimplifiedEntry(rendered, t.name, c.name, text))
        held = (dict(descriptions), SimplifiedSchema(db.db_id, tuple(entries)))
        db.__dict__["_simplified_view"] = held
    return held[1]


def load_catalogue(path: str | Path) -> dict[str, DatabaseSchema]:
    """Load a benchmark table catalogue (tables.json layout).

    Each record carries original table and column names, with column
    entries as [table_index, name] pairs where index -1 marks the
    placeholder star column, and foreign keys as pairs of global column
    indices into that same list.

    A malformed record (not an object, a missing field, an index out of
    range, a ``column_types`` list whose length differs from the column
    list's, or a schema that breaks an invariant) is skipped with a
    logged warning that names its index and db_id, so it costs its own
    database, not the load. So is a record whose db_id an earlier loaded
    record already holds: the first one stands. A file that does not
    hold a list raises ``SchemaError``.
    """
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise SchemaError(f"{path} does not hold a list of entries")
    name = Path(path).name
    catalogue: dict[str, DatabaseSchema] = {}
    first_at: dict[str, int] = {}
    for i, entry in enumerate(raw):
        try:
            db = _catalogue_entry(entry)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            db_id = entry.get("db_id") if isinstance(entry, dict) else None
            named = f" ({db_id!r})" if isinstance(db_id, str) and db_id else ""
            log.warning("%s entry %d%s skipped: %s: %s",
                        name, i, named, type(exc).__name__, exc)
            continue
        if db.db_id in first_at:
            log.warning("%s entry %d (%r) skipped: duplicate db_id (first at entry %d)",
                        name, i, db.db_id, first_at[db.db_id])
            continue
        first_at[db.db_id] = i
        catalogue[db.db_id] = db
    return catalogue


def _catalogue_entry(entry) -> DatabaseSchema:
    if not isinstance(entry, dict):
        raise TypeError("not a JSON object")
    db_id = entry["db_id"]
    if not isinstance(db_id, str):
        raise TypeError("db_id is not text")
    table_names = entry["table_names_original"]
    col_pairs = entry["column_names_original"]
    col_types = entry.get("column_types") or [""] * len(col_pairs)
    if len(col_types) != len(col_pairs):
        raise ValueError(
            f"{len(col_pairs)} column entries but {len(col_types)} column types")
    per_table: list[list[ColumnDef]] = [[] for _ in table_names]
    owner: list[tuple[str, str] | None] = []
    for (tidx, cname), ctype in zip(col_pairs, col_types):
        if tidx < 0:
            owner.append(None)
            continue
        per_table[tidx].append(ColumnDef(cname, ctype))
        owner.append((table_names[tidx], cname))
    fks = []
    for ci, cj in entry.get("foreign_keys") or []:
        if not (0 <= ci < len(owner) and 0 <= cj < len(owner)):
            raise IndexError(f"foreign key [{ci}, {cj}] out of range")
        a, b = owner[ci], owner[cj]
        if a is None or b is None:
            continue
        fks.append((a[0], a[1], b[0], b[1]))
    tables = tuple(TableDef(name, tuple(cols)) for name, cols in zip(table_names, per_table))
    return DatabaseSchema(db_id, tables, tuple(fks))


def load_descriptions(db_dir: str | Path) -> dict[str, str]:
    """Read per-column description CSVs from a database_description folder.

    Returns a mapping from lowercase "table.column" to description text.
    Files are named after their table; rows carry the original column
    name and free-text description. Encoding junk is tolerated since the
    benchmark CSVs mix encodings.
    """
    folder = Path(db_dir) / "database_description"
    out: dict[str, str] = {}
    if not folder.is_dir():
        return out
    for csv_path in sorted(folder.glob("*.csv")):
        table = csv_path.stem
        try:
            with open(csv_path, encoding="utf-8-sig", errors="replace", newline="") as fh:
                for row in csv.DictReader(fh):
                    name = (row.get("original_column_name") or "").strip()
                    desc = (row.get("column_description") or "").strip()
                    desc = " ".join(desc.split())
                    if name and desc:
                        out[f"{table}.{name}".lower()] = desc
        except OSError:
            continue
    return out
