"""Shared fixtures: small self-contained benchmark roots plus oracle data.

Two dataset roots are built once per session in tmp dirs. The spider-style
root carries 30 dev items (25 multi-table, 5 single-table) over two small
databases with real rows, so execution metrics are meaningful. The
bird-style root exercises evidence strings, description CSVs, and a
financial schema whose simplified form has exactly 54 entries.
"""

import json
import sqlite3
from pathlib import Path

import pytest

from unjoin.llm import ExchangeCache, LlmConfig, LlmExchange, exchange_key
from unjoin.prompting import (
    build_mp_step1_prompt,
    build_mp_step2_prompt,
    build_sp_prompt,
)
from unjoin.schema import ColumnDef, DatabaseSchema, TableDef, simplify_schema
from unjoin.correction import correct_identifiers, correct_identifiers_simplified


# ----- schema builders -----


def _cols(*names_types):
    return tuple(ColumnDef(n, t) for n, t in names_types)


def retail_schema() -> DatabaseSchema:
    return DatabaseSchema(
        "retail",
        (
            TableDef("customer", _cols(("customer_id", "number"), ("name", "text"),
                                       ("gender", "text"), ("city_id", "number"))),
            TableDef("city", _cols(("city_id", "number"), ("name", "text"),
                                   ("population", "number"))),
            TableDef("orders", _cols(("order_id", "number"), ("customer_id", "number"),
                                     ("amount", "number"), ("status", "text"),
                                     ("order_date", "text"))),
            TableDef("item", _cols(("item_id", "number"), ("order_id", "number"),
                                   ("product_id", "number"), ("quantity", "number"))),
            TableDef("product", _cols(("product_id", "number"), ("name", "text"),
                                      ("price", "number"), ("category", "text"))),
        ),
        (
            ("customer", "city_id", "city", "city_id"),
            ("orders", "customer_id", "customer", "customer_id"),
            ("item", "order_id", "orders", "order_id"),
            ("item", "product_id", "product", "product_id"),
        ),
    )


def academic_schema() -> DatabaseSchema:
    return DatabaseSchema(
        "academic",
        (
            TableDef("author", _cols(("author_id", "number"), ("name", "text"),
                                     ("affiliation", "text"))),
            TableDef("paper", _cols(("paper_id", "number"), ("title", "text"),
                                    ("year", "number"), ("venue_id", "number"))),
            TableDef("writes", _cols(("author_id", "number"), ("paper_id", "number"))),
            TableDef("venue", _cols(("venue_id", "number"), ("venue_name", "text"),
                                    ("location", "text"))),
        ),
        (
            ("paper", "venue_id", "venue", "venue_id"),
            ("writes", "author_id", "author", "author_id"),
            ("writes", "paper_id", "paper", "paper_id"),
        ),
    )


def financial_schema() -> DatabaseSchema:
    # 54 columns across 8 tables
    district = [("district_id", "number")] + [(f"A{i}", "text") for i in range(2, 17)]
    return DatabaseSchema(
        "financial",
        (
            TableDef("account", _cols(("account_id", "number"), ("district_id", "number"),
                                      ("frequency", "text"), ("date", "date"))),
            TableDef("card", _cols(("card_id", "number"), ("disp_id", "number"),
                                   ("type", "text"), ("issued", "date"))),
            TableDef("client", _cols(("client_id", "number"), ("gender", "text"),
                                     ("birth_date", "date"), ("district_id", "number"))),
            TableDef("disp", _cols(("disp_id", "number"), ("client_id", "number"),
                                   ("account_id", "number"), ("type", "text"))),
            TableDef("district", _cols(*district)),
            TableDef("loan", _cols(("loan_id", "number"), ("account_id", "number"),
                                   ("date", "date"), ("amount", "number"),
                                   ("duration", "number"), ("payments", "number"),
                                   ("status", "text"))),
            TableDef("order", _cols(("order_id", "number"), ("account_id", "number"),
                                    ("bank_to", "text"), ("account_to", "number"),
                                    ("amount", "number"), ("k_symbol", "text"))),
            TableDef("trans", _cols(("trans_id", "number"), ("account_id", "number"),
                                    ("date", "date"), ("type", "text"),
                                    ("operation", "text"), ("amount", "number"),
                                    ("balance", "number"), ("k_symbol", "text"),
                                    ("bank", "text"))),
        ),
        (
            ("account", "district_id", "district", "district_id"),
            ("card", "disp_id", "disp", "disp_id"),
            ("client", "district_id", "district", "district_id"),
            ("disp", "client_id", "client", "client_id"),
            ("disp", "account_id", "account", "account_id"),
            ("loan", "account_id", "account", "account_id"),
            ("order", "account_id", "account", "account_id"),
            ("trans", "account_id", "account", "account_id"),
        ),
    )


def toy_shop_schema() -> DatabaseSchema:
    return DatabaseSchema(
        "toy_shop",
        (
            TableDef("shop", _cols(("shop_id", "number"), ("name", "text"),
                                   ("district", "text"))),
            TableDef("staff", _cols(("staff_id", "number"), ("shop_id", "number"),
                                    ("name", "text"), ("salary", "number"))),
        ),
        (("staff", "shop_id", "shop", "shop_id"),),
    )


def synthetic_6x10_schema() -> DatabaseSchema:
    tables = tuple(
        TableDef(f"entity_{t}", _cols(*((f"field_{t}_{c}", "text") for c in range(10))))
        for t in range(6)
    )
    return DatabaseSchema("synthetic", tables, ())


# ----- serialization into benchmark file layouts -----


def tables_json_entry(db: DatabaseSchema) -> dict:
    cols = [[-1, "*"]]
    types = ["text"]
    index = {}
    for ti, table in enumerate(db.tables):
        for col in table.columns:
            index[(table.name.lower(), col.name.lower())] = len(cols)
            cols.append([ti, col.name])
            types.append(col.col_type or "text")
    fks = [
        [index[(t1.lower(), c1.lower())], index[(t2.lower(), c2.lower())]]
        for t1, c1, t2, c2 in db.foreign_keys
    ]
    names = [t.name for t in db.tables]
    return {
        "db_id": db.db_id,
        "table_names_original": names,
        "table_names": names,
        "column_names_original": cols,
        "column_names": cols,
        "column_types": types,
        "foreign_keys": fks,
        "primary_keys": [],
    }


def create_sqlite(path: Path, db: DatabaseSchema, rows: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    con = sqlite3.connect(path)
    try:
        for table in db.tables:
            cols = ", ".join(f'"{c.name}" {c.col_type or "text"}' for c in table.columns)
            con.execute(f'CREATE TABLE "{table.name}" ({cols})')
            for row in rows.get(table.name, []):
                marks = ", ".join("?" for _ in row)
                con.execute(f'INSERT INTO "{table.name}" VALUES ({marks})', row)
        con.commit()
    finally:
        con.close()


RETAIL_ROWS = {
    "city": [(1, "Springfield", 30000), (2, "Shelbyville", 20000), (3, "Ogdenville", 12000)],
    "customer": [(1, "Alice", "F", 1), (2, "Bob", "M", 1), (3, "Cora", "F", 2),
                 (4, "Dan", "M", 3), (5, "Eve", "F", 2)],
    "orders": [(1, 1, 250.0, "Completed", "2024-01-05"), (2, 1, 80.0, "Cancelled", "2024-01-20"),
               (3, 2, 120.5, "Completed", "2024-02-02"), (4, 3, 60.0, "Pending", "2024-02-10"),
               (5, 4, 300.0, "Completed", "2024-03-01"), (6, 5, 45.0, "Completed", "2024-03-15"),
               (7, 2, 75.0, "Pending", "2024-04-01")],
    "product": [(1, "Laptop", 900.0, "Electronics"), (2, "Phone", 500.0, "Electronics"),
                (3, "Desk", 150.0, "Furniture"), (4, "Chair", 85.0, "Furniture"),
                (5, "Lamp", 30.0, "Furniture")],
    "item": [(1, 1, 1, 1), (2, 1, 5, 2), (3, 2, 3, 1), (4, 3, 2, 1), (5, 4, 4, 2),
             (6, 5, 1, 1), (7, 5, 2, 1), (8, 6, 5, 3), (9, 7, 4, 1)],
}

ACADEMIC_ROWS = {
    "author": [(1, "Kim", "MIT"), (2, "Lopez", "CMU"), (3, "Singh", "MIT"), (4, "Chen", "Stanford")],
    "venue": [(1, "ACL", "Toronto"), (2, "NeurIPS", "Vancouver"), (3, "ICML", "Vienna")],
    "paper": [(1, "Parsing at Scale", 2022, 1), (2, "Sparse Models", 2023, 2),
              (3, "Graph Priors", 2023, 2), (4, "Robust Decoding", 2024, 3),
              (5, "Fast Retrieval", 2024, 1)],
    "writes": [(1, 1), (1, 2), (2, 2), (3, 3), (4, 4), (2, 5), (3, 5)],
}

FINANCIAL_ROWS = {
    "district": [tuple([1, "Prague"] + ["x"] * 14), tuple([2, "Brno"] + ["y"] * 14)],
    "account": [(1, 1, "POPLATEK MESICNE", "1995-03-24"),
                (2, 1, "POPLATEK TYDNE", "1996-02-21"),
                (3, 2, "POPLATEK MESICNE", "1997-05-30")],
    "client": [(1, "F", "1970-12-13", 1), (2, "M", "1945-02-04", 2)],
    "disp": [(1, 1, 1, "OWNER"), (2, 2, 2, "OWNER")],
    "loan": [(1, 1, "1996-04-29", 80952, 24, 3373.0, "A"),
             (2, 3, "1998-10-14", 30276, 12, 2523.0, "B")],
}

TOY_SHOP_ROWS = {
    "shop": [(1, "Toy World", "North"), (2, "Fun Land", "South")],
    "staff": [(1, 1, "Amy", 3200.0), (2, 1, "Ben", 2800.0), (3, 2, "Cal", 3000.0)],
}


# ----- dev items -----
# (db_id, question, gold sql, gold simplified sql or None for single-table)

SPIDER_CASES = [
    ("retail",
     "Which customers have placed a completed order?",
     "SELECT DISTINCT customer.name FROM customer JOIN orders ON customer.customer_id = orders.customer_id WHERE orders.status = 'Completed'",
     "SELECT DISTINCT customer.name FROM retail WHERE orders.status = 'Completed'"),
    ("retail",
     "How many orders has each customer placed?",
     "SELECT customer.name, count(*) FROM customer JOIN orders ON customer.customer_id = orders.customer_id GROUP BY customer.name",
     "SELECT customer.name, count(*) FROM retail GROUP BY customer.name"),
    ("retail",
     "List the names of female customers.",
     "SELECT name FROM customer WHERE gender = 'F'",
     None),
    ("retail",
     "What is the total amount of completed orders placed by female customers?",
     "SELECT sum(orders.amount) FROM orders JOIN customer ON orders.customer_id = customer.customer_id WHERE customer.gender = 'F' AND orders.status = 'Completed'",
     "SELECT sum(orders.amount) FROM retail WHERE customer.gender = 'F' AND orders.status = 'Completed'"),
    ("retail",
     "Which customers live in a city with population over 15000, ordered by name?",
     "SELECT customer.name FROM customer JOIN city ON customer.city_id = city.city_id WHERE city.population > 15000 ORDER BY customer.name",
     "SELECT customer.name FROM retail WHERE city.population > 15000 ORDER BY customer.name"),
    ("retail",
     "Which products were ordered in a quantity of at least 2?",
     "SELECT DISTINCT product.name FROM product JOIN item ON product.product_id = item.product_id WHERE item.quantity >= 2",
     "SELECT DISTINCT product.name FROM retail WHERE item.quantity >= 2"),
    ("retail",
     "Show the amount and status of every order placed by Bob.",
     "SELECT orders.amount, orders.status FROM orders JOIN customer ON orders.customer_id = customer.customer_id WHERE customer.name = 'Bob'",
     "SELECT orders.amount, orders.status FROM retail WHERE customer.name = 'Bob'"),
    ("retail",
     "How many orders were placed by customers from Springfield?",
     "SELECT count(*) FROM orders JOIN customer ON orders.customer_id = customer.customer_id JOIN city ON customer.city_id = city.city_id WHERE city.name = 'Springfield'",
     "SELECT count(*) FROM retail WHERE city.name = 'Springfield'"),
    ("retail",
     "How many completed orders are there?",
     "SELECT count(*) FROM orders WHERE status = 'Completed'",
     None),
    ("retail",
     "Which product names appear in completed orders?",
     "SELECT DISTINCT product.name FROM product JOIN item ON product.product_id = item.product_id JOIN orders ON item.order_id = orders.order_id WHERE orders.status = 'Completed'",
     "SELECT DISTINCT product.name FROM retail WHERE orders.status = 'Completed'"),
    ("retail",
     "What is the total quantity of electronics items ordered, per order status?",
     "SELECT orders.status, sum(item.quantity) FROM orders JOIN item ON orders.order_id = item.order_id JOIN product ON item.product_id = product.product_id WHERE product.category = 'Electronics' GROUP BY orders.status",
     "SELECT orders.status, sum(item.quantity) FROM retail WHERE product.category = 'Electronics' GROUP BY orders.status"),
    ("retail",
     "Which customers bought a furniture product?",
     "SELECT DISTINCT customer.name FROM customer JOIN orders ON customer.customer_id = orders.customer_id JOIN item ON orders.order_id = item.order_id JOIN product ON item.product_id = product.product_id WHERE product.category = 'Furniture'",
     "SELECT DISTINCT customer.name FROM retail WHERE product.category = 'Furniture'"),
    ("retail",
     "For each city, how much was spent on electronics products?",
     "SELECT city.name, sum(product.price * item.quantity) FROM city JOIN customer ON city.city_id = customer.city_id JOIN orders ON customer.customer_id = orders.customer_id JOIN item ON orders.order_id = item.order_id JOIN product ON item.product_id = product.product_id WHERE product.category = 'Electronics' GROUP BY city.name",
     "SELECT city.name, sum(product.price * item.quantity) FROM retail WHERE product.category = 'Electronics' GROUP BY city.name"),
    ("retail",
     "Name the customers who have a pending order.",
     "SELECT customer.name FROM customer WHERE customer.customer_id IN (SELECT orders.customer_id FROM orders WHERE orders.status = 'Pending')",
     "SELECT customer.name FROM retail WHERE orders.status = 'Pending'"),
    ("retail",
     "List products together with their prices, cheapest first.",
     "SELECT name, price FROM product ORDER BY price ASC",
     None),
    ("retail",
     "Show each customer with their city for completed orders.",
     "SELECT DISTINCT T1.name, T2.name FROM customer AS T1 JOIN city AS T2 ON T1.city_id = T2.city_id JOIN orders AS T3 ON T1.customer_id = T3.customer_id WHERE T3.status = 'Completed'",
     "SELECT DISTINCT customer.name, city.name FROM retail WHERE orders.status = 'Completed'"),
    ("retail",
     "What is the most populous city that any customer lives in?",
     "SELECT city.name FROM city JOIN customer ON city.city_id = customer.city_id ORDER BY city.population DESC LIMIT 1",
     "SELECT city.name FROM retail ORDER BY city.population DESC LIMIT 1"),
    ("retail",
     "For each city, what is the total quantity of items its customers ordered?",
     "SELECT city.name, sum(item.quantity) FROM city JOIN customer ON city.city_id = customer.city_id JOIN orders ON customer.customer_id = orders.customer_id JOIN item ON orders.order_id = item.order_id GROUP BY city.name",
     "SELECT city.name, sum(item.quantity) FROM retail GROUP BY city.name"),
    ("academic",
     "Which papers were published at ACL?",
     "SELECT paper.title FROM paper JOIN venue ON paper.venue_id = venue.venue_id WHERE venue.venue_name = 'ACL'",
     "SELECT paper.title FROM academic WHERE venue.venue_name = 'ACL'"),
    ("academic",
     "How many papers does each venue have?",
     "SELECT venue.venue_name, count(*) FROM venue JOIN paper ON venue.venue_id = paper.venue_id GROUP BY venue.venue_name",
     "SELECT venue.venue_name, count(*) FROM academic GROUP BY venue.venue_name"),
    ("academic",
     "Which papers have more than one author?",
     "SELECT paper.title FROM paper JOIN writes ON paper.paper_id = writes.paper_id GROUP BY paper.paper_id, paper.title HAVING count(*) > 1",
     "SELECT paper.title FROM academic GROUP BY paper.paper_id, paper.title HAVING count(*) > 1"),
    ("academic",
     "List all papers from 2024.",
     "SELECT title FROM paper WHERE year = 2024",
     None),
    ("academic",
     "Which authors have written at least one paper, alphabetically?",
     "SELECT DISTINCT author.name FROM author JOIN writes ON author.author_id = writes.author_id ORDER BY author.name",
     "SELECT DISTINCT author.name FROM academic ORDER BY author.name"),
    ("academic",
     "Which papers were written by MIT authors?",
     "SELECT DISTINCT paper.title FROM paper JOIN writes ON paper.paper_id = writes.paper_id JOIN author ON writes.author_id = author.author_id WHERE author.affiliation = 'MIT'",
     "SELECT DISTINCT paper.title FROM academic WHERE author.affiliation = 'MIT'"),
    ("academic",
     "How many distinct authors published at each venue?",
     "SELECT venue.venue_name, count(DISTINCT writes.author_id) FROM venue JOIN paper ON venue.venue_id = paper.venue_id JOIN writes ON paper.paper_id = writes.paper_id GROUP BY venue.venue_name",
     "SELECT venue.venue_name, count(DISTINCT writes.author_id) FROM academic GROUP BY venue.venue_name"),
    ("academic",
     "How many authors are there?",
     "SELECT count(*) FROM author",
     None),
    ("academic",
     "Who published a paper in 2023?",
     "SELECT DISTINCT author.name FROM author JOIN writes ON author.author_id = writes.author_id JOIN paper ON writes.paper_id = paper.paper_id WHERE paper.year = 2023",
     "SELECT DISTINCT author.name FROM academic WHERE paper.year = 2023"),
    ("academic",
     "At which venues did MIT authors publish?",
     "SELECT DISTINCT venue.venue_name FROM venue JOIN paper ON venue.venue_id = paper.venue_id JOIN writes ON paper.paper_id = writes.paper_id JOIN author ON writes.author_id = author.author_id WHERE author.affiliation = 'MIT'",
     "SELECT DISTINCT venue.venue_name FROM academic WHERE author.affiliation = 'MIT'"),
    ("academic",
     "Name the authors who are at MIT or who published at ACL.",
     "SELECT author.name FROM author WHERE author.affiliation = 'MIT' UNION SELECT author.name FROM author JOIN writes ON author.author_id = writes.author_id JOIN paper ON writes.paper_id = paper.paper_id JOIN venue ON paper.venue_id = venue.venue_id WHERE venue.venue_name = 'ACL'",
     "SELECT author.name FROM academic WHERE author.affiliation = 'MIT' UNION SELECT author.name FROM academic WHERE venue.venue_name = 'ACL'"),
    ("academic",
     "What is the latest publication year at each venue, by venue name?",
     "SELECT venue.venue_name, max(paper.year) FROM venue JOIN paper ON venue.venue_id = paper.venue_id GROUP BY venue.venue_name ORDER BY venue.venue_name",
     "SELECT venue.venue_name, max(paper.year) FROM academic GROUP BY venue.venue_name ORDER BY venue.venue_name"),
]

BIRD_CASES = [
    ("financial",
     "How many accounts are held in the Prague district?",
     "Prague refers to A2 = 'Prague'",
     "SELECT count(*) FROM account JOIN district ON account.district_id = district.district_id WHERE district.A2 = 'Prague'",
     "SELECT count(*) FROM financial WHERE district.A2 = 'Prague'"),
    ("financial",
     "List the statuses of loans on accounts based in the Brno district.",
     "Brno refers to A2 = 'Brno'",
     "SELECT loan.status FROM loan JOIN account ON loan.account_id = account.account_id JOIN district ON account.district_id = district.district_id WHERE district.A2 = 'Brno'",
     "SELECT loan.status FROM financial WHERE district.A2 = 'Brno'"),
    ("toy_shop",
     "What is the average salary of staff working in shops in the North district?",
     "North district refers to district = 'North'",
     "SELECT avg(staff.salary) FROM staff JOIN shop ON staff.shop_id = shop.shop_id WHERE shop.district = 'North'",
     "SELECT avg(staff.salary) FROM toy_shop WHERE shop.district = 'North'"),
    ("financial",
     "How many clients are female?",
     "female refers to gender = 'F'",
     "SELECT count(*) FROM client WHERE gender = 'F'",
     None),
]

# Every distinct gold text of the two fixture roots.
FIXTURE_GOLDS = sorted({case[2] for case in SPIDER_CASES} | {case[3] for case in BIRD_CASES})

DESCRIPTION_CSVS = {
    "account": ("original_column_name,column_name,column_description,data_format,value_description\n"
                "account_id,account id,the id of the account,integer,\n"
                "date,creation date,the creation date of the account,date,in the form YYMMDD\n"),
    "district": ("original_column_name,column_name,column_description,data_format,value_description\n"
                 "district_id,district id,location of branch,integer,\n"
                 "A2,district name,district name,text,\n"),
}


# ----- dataset roots on disk -----


@pytest.fixture(scope="session")
def mini_spider_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("mini_spider")
    dbs = {"retail": (retail_schema(), RETAIL_ROWS),
           "academic": (academic_schema(), ACADEMIC_ROWS)}
    entries = [tables_json_entry(db) for db, _ in dbs.values()]
    (root / "tables.json").write_text(json.dumps(entries, indent=1), encoding="utf-8")
    dev = [{"db_id": db_id, "question": q, "query": gold}
           for db_id, q, gold, _ in SPIDER_CASES]
    (root / "dev.json").write_text(json.dumps(dev, indent=1), encoding="utf-8")
    for db_id, (db, rows) in dbs.items():
        create_sqlite(root / "database" / db_id / f"{db_id}.sqlite", db, rows)
    return root


@pytest.fixture(scope="session")
def mini_bird_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("mini_bird")
    dbs = {"financial": (financial_schema(), FINANCIAL_ROWS),
           "toy_shop": (toy_shop_schema(), TOY_SHOP_ROWS)}
    entries = [tables_json_entry(db) for db, _ in dbs.values()]
    (root / "dev_tables.json").write_text(json.dumps(entries, indent=1), encoding="utf-8")
    dev = [{"question_id": i, "db_id": db_id, "question": q, "evidence": ev, "SQL": gold}
           for i, (db_id, q, ev, gold, _) in enumerate(BIRD_CASES)]
    (root / "dev.json").write_text(json.dumps(dev, indent=1), encoding="utf-8")
    for db_id, (db, rows) in dbs.items():
        create_sqlite(root / "dev_databases" / db_id / f"{db_id}.sqlite", db, rows)
    desc_dir = root / "dev_databases" / "financial" / "database_description"
    desc_dir.mkdir(parents=True)
    for table, body in DESCRIPTION_CSVS.items():
        # BOM on purpose: the benchmark CSVs carry one
        (desc_dir / f"{table}.csv").write_bytes(b"\xef\xbb\xbf" + body.encode("utf-8"))
    return root


# ----- plain schema fixtures -----


@pytest.fixture
def retail_db() -> DatabaseSchema:
    return retail_schema()


@pytest.fixture
def academic_db() -> DatabaseSchema:
    return academic_schema()


@pytest.fixture
def financial_db() -> DatabaseSchema:
    return financial_schema()


@pytest.fixture
def synthetic_db() -> DatabaseSchema:
    return synthetic_6x10_schema()


@pytest.fixture(scope="session")
def retail_sqlite(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("retail_db") / "retail.sqlite"
    create_sqlite(path, retail_schema(), RETAIL_ROWS)
    return path


# ----- connection accounting -----


class ConnectionCount:
    """Every connection ``unjoin.evaluation`` opened, and those it closed."""

    def __init__(self):
        # Lists hold the connections alive, so their ids stay distinct.
        self.opened: list = []
        self.closed: list = []

    @property
    def still_open(self) -> int:
        closed = {id(con) for con in self.closed}
        return sum(id(con) not in closed for con in self.opened)


@pytest.fixture
def connection_count(monkeypatch) -> ConnectionCount:
    """Counts opens and closes through a wrapping ``sqlite3.connect`` in ``unjoin.evaluation``."""
    from types import SimpleNamespace

    from unjoin import evaluation

    count = ConnectionCount()

    class Counted(sqlite3.Connection):
        def close(self):
            count.closed.append(self)
            super().close()

    def connect(*args, **kwargs):
        con = sqlite3.connect(*args, factory=Counted, **kwargs)
        count.opened.append(con)
        return con

    monkeypatch.setattr(evaluation, "sqlite3", SimpleNamespace(**{**vars(sqlite3), "connect": connect}))
    return count


# ----- oracle replay cache -----

ORACLE_MODEL = "oracle"


def spider_oracle_plan() -> dict[str, tuple[str, str, str]]:
    """item_id -> (question, gold sql, gold simplified sql) for kept items."""
    plan = {}
    for index, (db_id, question, gold, simplified) in enumerate(SPIDER_CASES):
        if simplified is not None:
            plan[f"{db_id}:{index}"] = (question, gold, simplified)
    return plan


def seed_oracle_cache(cache: ExchangeCache, cfg: LlmConfig) -> None:
    """Record gold-derived completions for both unjoin variants.

    The step-2 prompt depends on the corrected step-1 output, so the
    gold simplified SQL must be a fixed point of the corrector; asserted
    here to fail fast if a fixture drifts.
    """
    schemas = {"retail": retail_schema(), "academic": academic_schema()}
    for db_id, question, gold, simplified in SPIDER_CASES:
        if simplified is None:
            continue
        db = schemas[db_id]
        simp = simplify_schema(db)
        fixed, _ = correct_identifiers_simplified(simplified, simp)
        assert fixed == simplified, f"fixture not a corrector fixed point: {simplified}"
        fixed_gold, _ = correct_identifiers(gold, db)
        assert fixed_gold == gold, f"fixture not a corrector fixed point: {gold}"

        p1 = build_mp_step1_prompt(simp, question)
        c1 = f"```sql\n{simplified}\n```"
        cache.put(LlmExchange(key=exchange_key(p1, cfg), prompt=p1, completion=c1))

        p2 = build_mp_step2_prompt(simp, simplified, question, db)
        c2 = f"```sql\n{gold}\n```"
        cache.put(LlmExchange(key=exchange_key(p2, cfg), prompt=p2, completion=c2))

        sp = build_sp_prompt(simp, question, db)
        joint = f"```sql\n{simplified}\n```\n\nTranslated back to the original schema:\n\n```sql\n{gold}\n```"
        cache.put(LlmExchange(key=exchange_key(sp, cfg), prompt=sp, completion=joint))


@pytest.fixture(scope="session")
def oracle_cache_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("oracle_cache")
    cfg = LlmConfig(model=ORACLE_MODEL, temperature=0.0)
    seed_oracle_cache(ExchangeCache(root), cfg)
    return root
