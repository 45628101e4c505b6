"""Fixture shapes the narrow workloads are scaled up from.

A frozen copy of the retail/academic schemas, rows and dev questions
the test suite builds its mini SPIDER root from. The benchmark keeps
its own copy so that editing the test fixtures can never change what
the benchmark measures.

A schema is (tables, foreign_keys): tables is a list of
(table, [(column, type), ...]) in declared order, foreign keys are
(table, column, parent_table, parent_column).
"""

RETAIL = (
    [
        ("customer", [("customer_id", "number"), ("name", "text"),
                      ("gender", "text"), ("city_id", "number")]),
        ("city", [("city_id", "number"), ("name", "text"), ("population", "number")]),
        ("orders", [("order_id", "number"), ("customer_id", "number"),
                    ("amount", "number"), ("status", "text"), ("order_date", "text")]),
        ("item", [("item_id", "number"), ("order_id", "number"),
                  ("product_id", "number"), ("quantity", "number")]),
        ("product", [("product_id", "number"), ("name", "text"),
                     ("price", "number"), ("category", "text")]),
    ],
    [
        ("customer", "city_id", "city", "city_id"),
        ("orders", "customer_id", "customer", "customer_id"),
        ("item", "order_id", "orders", "order_id"),
        ("item", "product_id", "product", "product_id"),
    ],
)

ACADEMIC = (
    [
        ("author", [("author_id", "number"), ("name", "text"), ("affiliation", "text")]),
        ("paper", [("paper_id", "number"), ("title", "text"),
                   ("year", "number"), ("venue_id", "number")]),
        ("writes", [("author_id", "number"), ("paper_id", "number")]),
        ("venue", [("venue_id", "number"), ("venue_name", "text"), ("location", "text")]),
    ],
    [
        ("paper", "venue_id", "venue", "venue_id"),
        ("writes", "author_id", "author", "author_id"),
        ("writes", "paper_id", "paper", "paper_id"),
    ],
)

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

BASES = {"retail": (RETAIL, RETAIL_ROWS), "academic": (ACADEMIC, ACADEMIC_ROWS)}

# (base db, question, gold sql, gold simplified sql or None for single-table).
# The simplified queries name the virtual table after the base db; copies
# substitute their own db_id.
CASES = [
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

# Names outside the fixture vocabulary, added per copy so that no two
# copies render the same CREATE TABLE text (the cot prompt omits db_id).
DISTRACTORS = [
    ("loyalty_tier", "text"), ("region_code", "text"), ("signup_channel", "text"),
    ("remarks", "text"), ("rating", "number"), ("discount_rate", "number"),
    ("warehouse_code", "text"), ("updated_on", "text"), ("batch_no", "number"),
    ("priority_level", "number"), ("source_ref", "text"), ("audit_flag", "number"),
    ("currency_code", "text"), ("tax_class", "text"), ("review_score", "number"),
    ("shelf_code", "text"),
]

# Vocabulary for the wide BIRD-style schemas: (table, key column). Some
# table names are plural so that dropped-plural typos have something to
# drop. No name here is an SQL keyword.
WIDE_TABLES = [
    ("accounts", "account_id"), ("branches", "branch_id"), ("clients", "client_id"),
    ("cards", "card_id"), ("loans", "loan_id"), ("deposits", "deposit_id"),
    ("merchants", "merchant_id"), ("invoices", "invoice_id"), ("payments", "payment_id"),
    ("regions", "region_id"), ("manager", "manager_id"), ("product", "product_id"),
    ("supplier", "supplier_id"), ("shipment", "shipment_id"), ("warehouse", "warehouse_id"),
    ("contract", "contract_id"), ("employee", "employee_id"), ("campaign", "campaign_id"),
    ("ticket", "ticket_id"), ("vendor", "vendor_id"), ("asset", "asset_id"),
    ("budget", "budget_id"), ("station", "station_id"), ("device", "device_id"),
    ("policy", "policy_id"), ("claims", "claim_id"), ("agents", "agent_id"),
    ("portfolio", "portfolio_id"), ("auditor", "auditor_id"), ("license", "license_id"),
]

WIDE_ATTRIBUTES = [
    "status", "amount", "balance", "created_date", "closed_date", "region_code",
    "type_code", "risk_score", "credit_limit", "currency", "channel", "segment",
    "priority", "category", "frequency", "duration_days", "interest_rate",
    "fee_amount", "tax_rate", "postal_code", "city_name", "country_name",
    "phone_number", "email_address", "opened_by", "approved_by", "review_note",
    "external_ref", "batch_number", "tier_level", "discount", "quantity",
    "unit_price", "total_cost", "margin", "rating", "score_band", "age_group",
    "income_band", "language", "source_system", "valid_from", "valid_to",
    "last_update", "owner_name", "contact_name", "branch_code", "sector",
    "grade", "volume", "weight_kg", "capacity", "shift_code", "audit_flag",
    "legacy_id", "comment_text", "approval_state", "payment_terms", "due_date",
]

WIDE_VALUES = [
    "north", "south", "east", "west", "gold", "silver", "bronze", "alpha", "beta",
    "gamma", "delta", "open", "closed", "pending", "retail", "corporate",
]
