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
