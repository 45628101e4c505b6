"""Prompt construction from fixed template files.

Templates live as plain text with ``{slot}`` placeholders. Only the
named slots are ever substituted; any other brace in the template or in
slot values passes through untouched, so SQL and prose containing
braces cannot corrupt a render. Few-shot example blocks are fixed,
schema-agnostic constants shipped alongside the templates; they talk
about a fictional bank_data schema and never about evaluation data.

Template text reaches a prompt only through a ``TemplateSet``: the
texts of the templates a method uses, and the sha256 of every shipped
template file, both taken from the same bytes. ``TemplateSet.render``
fills one template's slots, with a second template as its examples
block. A run reads its set once; a ``build_*_prompt`` call given
``None`` renders from one set of every shipped template, read once per
process. Schema text comes only from the schema objects' own blocks.

A prompt is an ``llm.JsonText``: it carries its JSON text, which the
exchange key hashes. JSON escaping leaves every ``{slot}`` in place, so
the slot pass that renders a prompt, run over the template's JSON text,
gives the prompt's: the set holds the JSON text of each template and
examples block, the schema blocks hold theirs, and only the per-item
values (question, intermediate query) are escaped for each prompt.
"""

from __future__ import annotations

import functools
import hashlib
import re
from collections.abc import Iterable
from pathlib import Path

from .llm import JsonText, json_text, universal_text
from .schema import DatabaseSchema, SimplifiedSchema, simplify_schema

SLOT_NAMES = (
    "schema_block",
    "question",
    "original_schema_block",
    "simplified_query",
    "examples_block",
)

_SLOT_RE = re.compile("{(" + "|".join(SLOT_NAMES) + ")}")

DEFAULT_TEMPLATE_DIR = Path(__file__).parent / "templates"

# The templates each method's prompts are built from.
METHOD_TEMPLATES = {
    "unjoin-sp": ("sp", "examples_translation"),
    "unjoin-mp": ("mp_step1", "examples_generation", "mp_step2", "examples_translation"),
    "cot": ("cot", "examples_baseline"),
    "cot-ss": ("cot_ss", "examples_baseline"),
}

TEMPLATE_FILES = tuple(sorted({f"{t}.txt" for ids in METHOD_TEMPLATES.values() for t in ids}))


class TemplateError(ValueError):
    pass


class TemplateSet:
    """The templates of one run, each file read once.

    ``hashes`` maps every shipped template file present in the directory
    to the sha256 of its bytes. The templates named in ``template_ids``
    are decoded from those same bytes with universal newlines; a missing
    one, or one that is not UTF-8, raises ``TemplateError``. Files the
    run does not use may be absent.
    """

    def __init__(self, template_ids: Iterable[str], template_dir: str | Path | None = None):
        directory = Path(template_dir) if template_dir else DEFAULT_TEMPLATE_DIR
        self.hashes: dict[str, str] = {}
        self._templates: dict[str, JsonText] = {}
        # examples id -> the block a render fills in, trailing newlines cut.
        self._examples: dict[str, JsonText] = {}
        wanted = set(template_ids)
        for name in TEMPLATE_FILES:
            template_id = name.removesuffix(".txt")
            try:
                data = (directory / name).read_bytes()
                if template_id in wanted:
                    self._templates[template_id] = JsonText(universal_text(data))
            except FileNotFoundError:
                continue
            except (OSError, UnicodeDecodeError) as exc:
                raise TemplateError(f"cannot read template {name!r}: {exc}") from exc
            self.hashes[name] = hashlib.sha256(data).hexdigest()
        missing = sorted(wanted - self._templates.keys())
        if missing:
            names = ", ".join(repr(m) for m in missing)
            raise TemplateError(f"cannot load template {names}: not found in {directory}")

    def __getitem__(self, template_id: str) -> JsonText:
        try:
            return self._templates[template_id]
        except KeyError:
            raise TemplateError(f"template {template_id!r} was not loaded") from None

    def render(self, template_id: str, examples_id: str, **values: str) -> JsonText:
        """Template ``template_id`` with ``examples_id`` as its examples block.

        Only the named slots are substituted, in one pass; a slot the
        template uses without a value raises ``TemplateError``. The same
        pass over the template's JSON text, whose slots JSON escaping
        leaves in place, gives the prompt's: a value that is a
        ``JsonText`` brings its own, any other is escaped here.
        """
        template = self[template_id]
        examples = self._examples.get(examples_id)
        if examples is None:
            examples = self._examples[examples_id] = JsonText(self[examples_id].rstrip("\n"))
        values["examples_block"] = examples
        try:
            text = _SLOT_RE.sub(lambda m: values[m[1]], template)
        except KeyError:
            missing = [s for s in dict.fromkeys(_SLOT_RE.findall(template)) if s not in values]
            raise TemplateError(
                f"template {template_id!r} missing slot values: {', '.join(missing)}"
            ) from None
        return JsonText(text, _SLOT_RE.sub(lambda m: json_text(values[m[1]]), template.json))


@functools.cache
def _shipped() -> TemplateSet:
    """One set of every shipped template, read once per process."""
    return TemplateSet({t for ids in METHOD_TEMPLATES.values() for t in ids})


def build_sp_prompt(
    simplified: SimplifiedSchema,
    question: str,
    db: DatabaseSchema,
    templates: TemplateSet | None = None,
) -> str:
    """Joint two-step prompt: simplify-time generation plus translation."""
    if not simplified.entries or not question.strip():
        raise ValueError("simplified schema and question must be non-empty")
    return (templates or _shipped()).render(
        "sp", "examples_translation",
        schema_block=simplified.block,
        original_schema_block=db.original_block,
        question=question,
    )


def build_mp_step1_prompt(
    simplified: SimplifiedSchema,
    question: str,
    templates: TemplateSet | None = None,
) -> str:
    """Step 1 of the multi-prompt variant: single-table query generation."""
    if not simplified.entries or not question.strip():
        raise ValueError("simplified schema and question must be non-empty")
    return (templates or _shipped()).render(
        "mp_step1", "examples_generation",
        schema_block=simplified.block,
        question=question,
    )


def build_mp_step2_prompt(
    simplified: SimplifiedSchema,
    simplified_sql: str,
    question: str,
    db: DatabaseSchema,
    templates: TemplateSet | None = None,
) -> str:
    """Step 2 of the multi-prompt variant: translation to the original schema."""
    if not simplified_sql.strip():
        raise ValueError("simplified_sql must be non-empty")
    return (templates or _shipped()).render(
        "mp_step2", "examples_translation",
        schema_block=simplified.block,
        simplified_query=simplified_sql,
        original_schema_block=db.original_block,
        question=question,
    )


def build_baseline_prompt(
    kind: str,
    schema_block: str,
    question: str,
    templates: TemplateSet | None = None,
) -> str:
    """Chain-of-thought baselines.

    kind "cot" sees the original multi-table schema; kind "cot-ss" sees
    the simplified single-table rendering but must answer with the final
    multi-table SQL. Both share one fixed few-shot block.
    """
    if kind not in ("cot", "cot-ss"):
        raise TemplateError(f"unknown baseline kind {kind!r}; expected one of ['cot', 'cot-ss']")
    template_id, examples_id = METHOD_TEMPLATES[kind]
    return (templates or _shipped()).render(
        template_id, examples_id, schema_block=schema_block, question=question)


def baseline_schema_block(kind: str, db: DatabaseSchema) -> str:
    """The schema rendering each baseline kind consumes."""
    if kind == "cot":
        return db.original_block
    if kind == "cot-ss":
        return simplify_schema(db).block
    raise TemplateError(f"unknown baseline kind {kind!r}")
