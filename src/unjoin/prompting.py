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
exchange key hashes. That text is joined from the pieces' own: the set
holds it for the text around the slots and for the examples blocks,
the schema blocks hold theirs, and only the per-item values (question,
intermediate query) are escaped for each prompt.
"""

from __future__ import annotations

import functools
import hashlib
import re
from collections.abc import Iterable
from pathlib import Path

from .llm import JsonText, json_text
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
    one raises ``TemplateError``. Files the run does not use may be
    absent.
    """

    def __init__(self, template_ids: Iterable[str], template_dir: str | Path | None = None):
        directory = Path(template_dir) if template_dir else DEFAULT_TEMPLATE_DIR
        self.hashes: dict[str, str] = {}
        self._templates: dict[str, str] = {}
        # (template id, examples id) -> the text around the slots, with the
        # examples block filled in, and the slot names; split on first render.
        self._split: dict[tuple[str, str], tuple[list[JsonText], list[str]]] = {}
        wanted = set(template_ids)
        for name in TEMPLATE_FILES:
            try:
                data = (directory / name).read_bytes()
            except FileNotFoundError:
                continue
            except OSError as exc:
                raise TemplateError(f"cannot read template {name!r}: {exc}") from exc
            self.hashes[name] = hashlib.sha256(data).hexdigest()
            template_id = name.removesuffix(".txt")
            if template_id in wanted:
                # Universal newlines, as text-mode reading gives.
                text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
                self._templates[template_id] = text
        missing = sorted(wanted - self._templates.keys())
        if missing:
            names = ", ".join(repr(m) for m in missing)
            raise TemplateError(f"cannot load template {names}: not found in {directory}")

    def __getitem__(self, template_id: str) -> str:
        try:
            return self._templates[template_id]
        except KeyError:
            raise TemplateError(f"template {template_id!r} was not loaded") from None

    def render(self, template_id: str, examples_id: str, **values: str) -> JsonText:
        """Template ``template_id`` with ``examples_id`` as its examples block.

        Only the named slots are substituted, in one pass; a slot the
        template uses without a value raises ``TemplateError``. The
        prompt carries its JSON text; a value that is a ``JsonText``
        brings its own, any other is escaped here.
        """
        split = self._split.get((template_id, examples_id))
        if split is None:
            split = self._split[template_id, examples_id] = self._split_template(
                template_id, examples_id)
        fixed, slots = split
        missing = [s for s in dict.fromkeys(slots) if s not in values]
        if missing:
            raise TemplateError(
                f"template {template_id!r} missing slot values: {', '.join(missing)}"
            )
        texts, escaped = [fixed[0]], [fixed[0].json]
        for slot, after in zip(slots, fixed[1:]):
            value = values[slot]
            texts += (value, after)
            escaped += (json_text(value), after.json)
        return JsonText("".join(texts), "".join(escaped))

    def _split_template(
        self, template_id: str, examples_id: str
    ) -> tuple[list[JsonText], list[str]]:
        """The text around the slots, with the examples block filled in, and the slot names."""
        pieces = _SLOT_RE.split(self[template_id])
        examples = self[examples_id].rstrip("\n")
        fixed, slots = [pieces[0]], []
        for slot, after in zip(pieces[1::2], pieces[2::2]):
            if slot == "examples_block":
                fixed[-1] += examples + after
            else:
                slots.append(slot)
                fixed.append(after)
        return [JsonText(text) for text in fixed], slots


@functools.cache
def _shipped() -> TemplateSet:
    return TemplateSet({t for ids in METHOD_TEMPLATES.values() for t in ids})


def _render(
    template_id: str, examples_id: str, templates: TemplateSet | None, **values: str
) -> str:
    """``templates.render``; None renders from the shipped templates, read once per process."""
    if templates is None:
        templates = _shipped()
    return templates.render(template_id, examples_id, **values)


def build_sp_prompt(
    simplified: SimplifiedSchema,
    question: str,
    db: DatabaseSchema,
    templates: TemplateSet | None = None,
) -> str:
    """Joint two-step prompt: simplify-time generation plus translation."""
    if not simplified.entries or not question.strip():
        raise ValueError("simplified schema and question must be non-empty")
    return _render(
        "sp", "examples_translation", templates,
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
    return _render(
        "mp_step1", "examples_generation", templates,
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
    return _render(
        "mp_step2", "examples_translation", templates,
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
    return _render(template_id, examples_id, templates,
                   schema_block=schema_block, question=question)


def baseline_schema_block(kind: str, db: DatabaseSchema) -> str:
    """The schema rendering each baseline kind consumes."""
    if kind == "cot":
        return db.original_block
    if kind == "cot-ss":
        return simplify_schema(db).block
    raise TemplateError(f"unknown baseline kind {kind!r}")
