"""Prompt construction from fixed template files.

Templates live as plain text with ``{slot}`` placeholders. Only the
named slots are ever substituted; any other brace in the template or in
slot values passes through untouched, so SQL and prose containing
braces cannot corrupt a render. Few-shot example blocks are fixed,
schema-agnostic constants shipped alongside the templates; they talk
about a fictional bank_data schema and never about evaluation data.

Template text reaches a prompt only through a ``TemplateSet``: the
texts of the templates a method uses, and the sha256 of every shipped
template file, both taken from the same bytes. A run reads its set
once; a ``build_*_prompt`` call given ``None`` reads the shipped
templates of its method for that call. Schema text comes only from the
schema objects' own blocks.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

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

TEMPLATE_FILES = (
    "sp.txt",
    "mp_step1.txt",
    "mp_step2.txt",
    "cot.txt",
    "cot_ss.txt",
    "examples_generation.txt",
    "examples_translation.txt",
    "examples_baseline.txt",
)


# The templates each method's prompts are built from.
METHOD_TEMPLATES = {
    "unjoin-sp": ("sp", "examples_translation"),
    "unjoin-mp": ("mp_step1", "examples_generation", "mp_step2", "examples_translation"),
    "cot": ("cot", "examples_baseline"),
    "cot-ss": ("cot_ss", "examples_baseline"),
}


class TemplateError(ValueError):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    text: str

    def slots(self) -> tuple[str, ...]:
        seen = []
        for m in _SLOT_RE.finditer(self.text):
            if m.group(1) not in seen:
                seen.append(m.group(1))
        return tuple(seen)

    def render(self, **values: str) -> str:
        required = self.slots()
        missing = [s for s in required if s not in values]
        if missing:
            raise TemplateError(
                f"template {self.template_id!r} missing slot values: {', '.join(missing)}"
            )

        def repl(m: re.Match) -> str:
            return values[m.group(1)]

        return _SLOT_RE.sub(repl, self.text)


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
        self._templates: dict[str, PromptTemplate] = {}
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
                self._templates[template_id] = PromptTemplate(template_id, text)
        missing = sorted(wanted - self._templates.keys())
        if missing:
            names = ", ".join(repr(m) for m in missing)
            raise TemplateError(f"cannot load template {names}: not found in {directory}")

    def __getitem__(self, template_id: str) -> PromptTemplate:
        try:
            return self._templates[template_id]
        except KeyError:
            raise TemplateError(f"template {template_id!r} was not loaded") from None


def _render(
    method: str, template_id: str, examples_id: str, templates: TemplateSet | None, **values: str
) -> str:
    """Render ``template_id`` with ``examples_id`` as its examples block.

    ``templates`` None reads the shipped templates of ``method``.
    """
    if templates is None:
        templates = TemplateSet(METHOD_TEMPLATES[method])
    template = templates[template_id]
    return template.render(examples_block=templates[examples_id].text.rstrip("\n"), **values)


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
        "unjoin-sp", "sp", "examples_translation", templates,
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
        "unjoin-mp", "mp_step1", "examples_generation", templates,
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
        "unjoin-mp", "mp_step2", "examples_translation", templates,
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
    return _render(kind, template_id, examples_id, templates,
                   schema_block=schema_block, question=question)


def baseline_schema_block(kind: str, db: DatabaseSchema) -> str:
    """The schema rendering each baseline kind consumes."""
    if kind == "cot":
        return db.original_block
    if kind == "cot-ss":
        return simplify_schema(db).block
    raise TemplateError(f"unknown baseline kind {kind!r}")
