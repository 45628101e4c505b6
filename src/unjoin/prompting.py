"""Prompt construction from fixed template files.

Templates live as plain text with ``{slot}`` placeholders. Only the
named slots are ever substituted; any other brace in the template or in
slot values passes through untouched, so SQL and prose containing
braces cannot corrupt a render. Few-shot example blocks are fixed,
schema-agnostic constants shipped alongside the templates; they talk
about a fictional bank_data schema and never about evaluation data.

A run reads its templates once, as a ``TemplateSet``: the texts of the
templates its method uses, and the sha256 of every shipped template
file, both taken from the same bytes. The ``build_*_prompt`` functions
accept such a set, or a directory to load each template from per call.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .schema import (
    DatabaseSchema,
    SimplifiedSchema,
    render_original_schema,
    render_simplified,
    simplify_schema,
)

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

    @classmethod
    def load(cls, template_id: str, template_dir: str | Path | None = None) -> "PromptTemplate":
        directory = Path(template_dir) if template_dir else DEFAULT_TEMPLATE_DIR
        path = directory / f"{template_id}.txt"
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise TemplateError(f"cannot load template {template_id!r}: {exc}") from exc
        return cls(template_id, text)

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
    are decoded from those same bytes, as ``PromptTemplate.load`` would
    decode them; a missing one raises ``TemplateError``. Files the run
    does not use may be absent.
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


def _template(template_id: str, templates: TemplateSet | str | Path | None) -> PromptTemplate:
    if isinstance(templates, TemplateSet):
        return templates[template_id]
    return PromptTemplate.load(template_id, templates)


def _examples(name: str, templates: TemplateSet | str | Path | None) -> str:
    return _template(name, templates).text.rstrip("\n")


def build_sp_prompt(
    simplified: SimplifiedSchema,
    question: str,
    db: DatabaseSchema,
    template_dir: TemplateSet | str | Path | None = None,
) -> str:
    """Joint two-step prompt: simplify-time generation plus translation."""
    if not simplified.entries or not question.strip():
        raise ValueError("simplified schema and question must be non-empty")
    template = _template("sp", template_dir)
    return template.render(
        schema_block=render_simplified(simplified),
        examples_block=_examples("examples_translation", template_dir),
        original_schema_block=render_original_schema(db),
        question=question,
    )


def build_mp_step1_prompt(
    simplified: SimplifiedSchema,
    question: str,
    template_dir: TemplateSet | str | Path | None = None,
) -> str:
    """Step 1 of the multi-prompt variant: single-table query generation."""
    if not simplified.entries or not question.strip():
        raise ValueError("simplified schema and question must be non-empty")
    template = _template("mp_step1", template_dir)
    return template.render(
        schema_block=render_simplified(simplified),
        examples_block=_examples("examples_generation", template_dir),
        question=question,
    )


def build_mp_step2_prompt(
    simplified: SimplifiedSchema,
    simplified_sql: str,
    question: str,
    db: DatabaseSchema,
    template_dir: TemplateSet | str | Path | None = None,
) -> str:
    """Step 2 of the multi-prompt variant: translation to the original schema."""
    if not simplified_sql.strip():
        raise ValueError("simplified_sql must be non-empty")
    template = _template("mp_step2", template_dir)
    return template.render(
        schema_block=render_simplified(simplified),
        examples_block=_examples("examples_translation", template_dir),
        simplified_query=simplified_sql,
        original_schema_block=render_original_schema(db),
        question=question,
    )


def build_baseline_prompt(
    kind: str,
    schema_block: str,
    question: str,
    template_dir: TemplateSet | str | Path | None = None,
) -> str:
    """Chain-of-thought baselines.

    kind "cot" sees the original multi-table schema; kind "cot-ss" sees
    the simplified single-table rendering but must answer with the final
    multi-table SQL. Both share one fixed few-shot block.
    """
    ids = {"cot": "cot", "cot-ss": "cot_ss"}
    if kind not in ids:
        raise TemplateError(f"unknown baseline kind {kind!r}; expected one of {sorted(ids)}")
    template = _template(ids[kind], template_dir)
    return template.render(
        schema_block=schema_block,
        examples_block=_examples("examples_baseline", template_dir),
        question=question,
    )


def baseline_schema_block(kind: str, db: DatabaseSchema) -> str:
    """The schema rendering each baseline kind consumes."""
    if kind == "cot":
        return render_original_schema(db)
    if kind == "cot-ss":
        return render_simplified(simplify_schema(db))
    raise TemplateError(f"unknown baseline kind {kind!r}")


def template_hashes(template_dir: str | Path | None = None) -> dict[str, str]:
    """sha256 of every shipped template, for run provenance."""
    return TemplateSet((), template_dir).hashes
