import hashlib
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from unjoin import prompting
from unjoin.dataset import METHODS, filter_items, load_dataset
from unjoin.llm import JsonText
from unjoin.prompting import (
    DEFAULT_TEMPLATE_DIR,
    METHOD_TEMPLATES,
    SLOT_NAMES,
    TEMPLATE_FILES,
    TemplateError,
    TemplateSet,
    baseline_schema_block,
    build_baseline_prompt,
    build_mp_step1_prompt,
    build_mp_step2_prompt,
    build_sp_prompt,
)
from unjoin.schema import simplify_schema

from conftest import BIRD_CASES, SPIDER_CASES

QUESTION = "How many orders were placed by customers from Springfield?"


@pytest.fixture
def simp(retail_db):
    return simplify_schema(retail_db)


def test_sp_prompt_keeps_fixed_instruction_text(simp, retail_db):
    prompt = build_sp_prompt(simp, QUESTION, retail_db)
    assert "You are an expert at semantic parsing." in prompt
    assert "Step 1: Getting the simplified query" in prompt
    assert "DO NOT do any join operations. Treat this as a single table." in prompt
    assert "Example Table: bank_data" in prompt


def test_sp_prompt_preserves_trailing_spaces(simp, retail_db):
    prompt = build_sp_prompt(simp, QUESTION, retail_db)
    assert "multiple columns and a question. \n" in prompt
    assert "pertaining to that question. \n" in prompt
    assert "correct column extraction, and where clauses. \n" in prompt


def test_sp_prompt_slot_order(simp, retail_db):
    prompt = build_sp_prompt(simp, QUESTION, retail_db)
    schema_at = prompt.index("Table: retail")
    original_at = prompt.index("CREATE TABLE customer (")
    question_at = prompt.rindex(QUESTION)
    assert schema_at < original_at < question_at
    assert prompt.rstrip().endswith(QUESTION)


def test_mp_step1_prompt_shape(simp):
    prompt = build_mp_step1_prompt(simp, QUESTION)
    assert "DO NOT perform any join operations. Treat this as a single table." in prompt
    assert "The query should strictly adhere to the schema provided." in prompt
    assert prompt.index("Table: retail") < prompt.index(QUESTION)
    assert prompt.rstrip().endswith("Output:")


def test_mp_step2_prompt_shape(simp, retail_db):
    prompt = build_mp_step2_prompt(
        simp, "SELECT count(*) FROM retail WHERE city.name = 'Springfield'",
        QUESTION, retail_db,
    )
    assert "### Steps for Translation:" in prompt
    assert "**Understand the Core Objective from the Question**:" in prompt
    assert "Simplified Query:" in prompt
    assert "SELECT count(*) FROM retail WHERE city.name = 'Springfield'" in prompt
    assert "Foreign Keys:" in prompt
    assert prompt.rindex(QUESTION) < prompt.rindex("Simplified Query:")


def test_baseline_prompts_differ_in_schema_view(retail_db):
    # the shared example block shows CREATE TABLE text in both, so the
    # discriminating content is the retail schema rendering itself
    cot = build_baseline_prompt("cot", baseline_schema_block("cot", retail_db), QUESTION)
    ss = build_baseline_prompt("cot-ss", baseline_schema_block("cot-ss", retail_db), QUESTION)
    assert "CREATE TABLE orders (" in cot
    assert "Table: retail" not in cot
    assert "Table: retail" in ss
    assert "CREATE TABLE orders (" not in ss
    assert "JOIN and UNION operations" in ss


def test_unknown_baseline_kind_rejected(retail_db):
    with pytest.raises(TemplateError):
        build_baseline_prompt("zero-shot", "x", QUESTION)
    with pytest.raises(TemplateError):
        baseline_schema_block("zero-shot", retail_db)


def test_no_unrendered_slots_leak(simp, retail_db):
    prompts = [
        build_sp_prompt(simp, QUESTION, retail_db),
        build_mp_step1_prompt(simp, QUESTION),
        build_mp_step2_prompt(simp, "SELECT 1 FROM retail", QUESTION, retail_db),
        build_baseline_prompt("cot", baseline_schema_block("cot", retail_db), QUESTION),
    ]
    for prompt in prompts:
        for slot in ("{schema_block}", "{examples_block}", "{question}",
                     "{original_schema_block}", "{simplified_query}"):
            assert slot not in prompt


def test_braces_in_sql_survive_render(simp, retail_db):
    prompt = build_mp_step2_prompt(
        simp, "SELECT '{not_a_slot}' FROM retail", QUESTION, retail_db
    )
    assert "{not_a_slot}" in prompt


def test_builders_are_deterministic(simp, retail_db):
    a = build_sp_prompt(simp, QUESTION, retail_db)
    b = build_sp_prompt(simp, QUESTION, retail_db)
    assert a == b


def test_empty_question_rejected(simp, retail_db):
    with pytest.raises(ValueError):
        build_sp_prompt(simp, "   ", retail_db)
    with pytest.raises(ValueError):
        build_mp_step2_prompt(simp, "", QUESTION, retail_db)
    with pytest.raises(ValueError, match="question must be non-empty"):
        build_mp_step1_prompt(simp, " \n")


def test_missing_slot_value_raises(tmp_path):
    (tmp_path / "sp.txt").write_text("before {question} after", encoding="utf-8")
    (tmp_path / "examples_translation.txt").write_text("", encoding="utf-8")
    templates = TemplateSet(METHOD_TEMPLATES["unjoin-sp"], tmp_path)
    with pytest.raises(TemplateError, match="missing slot values: question"):
        templates.render("sp", "examples_translation", schema_block="x")
    assert templates.render("sp", "examples_translation", question="q") == "before q after"


def test_template_load_unknown_id():
    with pytest.raises(TemplateError, match="nope"):
        TemplateSet(["nope"])


def test_template_hashes_cover_all_files():
    hashes = TemplateSet(()).hashes
    assert sorted(hashes) == sorted(TEMPLATE_FILES)
    assert len(hashes) == 8
    assert all(len(h) == 64 for h in hashes.values())
    assert TemplateSet(()).hashes == hashes


def test_template_hashes_track_content(tmp_path):
    for name in TEMPLATE_FILES:
        shutil.copy(DEFAULT_TEMPLATE_DIR / name, tmp_path / name)
    base = TemplateSet((), tmp_path).hashes
    assert base == TemplateSet(()).hashes
    (tmp_path / "sp.txt").write_text(
        (tmp_path / "sp.txt").read_text(encoding="utf-8") + "\nextra",
        encoding="utf-8",
    )
    changed = TemplateSet((), tmp_path).hashes
    assert changed["sp.txt"] != base["sp.txt"]
    assert changed["mp_step1.txt"] == base["mp_step1.txt"]


def test_custom_template_dir_used(simp, retail_db, tmp_path):
    for name in TEMPLATE_FILES:
        shutil.copy(DEFAULT_TEMPLATE_DIR / name, tmp_path / name)
    (tmp_path / "mp_step1.txt").write_text(
        "CUSTOM\nSchema:\n{schema_block}\nQ: {question}\n{examples_block}",
        encoding="utf-8",
    )
    templates = TemplateSet(METHOD_TEMPLATES["unjoin-mp"], tmp_path)
    prompt = build_mp_step1_prompt(simp, QUESTION, templates)
    assert prompt.startswith("CUSTOM")


def test_template_set_holds_only_what_it_was_asked_for(simp, retail_db):
    loaded = TemplateSet(METHOD_TEMPLATES["cot"])
    shipped = (DEFAULT_TEMPLATE_DIR / "cot.txt").read_text(encoding="utf-8")
    assert loaded["cot"] == shipped
    with pytest.raises(TemplateError):
        build_sp_prompt(simp, QUESTION, retail_db, loaded)


def test_prompts_without_a_set_share_one_read_of_the_shipped_templates(
        simp, retail_db, monkeypatch):
    built = []
    init = TemplateSet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TemplateSet, "__init__", counting_init)
    prompting._shipped.cache_clear()
    for kind in ("cot", "cot-ss") * 10:
        build_sp_prompt(simp, QUESTION, retail_db)
        build_mp_step1_prompt(simp, QUESTION)
        build_mp_step2_prompt(simp, "SELECT 1", QUESTION, retail_db)
        build_baseline_prompt(kind, baseline_schema_block(kind, retail_db), QUESTION)
    assert len(built) == 1
    assert sorted(built[0][0]) == sorted({t for ids in METHOD_TEMPLATES.values() for t in ids})


def test_template_set_missing_or_unreadable_file(tmp_path):
    with pytest.raises(TemplateError, match="sp"):
        TemplateSet(["sp"], tmp_path)
    (tmp_path / "cot.txt").mkdir()
    with pytest.raises(TemplateError, match="cot.txt"):
        TemplateSet([], tmp_path)


def test_template_that_is_not_utf8_names_its_file(tmp_path):
    (tmp_path / "cot.txt").write_bytes(b"Q: {\xff}")
    (tmp_path / "examples_baseline.txt").write_bytes(b"")
    with pytest.raises(TemplateError) as info:
        TemplateSet(METHOD_TEMPLATES["cot"], tmp_path)
    assert str(info.value) == ("cannot read template 'cot.txt': 'utf-8' codec can't decode "
                               "byte 0xff in position 4: invalid start byte")


# ----- pinned prompt bytes -----

# sha256 of every prompt each method sends over the SPIDER fixture and the
# BIRD fixture (with its descriptions), prompts joined by NUL in item order.
# The unjoin-mp step-2 prompts use the oracle plan's simplified query.
# Prompt bytes are also the replay-cache keys, so these must not drift.
PROMPT_DIGESTS = {
    "unjoin-sp": "93536beeecfb64fa0fac42aeccd32587b961376541f92cee7f0fdb6fc6dc3133",
    "unjoin-mp": "e2bbb692a63a354237f5e949bbf5c80c950c86416d73e6d6df0be2825211b883",
    "cot": "58626a1c5f1c5ec1e3d1899601e8f9377c15947526e746e77dfe8a87c4e8cb06",
    "cot-ss": "a8e7ae3563220105c839fbb17e997c8293594778a680897bac8597fb327fe4c5",
}


def _method_prompts(root, flavor, cases, templates):
    bundle = load_dataset(root, flavor)
    kept, _ = filter_items(bundle.items, bundle.catalogue)
    out = {method: [] for method in METHODS}
    for item in kept:
        db = bundle.catalogue[item.db_id]
        simplified = simplify_schema(db, bundle.descriptions.get(item.db_id))
        flat = cases[int(item.item_id.rsplit(":", 1)[1])][-1]
        question = item.prompt_question
        out["unjoin-mp"] += [
            build_mp_step1_prompt(simplified, question, templates),
            build_mp_step2_prompt(simplified, flat, question, db, templates),
        ]
        out["unjoin-sp"].append(build_sp_prompt(simplified, question, db, templates))
        for kind in ("cot", "cot-ss"):
            out[kind].append(
                build_baseline_prompt(kind, baseline_schema_block(kind, db), question, templates))
    return out


@pytest.mark.parametrize("newline", [None, b"\n", b"\r\n", b"\r"],
                         ids=["shipped", "lf", "crlf", "cr"])
def test_prompt_bytes_pinned(mini_spider_root, mini_bird_root, tmp_path, newline):
    templates = None
    if newline is not None:
        for name in TEMPLATE_FILES:
            data = (DEFAULT_TEMPLATE_DIR / name).read_bytes()
            (tmp_path / name).write_bytes(data.replace(b"\n", newline))
        templates = TemplateSet({t for ids in METHOD_TEMPLATES.values() for t in ids}, tmp_path)
    spider = _method_prompts(mini_spider_root, "spider", SPIDER_CASES, templates)
    bird = _method_prompts(mini_bird_root, "bird", BIRD_CASES, templates)
    assert len(spider["cot"]) == 25 and len(bird["cot"]) == 3
    assert any("location of branch" in p for p in bird["unjoin-mp"])
    digests = {
        method: hashlib.sha256("\0".join(spider[method] + bird[method]).encode("utf-8")).hexdigest()
        for method in METHODS
    }
    assert digests == PROMPT_DIGESTS


@pytest.mark.parametrize("newline", [None, b"\r\n"], ids=["shipped", "crlf"])
def test_prompts_carry_their_json_text(mini_spider_root, mini_bird_root, tmp_path, newline):
    templates = None
    if newline is not None:
        for name in TEMPLATE_FILES:
            data = (DEFAULT_TEMPLATE_DIR / name).read_bytes()
            (tmp_path / name).write_bytes(data.replace(b"\n", newline))
        templates = TemplateSet({t for ids in METHOD_TEMPLATES.values() for t in ids}, tmp_path)
    for root, flavor, cases in ((mini_spider_root, "spider", SPIDER_CASES),
                                (mini_bird_root, "bird", BIRD_CASES)):
        for method, prompts in _method_prompts(root, flavor, cases, templates).items():
            for prompt in prompts:
                assert prompt.json == json.dumps(str(prompt), ensure_ascii=False)[1:-1], method


def test_slot_values_bring_or_get_their_json_text(simp, retail_db):
    question = 'Who said "hi"\\\n\t\x00\u2028\u2029 café \U0001d11e?'
    sql = "SELECT {x} FROM retail WHERE a = '\"'"
    for prompt in (build_mp_step2_prompt(simp, sql, question, retail_db),
                   build_mp_step2_prompt(simp, JsonText(sql), JsonText(question), retail_db),
                   build_baseline_prompt("cot", str(retail_db.original_block), question)):
        assert type(prompt) is JsonText
        assert prompt.json == json.dumps(str(prompt), ensure_ascii=False)[1:-1]


# ----- render semantics -----

_SLOT = re.compile("{(" + "|".join(SLOT_NAMES) + ")}")
_VALUE_SLOTS = [s for s in SLOT_NAMES if s != "examples_block"]
# Slot text, stray braces, each character JSON escapes, the newlines a
# template file may hold, and characters it keeps as they are.
_TEXT = st.lists(
    st.sampled_from([f"{{{s}}}" for s in SLOT_NAMES] + [chr(c) for c in range(0x20)]
                    + ["{", "}", "{{question}}", "{question", '"', "\\", "\u2028", "\r\n",
                       "a", " ", "\u00e9", "\U0001d11e"]),
    max_size=12,
).map("".join)
_VALUE = st.tuples(_TEXT, st.booleans()).map(lambda t: JsonText(t[0]) if t[1] else t[0])


def _universal(text):
    return text.replace("\r\n", "\n").replace("\r", "\n")


@settings(max_examples=100, deadline=None)
@given(_TEXT, _TEXT, st.dictionaries(st.sampled_from(_VALUE_SLOTS), _VALUE)
       | st.fixed_dictionaries({s: _VALUE for s in _VALUE_SLOTS}))
@example('{question} "{question}"\\{ {examples_block}{schema_block',
         "{question}\x00\u2028\n\r\n", {"question": '{schema_block}\\"\x1f'})
def test_render_is_one_pass_substitution_with_its_json_text(template, examples, values):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sp.txt").write_bytes(template.encode("utf-8"))
        Path(tmp, "examples_translation.txt").write_bytes(examples.encode("utf-8"))
        templates = TemplateSet(METHOD_TEMPLATES["unjoin-sp"], tmp)
    text = _universal(template)
    filled = {**values, "examples_block": _universal(examples).rstrip("\n")}
    missing = [s for s in dict.fromkeys(_SLOT.findall(text)) if s not in filled]
    if missing:
        with pytest.raises(TemplateError) as info:
            templates.render("sp", "examples_translation", **values)
        assert str(info.value) == f"template 'sp' missing slot values: {', '.join(missing)}"
        return
    prompt = templates.render("sp", "examples_translation", **values)
    assert str(prompt) == _SLOT.sub(lambda m: filled[m.group(1)], text)
    assert prompt.json == json.dumps(str(prompt), ensure_ascii=False)[1:-1]
