import shutil

import pytest

from unjoin.prompting import (
    DEFAULT_TEMPLATE_DIR,
    METHOD_TEMPLATES,
    TEMPLATE_FILES,
    PromptTemplate,
    TemplateError,
    TemplateSet,
    baseline_schema_block,
    build_baseline_prompt,
    build_mp_step1_prompt,
    build_mp_step2_prompt,
    build_sp_prompt,
    template_hashes,
)
from unjoin.schema import simplify_schema

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


def test_missing_slot_value_raises():
    template = PromptTemplate("sp", "before {question} after")
    with pytest.raises(TemplateError):
        template.render(schema_block="x")
    assert template.render(question="q") == "before q after"


def test_template_load_unknown_id():
    with pytest.raises(TemplateError):
        PromptTemplate.load("nope")


def test_template_hashes_cover_all_files():
    hashes = template_hashes()
    assert sorted(hashes) == sorted(TEMPLATE_FILES)
    assert len(hashes) == 8
    assert all(len(h) == 64 for h in hashes.values())
    assert template_hashes() == hashes


def test_template_hashes_track_content(tmp_path):
    for name in TEMPLATE_FILES:
        shutil.copy(DEFAULT_TEMPLATE_DIR / name, tmp_path / name)
    base = template_hashes(tmp_path)
    assert base == template_hashes()
    (tmp_path / "sp.txt").write_text(
        (tmp_path / "sp.txt").read_text(encoding="utf-8") + "\nextra",
        encoding="utf-8",
    )
    changed = template_hashes(tmp_path)
    assert changed["sp.txt"] != base["sp.txt"]
    assert changed["mp_step1.txt"] == base["mp_step1.txt"]


def test_custom_template_dir_used(simp, retail_db, tmp_path):
    for name in TEMPLATE_FILES:
        shutil.copy(DEFAULT_TEMPLATE_DIR / name, tmp_path / name)
    (tmp_path / "mp_step1.txt").write_text(
        "CUSTOM\nSchema:\n{schema_block}\nQ: {question}\n{examples_block}",
        encoding="utf-8",
    )
    prompt = build_mp_step1_prompt(simp, QUESTION, tmp_path)
    assert prompt.startswith("CUSTOM")


def _all_prompts(simp, db, templates):
    return [
        build_sp_prompt(simp, QUESTION, db, templates),
        build_mp_step1_prompt(simp, QUESTION, templates),
        build_mp_step2_prompt(simp, "SELECT 1 FROM retail", QUESTION, db, templates),
        build_baseline_prompt("cot", baseline_schema_block("cot", db), QUESTION, templates),
        build_baseline_prompt("cot-ss", baseline_schema_block("cot-ss", db), QUESTION, templates),
    ]


@pytest.mark.parametrize("newline", [None, b"\r\n", b"\r"])
def test_template_set_prompts_equal_per_call_loads(simp, retail_db, tmp_path, newline):
    template_dir = None
    if newline is not None:
        template_dir = tmp_path
        for name in TEMPLATE_FILES:
            data = (DEFAULT_TEMPLATE_DIR / name).read_bytes()
            (tmp_path / name).write_bytes(data.replace(b"\n", newline))
    ids = {t for names in METHOD_TEMPLATES.values() for t in names}
    loaded = TemplateSet(ids, template_dir)
    assert _all_prompts(simp, retail_db, loaded) == _all_prompts(simp, retail_db, template_dir)
    assert loaded.hashes == template_hashes(template_dir)


def test_template_set_holds_only_what_it_was_asked_for(simp, retail_db):
    loaded = TemplateSet(METHOD_TEMPLATES["cot"])
    assert loaded["cot"] == PromptTemplate.load("cot")
    with pytest.raises(TemplateError):
        build_sp_prompt(simp, QUESTION, retail_db, loaded)


def test_template_set_missing_or_unreadable_file(tmp_path):
    with pytest.raises(TemplateError, match="sp"):
        TemplateSet(["sp"], tmp_path)
    (tmp_path / "cot.txt").mkdir()
    with pytest.raises(TemplateError, match="cot.txt"):
        TemplateSet([], tmp_path)
