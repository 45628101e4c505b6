import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from unjoin.cli import main

from conftest import ORACLE_MODEL


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----- simplify -----


def test_simplify_financial_lists_all_columns(mini_bird_root, capsys):
    code, out, err = run_cli(
        capsys, "simplify", "--dataset", "bird", "--root", str(mini_bird_root),
        "--db", "financial",
    )
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0] == "Table: financial"
    assert len(lines) == 1 + 54
    assert "account.account_id" in lines
    assert "trans.trans_id" in lines
    assert all("." in line for line in lines[1:])


def test_simplify_with_descriptions_adds_column(mini_bird_root, capsys):
    code, out, _ = run_cli(
        capsys, "simplify", "--dataset", "bird", "--root", str(mini_bird_root),
        "--db", "financial", "--with-descriptions",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("Column Name")
    assert len(lines) == 2 + 54
    a2 = next(line for line in lines if line.startswith("district.A2"))
    assert a2.rstrip().endswith("district name")


def test_simplify_unknown_database_is_an_error(mini_bird_root, capsys):
    code, out, err = run_cli(
        capsys, "simplify", "--dataset", "bird", "--root", str(mini_bird_root),
        "--db", "ghost",
    )
    assert code == 1
    assert err.startswith("error:")
    assert "ghost" in err


def test_simplify_requires_dataset_flags(capsys):
    code, _, err = run_cli(capsys, "simplify", "--db", "financial")
    assert code == 1
    assert "--dataset" in err and "--root" in err


# ----- filter -----


def test_filter_reports_counts(mini_spider_root, capsys):
    code, out, err = run_cli(
        capsys, "filter", "--dataset", "spider", "--root", str(mini_spider_root),
    )
    assert code == 0
    assert out.strip() == "25 items, 2 databases"
    assert err.strip() == "dropped 5 items"


def test_filter_out_writes_jsonl(mini_spider_root, tmp_path, capsys):
    out_file = tmp_path / "kept.jsonl"
    code, _, _ = run_cli(
        capsys, "filter", "--dataset", "spider", "--root", str(mini_spider_root),
        "--out", str(out_file),
    )
    assert code == 0
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert len(rows) == 25
    assert all(row["gold_table_count"] >= 2 for row in rows)


# ----- run / score / diff -----


@pytest.fixture()
def oracle_run_args(mini_spider_root, oracle_cache_dir, tmp_path):
    config = {
        "dataset": "spider",
        "root": str(mini_spider_root),
        "method": "unjoin-mp",
        "model": ORACLE_MODEL,
        "cache_mode": "replay",
        "cache_dir": str(oracle_cache_dir),
        "workers": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return config_path


def test_run_replay_writes_outputs(oracle_run_args, tmp_path, capsys):
    out_dir = tmp_path / "run1"
    code, out, _ = run_cli(
        capsys, "run", "--config", str(oracle_run_args), "--out", str(out_dir),
    )
    assert code == 0
    assert out.startswith("25 items | QE 100.00 | EM 100.00")
    assert (out_dir / "records.jsonl").exists()
    assert (out_dir / "summary.json").exists()
    assert (out_dir / "buckets.csv").exists()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["metrics"]["qe"] == 100.0
    assert summary["metrics"]["em"] == 100.0
    assert [b["bucket"] for b in summary["buckets"]] == ["2", "3", "4", "5+"]


def test_run_replay_twice_is_byte_identical(oracle_run_args, tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in dirs:
        code, _, _ = run_cli(
            capsys, "run", "--config", str(oracle_run_args),
            "--out", str(out_dir), "--limit", "8",
        )
        assert code == 0
    blobs = [(d / "records.jsonl").read_bytes() for d in dirs]
    assert blobs[0] == blobs[1]
    summaries = [(d / "summary.json").read_bytes() for d in dirs]
    assert summaries[0] == summaries[1]


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_run_rejects_a_limit_below_one(oracle_run_args, tmp_path, capsys, limit):
    out_dir = tmp_path / "run"
    code, _, err = run_cli(
        capsys, "run", "--config", str(oracle_run_args), "--out", str(out_dir),
        "--limit", limit,
    )
    assert code == 1
    assert "--limit must be >= 1" in err
    assert not out_dir.exists()


def test_score_reemits_identical_summary(oracle_run_args, tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(oracle_run_args),
            "--out", str(out_dir), "--limit", "6")
    original = (out_dir / "summary.json").read_bytes()
    rescored = tmp_path / "rescored"
    rescored.mkdir()
    code, out, _ = run_cli(
        capsys, "score", "--records", str(out_dir / "records.jsonl"),
        "--out", str(rescored),
    )
    assert code == 0
    assert out.startswith("6 items | QE 100.00")
    assert (rescored / "summary.json").read_bytes() == original
    assert (rescored / "buckets.csv").read_bytes() == (out_dir / "buckets.csv").read_bytes()


def test_score_defaults_to_records_directory(oracle_run_args, tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(capsys, "run", "--config", str(oracle_run_args),
            "--out", str(out_dir), "--limit", "3")
    before = (out_dir / "summary.json").read_bytes()
    code, _, _ = run_cli(capsys, "score", "--records", str(out_dir / "records.jsonl"))
    assert code == 0
    assert (out_dir / "summary.json").read_bytes() == before


def test_diff_prints_deltas(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"metrics": {"qe": 90.0, "em": 80.0, "n": 10}}))
    b.write_text(json.dumps({"metrics": {"qe": 95.5, "em": 80.0, "n": 10}}))
    code, out, _ = run_cli(capsys, "diff", "--a", str(a), "--b", str(b))
    assert code == 0
    lines = out.strip().splitlines()
    assert "em: 80.0" in lines
    assert "qe: 90.0 -> 95.5 (+5.50)" in lines
    assert "n: 10" in lines


@pytest.mark.parametrize("method", ["unjoin-mp", "unjoin-sp", "cot"])
def test_run_drops_an_item_without_a_question(
        mini_spider_root, oracle_cache_dir, tmp_path, capsys, method):
    root = tmp_path / "root"
    shutil.copytree(mini_spider_root, root)
    dev = json.loads((root / "dev.json").read_text())
    dev[0]["question"] = "   "  # retail:0 joins two tables
    (root / "dev.json").write_text(json.dumps(dev))
    code, out, _ = run_cli(
        capsys, "run", "--dataset", "spider", "--root", str(root), "--method", method,
        "--model", ORACLE_MODEL, "--cache", "replay", "--cache-dir", str(oracle_cache_dir),
        "--workers", "1", "--out", str(tmp_path / "out"),
    )
    assert code == 0
    assert out.startswith("24 items")
    records = (tmp_path / "out" / "records.jsonl").read_text()
    assert '"retail:0"' not in records


# ----- error handling -----


def test_run_replay_without_cache_dir_fails(mini_spider_root, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "run", "--dataset", "spider", "--root", str(mini_spider_root),
        "--method", "cot", "--model", "m", "--cache", "replay",
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert err.startswith("error:")
    assert "cache" in err


def test_score_missing_file_fails(tmp_path, capsys):
    code, _, err = run_cli(capsys, "score", "--records", str(tmp_path / "nope.jsonl"))
    assert code == 1
    assert err.startswith("error:")


def test_score_of_a_file_without_records_fails(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_text('{"_meta": {"n_items": 0}}\n\n', encoding="utf-8")
    code, _, err = run_cli(capsys, "score", "--records", str(path))
    assert (code, err) == (1, f"error: no records in {path}\n")


# (command, the malformed file's text, the cause after its path)
MALFORMED_INPUTS = [
    ("score", '{"foo": 1}\n', "line 1 is not a record: KeyError: 'item_id'"),
    ("score", '{"_meta": {}}\n\n[1]\n', "line 3 is not a record: TypeError: not a JSON object"),
    ("score", '{"_meta": 5}\n', "line 1 is not a record: TypeError: _meta is not a JSON object"),
    ("score", "{\n", "line 1 is not a record: JSONDecodeError: Expecting property name "
                    "enclosed in double quotes: line 1 column 2 (char 1)"),
    ("diff", "[1, 2]", "does not hold a run summary: no metrics object"),
    ("diff", '{"metrics": [1]}', "does not hold a run summary: no metrics object"),
]


@pytest.mark.parametrize("command, body, cause", MALFORMED_INPUTS)
def test_malformed_input_exits_one_with_a_one_line_cause(tmp_path, capsys, command, body, cause):
    bad = tmp_path / "bad.json"
    bad.write_text(body, encoding="utf-8")
    if command == "score":
        argv = ["score", "--records", str(bad)]
    else:
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"metrics": {"qe": 1.0}}), encoding="utf-8")
        argv = ["diff", "--a", str(good), "--b", str(bad)]
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (1, f"error: {bad} {cause}\n")


def test_run_without_a_root_fails(capsys):
    code, _, err = run_cli(capsys, "run", "--method", "cot", "--cache", "live", "--model", "m")
    assert (code, err) == (1, "error: missing --root (or root in the config file)\n")


def test_run_with_no_item_left_after_filtering_fails(mini_spider_root, tmp_path, capsys):
    root = tmp_path / "root"
    shutil.copytree(mini_spider_root, root)
    (root / "dev.json").write_text(json.dumps([
        {"db_id": "retail", "question": "Names?", "query": "SELECT name FROM customer"}]))
    code, _, err = run_cli(capsys, "run", "--dataset", "spider", "--root", str(root),
                           "--method", "cot", "--cache", "live", "--model", "m",
                           "--out", str(tmp_path / "out"))
    assert (code, err) == (1, "error: no items left after filtering\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, cause", [
    ("[]", "config must be a JSON object, not list"),
    ('{"workers": "4"}', "config key 'workers' must be int, not str"),
    ('{"temperature": "0"}', "config key 'temperature' must be float, not str"),
    ('{"workers": true}', "config key 'workers' must be int, not bool"),
    ('{"root": null}', "config key 'root' must be str, not NoneType"),
])
def test_run_with_a_malformed_config_exits_one_with_its_cause(tmp_path, capsys, body, cause):
    config = tmp_path / "config.json"
    config.write_text(body, encoding="utf-8")
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 1
    assert err == f"error: {cause}\n"


def test_run_completes_when_sqlite_cannot_open_a_database_file(
        mini_spider_root, oracle_cache_dir, tmp_path, capsys):
    root = tmp_path / "root"
    shutil.copytree(mini_spider_root, root)
    (db_file,) = root.glob("**/academic.sqlite")
    db_file.unlink()
    db_file.mkdir()
    records = {}
    for name, run_root in (("intact", mini_spider_root), ("broken", root)):
        code, out, _ = run_cli(
            capsys, "run", "--dataset", "spider", "--root", str(run_root),
            "--method", "unjoin-sp", "--model", ORACLE_MODEL, "--cache", "replay",
            "--cache-dir", str(oracle_cache_dir), "--workers", "2", "--out", str(tmp_path / name),
        )
        assert code == 0
        assert out.startswith("25 items")
        lines = (tmp_path / name / "records.jsonl").read_text().splitlines()[1:]
        records[name] = [json.loads(line) for line in lines]
    predicted = 0  # academic items whose prediction ran on the intact copy
    for intact, broken in zip(records["intact"], records["broken"]):
        if broken["db_id"] == "academic":
            assert broken["gold_exec"]["status"] == "runtime_error"
            assert broken["gold_exec"]["error"] and not broken["qe"]
            if intact["pred_exec"] is not None:
                assert broken["pred_exec"]["status"] == "runtime_error"
                predicted += 1
        else:
            assert broken == intact
    assert predicted


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--dataset", "postgres"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_installed_entry_point(mini_spider_root):
    proc = subprocess.run(
        [sys.executable, "-m", "unjoin.cli", "filter",
         "--dataset", "spider", "--root", str(mini_spider_root)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "25 items, 2 databases"


# Runs every command that sends no request, then asserts that none of
# them loaded ``requests``. The last step is the control: a call to the
# default transport loads it, with an endpoint that has no URL scheme so
# ``requests`` rejects it before opening any connection.
_NO_REQUESTS_SCRIPT = """
import sys
from unjoin.cli import main
from unjoin.llm import LlmConfig, TransportError, default_transport

root, cache, out, model = sys.argv[1:]
for argv in (
    ["run", "--dataset", "spider", "--root", root, "--method", "unjoin-mp",
     "--model", model, "--cache", "replay", "--cache-dir", cache, "--out", out],
    ["score", "--records", out + "/records.jsonl"],
    ["filter", "--dataset", "spider", "--root", root],
    ["simplify", "--dataset", "spider", "--root", root, "--db", "retail"],
    ["diff", "--a", out + "/summary.json", "--b", out + "/summary.json"],
):
    assert main(argv) == 0, argv
print("after commands:", "requests" in sys.modules)
try:
    default_transport("p", LlmConfig(model=model, endpoint="no-scheme"))
except TransportError:
    pass
print("after transport:", "requests" in sys.modules)
"""


def test_commands_without_a_request_never_load_requests(
    mini_spider_root, oracle_cache_dir, tmp_path
):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _NO_REQUESTS_SCRIPT, str(mini_spider_root),
         str(oracle_cache_dir), str(tmp_path / "run"), ORACLE_MODEL],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "after commands: False" in lines
    assert lines[-1] == "after transport: True"
