"""Benchmark: replayed and recorded unjoin runs over generated workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each run generates its workload from the
seed (in a child process, so the generator's memory stays out of the
peak RSS), then runs sweeps until ``--seconds`` have passed. A sweep
runs, for every method of the workload, ``run_evaluation`` over the next
slice of distinct items, then ``write_records``/``build_summary``/
``write_summary``/``write_bucket_csv``; every fourth sweep is preceded by
a set-up as ``unjoin run`` does it (``load_dataset``, ``filter_items``,
cache and client construction).

Every output is checked against the generator's answers: final SQL and
(for the unjoin methods) intermediate SQL equal gold byte for byte, EM
and QE are 100%, and a repeated sweep writes identical records and
summary. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from an outside-in traced run with
``--trace 1``. The exit code is 0 only when every check held.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from generate import ORACLE_MODEL, WORKLOADS, prompt_digest
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
SRC = REPO / "src"

MIN_SWEEPS = 10
SETUP_EVERY = 4  # sweeps per set-up
UNJOIN_METHODS = ("unjoin-mp", "unjoin-sp")
ALL_METHODS = ("unjoin-mp", "unjoin-sp", "cot", "cot-ss")


def machine(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "seed": seed,
    }


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class OracleEndpoint:
    """Stub transport for record mode.

    Answers each prompt from the generator's oracle store after a fixed
    delay, and fails the first attempt of every prompt the generator
    flagged, so the client's retry path runs. Counts attempts, answered
    calls and time spent inside the endpoint.
    """

    def __init__(self, oracle_dir: Path, delay_s: float):
        self.oracle_dir = oracle_dir
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self._failed_once: set[str] = set()
        self.attempts = 0
        self.answered = 0
        self.wait_ns = 0

    def reset_failures(self) -> None:
        with self._lock:
            self._failed_once.clear()

    def reset_counts(self) -> None:
        with self._lock:
            self.attempts = self.answered = self.wait_ns = 0

    def __call__(self, prompt: str, cfg):
        from unjoin.llm import LlmError, TransportError

        start = time.perf_counter_ns()
        try:
            time.sleep(self.delay_s)
            key = prompt_digest(prompt)
            path = self.oracle_dir / f"{key}.json"
            if not path.exists():
                raise LlmError("oracle endpoint has no completion for this prompt")
            record = json.loads(path.read_text(encoding="utf-8"))
            with self._lock:
                self.attempts += 1
                fail = record["fail_first"] and key not in self._failed_once
                if fail:
                    self._failed_once.add(key)
                else:
                    self.answered += 1
            if fail:
                raise TransportError("injected first-attempt failure")
            return record["completion"], None, None
        finally:
            elapsed = time.perf_counter_ns() - start
            with self._lock:
                self.wait_ns += elapsed


class Workload:
    """One generated workload and the program objects that run it."""

    def __init__(self, name: str, gen_dir: Path, work: Path):
        self.spec = WORKLOADS[name]
        self.gen_dir = gen_dir
        self.work = work
        with open(gen_dir / "expected.json", encoding="utf-8") as fh:
            generated = json.load(fh)
        self.flavor = generated["flavor"]
        self.expected = generated["items"]
        self.traffic = generated["traffic"]
        self.record = self.spec["cache_mode"] == "record"
        self.cache_dir = work / "cache" if self.record else gen_dir / "cache"
        self.endpoint = (OracleEndpoint(gen_dir / "oracle", self.spec["delay_s"])
                         if self.record else None)
        self.bundle = None
        self.slices: list = []
        self.next_slice = 0

    def config(self, method: str):
        from unjoin.dataset import RunConfig

        return RunConfig(
            dataset=self.flavor,
            root=str(self.gen_dir / "root"),
            method=method,
            model=ORACLE_MODEL,
            cache_mode=self.spec["cache_mode"],
            cache_dir=str(self.cache_dir),
            workers=self.spec["workers"],
            out_dir=str(self.work / "out" / method),
        )

    def set_up(self) -> float:
        """What ``unjoin run`` does before the first item; returns seconds."""
        import unjoin.dataset as dataset
        import unjoin.llm as llm

        start = time.perf_counter()
        config = self.config(self.spec["methods"][0])
        config.validate()
        bundle = dataset.load_dataset(config.root, config.dataset)
        kept, _dropped = dataset.filter_items(bundle.items, bundle.catalogue)
        llm.LlmClient(config.llm_config(), llm.ExchangeCache(config.cache_dir), self.endpoint)
        elapsed = time.perf_counter() - start
        if sorted(item.item_id for item in kept) != sorted(self.expected):
            raise SystemExit("error: filter_items kept a different item set than generated")
        self.bundle = bundle
        n = self.spec["slice_items"]
        self.slices = [kept[i : i + n] for i in range(0, len(kept), n)]
        return elapsed

    def run_method(self, method: str, items) -> tuple[float, list, dict, float]:
        """One ``unjoin run`` of ``method`` over ``items``.

        Returns (seconds from run_evaluation start to outputs written,
        records, summary, seconds spent writing outputs).
        """
        import unjoin.evaluation as evaluation
        import unjoin.llm as llm
        import unjoin.pipeline as pipeline

        config = self.config(method)
        if self.record:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.endpoint.reset_failures()
        client = llm.LlmClient(config.llm_config(), llm.ExchangeCache(config.cache_dir),
                               self.endpoint)
        out = Path(config.out_dir)
        start = time.perf_counter()
        records, meta = pipeline.run_evaluation(self.bundle, items, config, client)
        written = time.perf_counter()
        out.mkdir(parents=True, exist_ok=True)
        evaluation.write_records(records, out / "records.jsonl", meta)
        summary = evaluation.build_summary(meta, records)
        evaluation.write_summary(summary, out / "summary.json")
        evaluation.write_bucket_csv(summary["buckets"], out / "buckets.csv")
        end = time.perf_counter()
        return end - start, records, summary, end - written

    def check(self, method: str, items, records, summary) -> tuple[int, list[str]]:
        """(failed item-runs, violations) against the generator's answers."""
        violations = []
        if [r.item_id for r in records] != [i.item_id for i in items]:
            violations.append(f"{method}: records do not match the items run, in order")
        failed = 0
        for record in records:
            want = self.expected.get(record.item_id)
            got = record.prediction
            if (
                want is None
                or got["failed"]
                or got["final_sql"] != want["gold"]
                or (method in UNJOIN_METHODS and got["intermediate_sql"] != want["simplified"])
                or not (record.qe and record.em)
            ):
                failed += 1
        metrics = summary["metrics"]
        if failed == 0 and not (metrics["n"] == len(items) and metrics["em"] == 100.0
                                and metrics["qe"] == 100.0):
            violations.append(f"{method}: summary disagrees with its records: {metrics}")
        return failed, violations

    def output_digests(self, method: str) -> tuple[str, str]:
        out = Path(self.config(method).out_dir)
        return digest(out / "records.jsonl"), digest(out / "summary.json")


class Rounds:
    """Timed loop of sweeps until the time is up.

    A sweep runs every method of the workload over the next slice of
    distinct items, as ``unjoin run`` would; every few sweeps a set-up
    runs first. Interleaving set-ups with sweeps lets both sample the
    same stretches of a machine whose speed drifts.
    """

    def __init__(self, workload: Workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.setup_s: list[float] = []
        self.items = {m: 0 for m in workload.spec["methods"]}
        self.seconds = {m: 0.0 for m in workload.spec["methods"]}
        self.sweep_rates: list[float] = []
        self.write_ms: list[float] = []
        self.substitutions = 0
        self.typos = 0
        self.typos_repaired = 0
        self.first_digests: dict = {}

    def items_per_s(self, method: str | None = None) -> float:
        methods = [method] if method else list(self.items)
        return sum(self.items[m] for m in methods) / sum(self.seconds[m] for m in methods)

    def sweep(self, items) -> None:
        w = self.w
        sweep_items, sweep_s = 0, 0.0
        for method in w.spec["methods"]:
            seconds, records, summary, write_s = w.run_method(method, items)
            failed, violations = w.check(method, items, records, summary)
            self.failed += failed
            self.attempted += len(records)
            self.violations += violations
            self.items[method] += len(records)
            self.seconds[method] += seconds
            sweep_items += len(records)
            sweep_s += seconds
            self.write_ms.append(write_s * 1e3)
            self.count_repairs(method, records)
            if method not in self.first_digests:
                self.first_digests[method] = w.output_digests(method)
        self.sweep_rates.append(sweep_items / sweep_s)

    def count_repairs(self, method: str, records) -> None:
        stages = {"unjoin-mp": (("unjoin-mp:1", "intermediate_report"),
                                ("unjoin-mp:2", "final_report"))}
        for record in records:
            typos = self.w.expected[record.item_id]["typos"]
            for report_key in ("intermediate_report", "final_report"):
                report = record.prediction[report_key]
                if report:
                    self.substitutions += len(report["substitutions"])
            for stage, report_key in stages.get(method, ((method, "final_report"),)):
                report = record.prediction[report_key] or {"substitutions": []}
                made = {(s[0].lower(), s[1]) for s in report["substitutions"]}
                for typo, intended in typos.get(stage, ()):
                    self.typos += 1
                    self.typos_repaired += (typo, intended) in made

    def next_sweep(self, set_up: bool = True) -> None:
        w = self.w
        if set_up:
            self.setup_s.append(w.set_up())
        self.sweep(w.slices[w.next_slice % len(w.slices)])
        w.next_slice += 1

    def run(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while len(self.sweep_rates) < MIN_SWEEPS or time.perf_counter() < deadline:
            self.next_sweep(set_up=len(self.sweep_rates) % SETUP_EVERY == 0)

    def check_repeatable(self) -> None:
        """A second sweep over the first slice must write identical files."""
        w = self.w
        for method in w.spec["methods"]:
            w.run_method(method, w.slices[0])
            if w.output_digests(method) != self.first_digests[method]:
                self.violations.append(f"{method}: repeated sweep wrote different outputs")


def per_layer(workload: Workload, tracer, spans: dict, traced: Rounds, untraced: Rounds) -> dict:
    item_runs = traced.attempted
    metrics = {}
    for name, (calls, p50_us, self_ms) in spans.items():
        metrics[f"{name}.calls_per_item"] = (calls / item_runs, "count")
        metrics[f"{name}.us_p50"] = (p50_us, "us")
        metrics[f"{name}.self_ms_per_item"] = (self_ms / item_runs, "ms")
    metrics["prompting.template_loads_per_item"] = (
        metrics["prompting.PromptTemplate.load.calls_per_item"][0], "count")
    metrics["correction.substitutions_per_item"] = (traced.substitutions / item_runs, "count")
    metrics["correction.repair_hit_ratio"] = (
        traced.typos_repaired / traced.typos if traced.typos else 1.0, "ratio")

    hits = tracer.notes("cache_hit")
    metrics["llm.cache_hit_ratio"] = (sum(hits) / len(hits) if hits else 0.0, "ratio")
    endpoint = workload.endpoint
    attempts, answered, wait_ns = (
        (endpoint.attempts, endpoint.answered, endpoint.wait_ns) if endpoint else (0, 0, 0))
    metrics["llm.transport_attempts_per_call"] = (attempts / answered if answered else 0.0,
                                                  "ratio")
    # The endpoint serves untraced and traced sweeps alike.
    metrics["llm.transport_wait_ms_per_item"] = (
        wait_ns / 1e6 / (item_runs + untraced.attempted), "ms")

    keys = tracer.notes("execute_key")
    by_sweep: dict = {}
    for sweep_no, key in keys:
        by_sweep.setdefault(sweep_no, []).append(key)
    repeats = sum(len(k) - len(set(k)) for k in by_sweep.values())
    metrics["evaluation.execute_repeat_share"] = (repeats / len(keys) if keys else 0.0, "ratio")
    metrics["evaluation.write_outputs_ms"] = (statistics.median(traced.write_ms), "ms")

    item_ms = [ns / 1e6 for ns in tracer.notes("item_ns")]
    metrics["pipeline.item_ms_p50"] = (statistics.median(item_ms), "ms")
    metrics["pipeline.item_ms_p99"] = (statistics.quantiles(item_ms, n=100)[98], "ms")
    for method in ALL_METHODS:
        rate = untraced.items_per_s(method) if method in untraced.items else 0.0
        metrics[f"pipeline.items_per_s.{method}"] = (rate, "1/s")
    metrics["pipeline.trace_overhead_ratio"] = (
        traced.items_per_s() / untraced.items_per_s(), "ratio")
    metrics["pipeline.failed_share"] = (
        (traced.failed + untraced.failed) / (traced.attempted + untraced.attempted), "ratio")
    for key, value in workload.traffic.items():
        metrics[f"workload.{key}"] = (value, "ratio" if key.endswith("share") else "count")
    return metrics


def make_tracer(state: dict):
    def on_get(notes, args, kwargs, result, elapsed):
        notes.setdefault("cache_hit", []).append(result is not None)

    def on_execute(notes, args, kwargs, result, elapsed):
        # The arguments name the (sql, db) pair; repr keeps this signature-agnostic.
        key = repr((args, sorted(kwargs.items())))
        notes.setdefault("execute_key", []).append((state["sweep"], key))

    def on_run_method(notes, args, kwargs, result, elapsed):
        notes["pending_ns"] = elapsed

    def on_evaluate_item(notes, args, kwargs, result, elapsed):
        notes.setdefault("item_ns", []).append(notes.pop("pending_ns", 0) + elapsed)

    return Tracer({
        "llm.ExchangeCache.get": on_get,
        "evaluation.execute": on_execute,
        "pipeline.run_method": on_run_method,
        "pipeline.evaluate_item": on_evaluate_item,
    })


def traced_run(workload: Workload, untraced: Rounds, traced: Rounds, seconds: float) -> dict:
    """Per-layer metrics: untraced and traced sweeps alternate until the time is up.

    Alternating lets both kinds of sweep sample the same stretches of the
    machine, so their ratio is the tracing overhead and not its drift.
    The dataset layer's spans come from one traced set-up before the
    sweeps, which run without set-ups, so per-item counts exclude it.
    """
    state = {"sweep": 0}
    tracer = make_tracer(state)
    tracer.install()
    try:
        workload.set_up()
    finally:
        tracer.remove()
    setup_spans = {k: v for k, v in tracer.stats().items() if k.startswith("dataset.")}
    tracer.clear()
    if workload.endpoint:
        workload.endpoint.reset_counts()
    deadline = time.perf_counter() + seconds
    while len(traced.sweep_rates) < MIN_SWEEPS or time.perf_counter() < deadline:
        untraced.next_sweep(set_up=False)
        state["sweep"] += 1
        tracer.install()
        try:
            traced.next_sweep(set_up=False)
        finally:
            tracer.remove()
    return per_layer(workload, tracer, {**tracer.stats(), **setup_spans}, traced, untraced)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def bench(args, work: Path) -> int:
    gen_dir = work / "gen"
    subprocess.run(
        [sys.executable, str(BENCH / "generate.py"), args.workload, str(args.seed), str(gen_dir)],
        check=True, timeout=150,
    )
    workload = Workload(args.workload, gen_dir, work)
    print("machine " + json.dumps(machine(args.seed), sort_keys=True))
    print(f"workload {args.workload} " + json.dumps(
        {**WORKLOADS[args.workload], "items": len(workload.expected), **workload.traffic},
        sort_keys=True))

    untraced = Rounds(workload)
    runs = [untraced]
    if args.trace:
        traced = Rounds(workload)
        runs.append(traced)
        metrics = traced_run(workload, untraced, traced, args.seconds)
        untraced.check_repeatable()
    else:
        untraced.run(args.seconds)
        untraced.check_repeatable()
        metrics = {
            "items_per_s": (statistics.quantiles(untraced.sweep_rates, n=10)[0], "1/s"),
            "setup_s": (statistics.median(untraced.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    violations = [v for r in runs for v in r.violations]
    for violation in violations:
        print(f"violation: {violation}", file=sys.stderr)
    deciles = statistics.quantiles(untraced.sweep_rates, n=10)
    print(f"failed_share {failed / attempted} ratio ({failed}/{attempted} item-runs)")
    print(f"sweeps {len(untraced.sweep_rates)} item-runs/s: overall {untraced.items_per_s():.1f}, "
          f"per sweep p10 {deciles[0]:.1f} p50 {statistics.median(untraced.sweep_rates):.1f} "
          f"p90 {deciles[-1]:.1f}")
    correct = failed == 0 and not violations
    emit(correct, attempted, failed, metrics)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "unjoin" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    scratch = REPO / ".bench_run"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
