"""Outside-in tracing of the program's public functions.

Each traced function is rebound, in this process only, in every
``unjoin`` module that holds a reference to it (and on its class, for
methods), to a wrapper that records one span per call: call count,
duration, and self time (duration minus the traced calls it made).
Spans are kept per thread and merged on read, so worker threads never
contend on shared counters. No source file of the program changes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
from time import perf_counter_ns

# (module, function or Class.method) pairs that are traced.
TRACED = (
    ("unjoin.tokens", "tokenize"),
    ("unjoin.sqlast", "parse"),
    ("unjoin.sqlref", "extract_refs"),
    ("unjoin.correction", "correct_identifiers"),
    ("unjoin.correction", "correct_identifiers_simplified"),
    ("unjoin.correction", "levenshtein"),
    ("unjoin.schema", "simplify_schema"),
    ("unjoin.schema", "render_simplified"),
    ("unjoin.schema", "render_original_schema"),
    ("unjoin.prompting", "build_sp_prompt"),
    ("unjoin.prompting", "build_mp_step1_prompt"),
    ("unjoin.prompting", "build_mp_step2_prompt"),
    ("unjoin.prompting", "build_baseline_prompt"),
    ("unjoin.prompting", "PromptTemplate.load"),
    ("unjoin.llm", "exchange_key"),
    ("unjoin.llm", "ExchangeCache.get"),
    ("unjoin.llm", "ExchangeCache.put"),
    ("unjoin.llm", "LlmClient.complete"),
    ("unjoin.llm", "extract_sql"),
    ("unjoin.llm", "extract_sql_blocks"),
    ("unjoin.evaluation", "execute"),
    ("unjoin.evaluation", "compare_results"),
    ("unjoin.evaluation", "has_top_level_order_by"),
    ("unjoin.pipeline", "run_method"),
    ("unjoin.pipeline", "evaluate_item"),
    ("unjoin.dataset", "load_dataset"),
    ("unjoin.dataset", "filter_items"),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix: 'tokens.tokenize', 'llm.ExchangeCache.get'."""
    return f"{module.split('.', 1)[1]}.{attr}"


class _Stat:
    __slots__ = ("durations", "self_ns")

    def __init__(self):
        self.durations: list[int] = []
        self.self_ns = 0


class Tracer:
    """Install with ``install()``, read with ``stats()``/``notes()``, undo with ``remove()``.

    ``hooks`` maps a span name to ``fn(notes, args, kwargs, result,
    elapsed_ns)``, called after each successful call on the calling
    thread; ``notes`` is that thread's dict of lists for derived counts.
    """

    def __init__(self, hooks=None):
        self.hooks = hooks or {}
        self._local = threading.local()
        self._shards: list[tuple[dict, dict]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _thread_state(self):
        local = self._local
        try:
            return local.stats, local.notes, local.stack
        except AttributeError:
            local.stats, local.notes, local.stack = {}, {}, []
            self._shards.append((local.stats, local.notes))  # list.append is atomic
            return local.stats, local.notes, local.stack

    def _wrap(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats, notes, stack = self._thread_state()
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat = stats.get(name)
                if stat is None:
                    stat = stats[name] = _Stat()
                stat.durations.append(elapsed)
                stat.self_ns += elapsed - child
            if hook is not None:
                hook(notes, args, kwargs, result, elapsed)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function the program still has.

        A function the program no longer defines is skipped and reports
        zero calls, so refactoring the program never breaks a traced run.
        """
        owners = {}
        for module_name in dict.fromkeys(m for m, _ in TRACED):
            try:
                owners[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        modules = [m for n, m in list(sys.modules.items())
                   if n == "unjoin" or n.startswith("unjoin.")]
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            owner_module = owners.get(module_name)
            if owner_module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner_module, cls_name, None)
                raw = vars(cls).get(meth) if cls is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, replacement)
                continue
            original = getattr(owner_module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def clear(self) -> None:
        """Forget every span and note recorded so far."""
        for stats, notes in self._shards:
            stats.clear()  # in place: threads keep their references
            notes.clear()

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, p50 duration in us, total self time in ms)."""
        merged: dict[str, _Stat] = {}
        for stats, _ in self._shards:
            for name, stat in stats.items():
                into = merged.setdefault(name, _Stat())
                into.durations.extend(stat.durations)
                into.self_ns += stat.self_ns
        out = {}
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            stat = merged.get(name)
            if stat is None or not stat.durations:
                out[name] = (0, 0.0, 0.0)
            else:
                out[name] = (len(stat.durations),
                             statistics.median(stat.durations) / 1e3,
                             stat.self_ns / 1e6)
        return out

    def notes(self, key: str) -> list:
        out = []
        for _, notes in self._shards:
            out.extend(notes.get(key, ()))
        return out
