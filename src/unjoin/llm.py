"""Chat-completion client with deterministic record/replay caching.

Exchanges are keyed by a content hash of (prompt, model, temperature),
so identical prompts dedupe across items and runs. Each exchange lives
in its own JSON file under a content-addressed directory: corrupting
one file can affect at most one key. Replay mode never touches the
network; a missing key is a hard error that names the key.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import requests

from .sqlast import parse
from .tokens import KEYWORDS, OP, TokenizeError, tokenize

CACHE_MODES = ("record", "replay", "live")

API_KEY_ENV = "UNJOIN_API_KEY"


class LlmError(RuntimeError):
    """Any failure to obtain a completion."""


class TransportError(LlmError):
    """Network-level failure: connection, timeout, or 5xx. Retryable."""


class ReplayMissError(LlmError):
    def __init__(self, key: str):
        super().__init__(f"replay cache has no entry for key {key}")
        self.key = key


class CorruptCacheError(LlmError, ValueError):
    """A cache file that cannot be read as an exchange. Fails one item."""

    def __init__(self, path: Path, reason: str):
        super().__init__(f"corrupt cache file {path}: {reason}")
        self.path = path


class ExtractionError(ValueError):
    pass


@dataclass(frozen=True)
class LlmConfig:
    model: str
    endpoint: str = ""
    temperature: float = 0.0
    max_output_tokens: int = 1024
    timeout_s: float = 60.0
    retries: int = 2
    max_in_flight: int = 4


@dataclass(frozen=True)
class LlmExchange:
    key: str
    prompt: str
    completion: str
    latency_s: float = 0.0
    prompt_tokens: int | None = None
    completion_tokens: int | None = None


def exchange_key(prompt: str, cfg: LlmConfig) -> str:
    payload = json.dumps(
        {"prompt": prompt, "model": cfg.model, "temperature": cfg.temperature},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ExchangeCache:
    """One JSON file per exchange, sharded by the first two key hex chars."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> LlmExchange | None:
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            return LlmExchange(
                key=raw["key"],
                prompt=raw["prompt"],
                completion=raw["completion"],
                latency_s=raw.get("latency_s", 0.0),
                prompt_tokens=raw.get("prompt_tokens"),
                completion_tokens=raw.get("completion_tokens"),
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptCacheError(path, f"{type(exc).__name__}: {exc}") from exc

    def put(self, exchange: LlmExchange) -> None:
        path = self.path_for(exchange.key)
        record = {
            "key": exchange.key,
            "prompt": exchange.prompt,
            "completion": exchange.completion,
            "latency_s": exchange.latency_s,
            "prompt_tokens": exchange.prompt_tokens,
            "completion_tokens": exchange.completion_tokens,
        }
        body = json.dumps(record, ensure_ascii=False, indent=1)
        with self._lock:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(body, encoding="utf-8")
            os.replace(tmp, path)


def default_transport(prompt: str, cfg: LlmConfig) -> tuple[str, int | None, int | None]:
    """POST an OpenAI-style chat request; return (text, token counts)."""
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(API_KEY_ENV, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_output_tokens,
    }
    try:
        resp = requests.post(cfg.endpoint, json=payload, headers=headers, timeout=cfg.timeout_s)
    except requests.RequestException as exc:
        raise TransportError(str(exc)) from exc
    if resp.status_code >= 500:
        raise TransportError(f"server error {resp.status_code}")
    if resp.status_code != 200:
        raise LlmError(f"request rejected: {resp.status_code} {resp.text[:200]}")
    body = resp.json()
    try:
        text = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise LlmError(f"malformed completion response: {exc}") from exc
    usage = body.get("usage") or {}
    return text, usage.get("prompt_tokens"), usage.get("completion_tokens")


class LlmClient:
    """Thread-safe client; bounded number of concurrent network calls."""

    def __init__(self, cfg: LlmConfig, cache: ExchangeCache | None = None, transport=None):
        self.cfg = cfg
        self.cache = cache
        self.transport = transport or default_transport
        self._gate = threading.Semaphore(max(1, cfg.max_in_flight))

    def complete(self, prompt: str, cache_mode: str = "replay") -> str:
        if cache_mode not in CACHE_MODES:
            raise ValueError(f"unknown cache mode {cache_mode!r}")
        if cache_mode == "record" and self.cache is None:
            # Checked before the call: a paid completion must not be lost.
            raise ValueError("record mode requires a cache directory")
        key = exchange_key(prompt, self.cfg)
        if cache_mode == "replay":
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is None:
                raise ReplayMissError(key)
            return hit.completion
        if cache_mode == "record":
            hit = self.cache.get(key)
            if hit is not None:
                return hit.completion
        exchange = self._call(prompt, key)
        if cache_mode == "record":
            self.cache.put(exchange)
        return exchange.completion

    def _call(self, prompt: str, key: str) -> LlmExchange:
        attempts = self.cfg.retries + 1
        last: Exception | None = None
        for _ in range(attempts):
            started = time.monotonic()
            try:
                with self._gate:
                    text, ptok, ctok = self.transport(prompt, self.cfg)
                return LlmExchange(
                    key=key,
                    prompt=prompt,
                    completion=text,
                    latency_s=time.monotonic() - started,
                    prompt_tokens=ptok,
                    completion_tokens=ctok,
                )
            except TransportError as exc:
                last = exc
        raise TransportError(f"transport failed after {attempts} attempts: {last}")


# ----- completion post-processing -----

_FENCE_OPEN = "```"
_QUOTES = ("'", '"', "`", "[")
_LEADING_WORD = re.compile(r"\s*([A-Za-z_]\w*)")


def extract_sql_blocks(completion: str) -> list[str]:
    """Contents of every fenced code block, language tags stripped."""
    blocks = []
    rest = completion
    while True:
        start = rest.find(_FENCE_OPEN)
        if start < 0:
            break
        after = rest[start + 3 :]
        newline = after.find("\n")
        first_line = after[: newline if newline >= 0 else len(after)].strip()
        if newline >= 0 and (first_line == "" or first_line.isalnum()):
            after = after[newline + 1 :]  # drop the language tag line
        end = after.find(_FENCE_OPEN)
        if end < 0:
            content = after
            rest = ""
        else:
            content = after[:end]
            rest = after[end + 3 :]
        content = content.strip()
        if content:
            blocks.append(content)
        if not rest:
            break
    return blocks


def _first_keyword_suffix(text: str) -> str | None:
    lower = text.lower()
    best = None
    for kw in ("select", "with"):
        at = 0
        while True:
            pos = lower.find(kw, at)
            if pos < 0:
                break
            before_ok = pos == 0 or not (lower[pos - 1].isalnum() or lower[pos - 1] == "_")
            end = pos + len(kw)
            after_ok = end >= len(lower) or not (lower[end].isalnum() or lower[end] == "_")
            if before_ok and after_ok:
                if best is None or pos < best:
                    best = pos
                break
            at = pos + 1
    if best is None:
        return None
    return text[best:]


def _strip_trailing_prose(sql: str) -> str:
    semi = sql.find(";")
    if semi < 0:
        return sql.strip()
    head = sql[:semi]
    if any(q in head for q in _QUOTES):
        # The ';' may sit inside a literal or quoted name: cut at the
        # first one the tokenizer reads as an operator. Tokens stop where
        # the text turns unreadable (say, an apostrophe in trailing prose).
        try:
            toks, readable = tokenize(sql), True
        except TokenizeError as exc:
            toks, readable = tokenize(sql[: exc.offset]), False
        for tok in toks:
            if tok.kind == OP and tok.value == ";":
                return sql[: tok.end]
        # Every readable ';' is quoted. Unreadable text keeps the raw cut.
        return sql.strip() if readable else sql[: semi + 1]
    return sql[: semi + 1]


def _starts_with_prose(line: str) -> bool:
    word = _LEADING_WORD.match(line)
    return word is not None and word.group(1).lower() not in KEYWORDS


def _parsing_prefix(sql: str) -> str:
    """The longest whole-line prefix of ``sql`` that parses.

    A cut is made only before a line that starts with a word that is not
    a SQL keyword, so a query the parser rejects is never shortened into
    a different query. With no such prefix ``sql`` comes back unchanged.
    """
    lines = sql.split("\n")
    for end in range(len(lines), 0, -1):
        if end < len(lines) and not _starts_with_prose(lines[end]):
            continue
        head = "\n".join(lines[:end])
        try:
            parse(head)
        except ValueError:
            continue
        return head.strip()
    return sql


def trim_sql(text: str) -> str:
    """Cut anything after the first statement-terminating semicolon."""
    return _strip_trailing_prose(text).strip()


def extract_sql(completion: str) -> str:
    """Pull the SQL out of a model completion.

    First fenced code block wins when fences exist; otherwise the suffix
    starting at the first SELECT or WITH keyword, with prose after the
    terminating semicolon dropped. With no terminating semicolon either,
    lines of prose after the query are dropped: the suffix is cut to its
    longest whole-line prefix that parses.
    """
    blocks = extract_sql_blocks(completion)
    if blocks:
        return trim_sql(blocks[0])
    suffix = _first_keyword_suffix(completion)
    if suffix is None:
        raise ExtractionError("no SQL content found in completion")
    sql = trim_sql(suffix)
    return sql if sql.endswith(";") else _parsing_prefix(sql)
