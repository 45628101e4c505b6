"""Command-line interface.

Subcommands:
  simplify  print a database's flattened single-table schema
  filter    apply multi-table filtering and report item/database counts
  run       execute a method over the filtered items, writing records
  score     recompute summary and buckets from an existing records file
  diff      compare the metrics of two run summaries

Every command is randomness-free; runs in replay mode are reproducible
byte for byte from the cache. Errors exit nonzero with a one-line cause.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .dataset import (
    FLAVORS,
    METHODS,
    DatasetError,
    RunConfig,
    filter_items,
    load_dataset,
    load_retrieval_lists,
)
from .evaluation import (
    build_summary,
    read_records,
    write_bucket_csv,
    write_records,
    write_summary,
)
from .llm import CACHE_MODES, ExchangeCache, LlmClient, LlmError
from .pipeline import run_evaluation
from .schema import render_simplified, simplify_schema

# Schema, template and tokenizer errors are ValueErrors.
_ERRORS = (DatasetError, LlmError, ValueError, OSError)


def _add_dataset_args(p: argparse.ArgumentParser):
    p.add_argument("--dataset", choices=FLAVORS, help="benchmark flavor")
    p.add_argument("--root", help="benchmark root directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unjoin",
        description="Multi-table text-to-SQL via schema flattening, with evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simplify", help="print a database's simplified schema")
    _add_dataset_args(p)
    p.add_argument("--db", required=True, help="database id")
    p.add_argument(
        "--with-descriptions",
        action="store_true",
        help="attach column descriptions when the dataset ships them",
    )
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("filter", help="apply multi-table filtering and print counts")
    _add_dataset_args(p)
    p.add_argument("--out", help="write the kept items as JSON lines")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("run", help="run a method over the filtered items")
    _add_dataset_args(p)
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--cache", dest="cache_mode", choices=CACHE_MODES)
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--model")
    p.add_argument("--endpoint")
    p.add_argument("--workers", type=int)
    p.add_argument("--topk", type=int)
    p.add_argument("--retrieval", help="JSONL of ranked tables per question (open-book)")
    p.add_argument("--template-dir", dest="template_dir")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--exec-timeout", dest="exec_timeout_s", type=float)
    p.add_argument("--limit", type=int, help="run only the first N filtered items")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("score", help="recompute summary from a records file")
    p.add_argument("--records", required=True)
    p.add_argument("--out", help="output directory (defaults to the records file's)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("diff", help="compare two run summaries")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_diff)
    return parser


def _require(args, *names):
    missing = [n for n in names if not getattr(args, n, None)]
    if missing:
        raise DatasetError("missing required flags: " + ", ".join(f"--{n}" for n in missing))


def cmd_simplify(args) -> int:
    _require(args, "dataset", "root")
    bundle = load_dataset(args.root, args.dataset)
    db = bundle.catalogue.get(args.db)
    if db is None:
        raise DatasetError(f"unknown database {args.db!r}")
    descriptions = bundle.descriptions.get(args.db) if args.with_descriptions else None
    print(render_simplified(simplify_schema(db, descriptions)))
    return 0


def cmd_filter(args) -> int:
    _require(args, "dataset", "root")
    bundle = load_dataset(args.root, args.dataset)
    kept, dropped = filter_items(bundle.items, bundle.catalogue)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            for item in kept:
                fh.write(json.dumps(dataclasses.asdict(item), sort_keys=True) + "\n")
    databases = {item.db_id for item in kept}
    print(f"{len(kept)} items, {len(databases)} databases")
    if dropped:
        print(f"dropped {len(dropped)} items", file=sys.stderr)
    return 0


def _resolve_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    fields = set(RunConfig.__dataclass_fields__)
    overrides = {
        name: value
        for name, value in vars(args).items()
        if name in fields and value is not None
    }
    return dataclasses.replace(config, **overrides)


def cmd_run(args) -> int:
    config = _resolve_config(args)
    config.validate()
    if not config.root:
        raise DatasetError("missing --root (or root in the config file)")
    bundle = load_dataset(config.root, config.dataset)
    kept, _dropped = filter_items(bundle.items, bundle.catalogue)
    if args.limit:
        kept = kept[: args.limit]
    if not kept:
        raise DatasetError("no items left after filtering")
    retrieval = load_retrieval_lists(config.retrieval) if config.retrieval else None
    cache = ExchangeCache(config.cache_dir) if config.cache_dir else None
    client = LlmClient(config.llm_config(), cache)
    records, meta = run_evaluation(bundle, kept, config, client, retrieval)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_records(records, out_dir / "records.jsonl", meta)
    summary = build_summary(meta, records)
    write_summary(summary, out_dir / "summary.json")
    write_bucket_csv(summary["buckets"], out_dir / "buckets.csv")
    print(_metrics_line(summary["metrics"]))
    return 0


def cmd_score(args) -> int:
    meta, records = read_records(args.records)
    if not records:
        raise DatasetError(f"no records in {args.records}")
    out_dir = Path(args.out) if args.out else Path(args.records).parent
    summary = build_summary(meta, records)
    write_summary(summary, out_dir / "summary.json")
    write_bucket_csv(summary["buckets"], out_dir / "buckets.csv")
    print(_metrics_line(summary["metrics"]))
    return 0


def cmd_diff(args) -> int:
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    ma, mb = a.get("metrics", {}), b.get("metrics", {})
    keys = sorted(set(ma) | set(mb))
    for key in keys:
        va, vb = ma.get(key), mb.get(key)
        if va == vb:
            print(f"{key}: {va}")
        else:
            delta = ""
            if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
                delta = f" ({vb - va:+.2f})"
            print(f"{key}: {va} -> {vb}{delta}")
    return 0


def _metrics_line(metrics: dict) -> str:
    return (
        f"{metrics['n']} items | QE {metrics['qe']:.2f} | EM {metrics['em']:.2f} | "
        f"table P/R {metrics['table_precision']:.2f}/{metrics['table_recall']:.2f} | "
        f"column P/R {metrics['column_precision']:.2f}/{metrics['column_recall']:.2f}"
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
