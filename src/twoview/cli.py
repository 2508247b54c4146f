"""Command-line surface: prepare, train, eval, predict, export, check.

Every command takes ``--config PATH`` plus the global overrides ``--seed``
and ``--out``.  See the README for the config schema and file formats.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import chain
from pathlib import Path

from . import checkpoint as ckpt
from . import dataio, diagnostics
from .config import RunConfig, load_config
from .errors import TwoViewError, UnknownSymbolError
from .evaluation import (entity_typing_eval, long_tail_eval,
                         populate_relation_query, populate_triple_query,
                         top_tails, triple_completion_eval, typing_scores)
from .kb import VOCABS, CrossLinkStore, columns, dataset_stats, entity_frequency, load_kb
from .training import train


def _vocabs(data) -> dict:
    """The split's vocabulary per parameter table, as checkpoints key them."""
    return {name: getattr(data, name) for name in VOCABS}


def cmd_prepare(cfg: RunConfig) -> int:
    instance, ontology, links = cfg.require_raw_files()
    kb = load_kb(instance, ontology, links)
    data = dataio.prepare_splits(kb, cfg.split)
    out = cfg.split_dir or str(Path(cfg.output_dir) / "splits")
    dataio.write_split_dir(data, out, kb,
                           list(cfg.train.hierarchical_relations) or None)
    stats = dataset_stats(kb).to_dict()
    print(json.dumps(stats, indent=2, sort_keys=True))
    print(f"prepared splits in {out}")
    return 0


def _history_csv(path, history, weights, ha_mode) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "instance_loss", "ontology_loss",
                         "hierarchy_loss", "cross_loss", "intra_total", "total"])
        for i, rep in enumerate(history):
            writer.writerow([
                i, rep.instance_loss, rep.ontology_loss,
                "" if rep.hierarchy_loss is None else rep.hierarchy_loss,
                rep.cross_loss,
                rep.intra_total(weights, ha_mode),
                rep.total(weights, ha_mode),
            ])


def cmd_train(cfg: RunConfig) -> int:
    model, split_dir = cfg.require_model(), cfg.require_split_dir()
    data = dataio.load_split_dir(split_dir)
    if model.hierarchy_aware:
        dataio.check_hierarchy_file(split_dir, data, cfg.train.hierarchical_relations)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    hashes = {name: ckpt.vocab_hash(v) for name, v in _vocabs(data).items()}
    interval = cfg.train.checkpoint_interval

    def save_epoch(epoch, params, report):
        if interval and (epoch + 1) % interval == 0:
            ckpt.save_checkpoint(out / f"checkpoint_epoch{epoch + 1:04d}.ckpt",
                                 params, model, hashes, cfg.train.seed, epoch + 1)

    params, history = train(data, model, cfg.train, epoch_callback=save_epoch)
    ckpt.save_checkpoint(out / "checkpoint.ckpt", params, model, hashes,
                         cfg.train.seed, len(history))
    _history_csv(out / "history.csv", history, cfg.train.weights,
                 model.hierarchy_aware)
    last = history[-1]
    print(f"trained {model.variant} for {len(history)} epochs; "
          f"final total loss {last.total(cfg.train.weights, model.hierarchy_aware):.6f}")
    print(f"checkpoint: {out / 'checkpoint.ckpt'}")
    return 0


def _load_for_eval(cfg: RunConfig, checkpoint_path):
    data = dataio.load_split_dir(cfg.require_split_dir())
    params, model, header = ckpt.load_checkpoint(checkpoint_path)
    ckpt.check_vocab_hashes(header, _vocabs(data))
    return data, params, model


def _filter_stores(data, view, mode):
    """The stores ``mode`` filters by: none, the train split, or (strict)
    every split of ``view`` (links have no valid split)."""
    if mode == "none":
        return []
    parts = dataio.PARTS[view] if mode == "strict" else ("train",)
    return [getattr(data, f"{view}_{p}") for p in parts]


def cmd_eval(cfg: RunConfig, checkpoint_path, task: str,
             dump_ranks: bool = False) -> int:
    data, params, model = _load_for_eval(cfg, checkpoint_path)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    settings = cfg.eval
    reports = []
    if task == "triples":
        for view in ("instance", "ontology"):
            rep = triple_completion_eval(
                params, model.intra, getattr(data, f"{view}_test"),
                _filter_stores(data, view, settings.filter_mode),
                view=view, direction=settings.direction, ks=settings.ks)
            reports.append((f"report_triples_{view}.json", rep, columns(data, view)))
    elif task in ("typing", "longtail"):
        links = CrossLinkStore(chain.from_iterable(
            _filter_stores(data, "links", settings.filter_mode)))
        if task == "typing":
            rep = entity_typing_eval(params, model, data.links_test, links,
                                     ks=settings.ks)
        else:
            rep = long_tail_eval(params, model, data.links_test,
                                 entity_frequency(data.instance_train),
                                 settings.longtail_threshold, links, ks=settings.ks)
        reports.append((f"report_{task}.json", rep, columns(data, "links")))
    else:
        raise TwoViewError(f"unknown eval task {task!r}")

    for fname, rep, vocabs in reports:
        rep.variant, rep.filter_mode = model.variant, settings.filter_mode
        path = out / fname
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rep.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"{rep.task}: mrr={rep.mrr:.4f} "
              + " ".join(f"hits@{k}={v:.4f}" for k, v in sorted(rep.hits.items()))
              + f" n={rep.n_queries} -> {path}")
        if dump_ranks:
            dump = out / (fname.replace("report_", "ranks_")
                          .replace(".json", ".tsv"))
            with open(dump, "w", encoding="utf-8") as fh:
                for (query, gold), rank in zip(rep.queries, rep.ranks):
                    names = ["?" if i is None else v.name(i)
                             for i, v in zip(query, vocabs)]
                    # triples print as (h,r,?); typing queries as the entity
                    label = f"({','.join(names)})" if len(names) == 3 else names[0]
                    gold_name = vocabs[query.index(None)].name(gold)
                    fh.write(f"{label}\t{gold_name}\t{rank}\n")
    return 0


def _resolve(vocab, name: str, what: str) -> int:
    if name in vocab:
        return vocab.id(name)
    hints = [n for n in vocab.names if _edit_distance(n, name, 2) <= 2][:5]
    hint_text = f"; did you mean {hints}?" if hints else ""
    raise UnknownSymbolError(f"unknown {what} {name!r}{hint_text}")


def _edit_distance(a: str, b: str, limit: int) -> int:
    if abs(len(a) - len(b)) > limit:
        return limit + 1
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        if min(cur) > limit:
            return limit + 1
        prev = cur
    return prev[-1]


_ENTITY, _CONCEPT = ("entities", "entity"), ("concepts", "concept")

# kind -> the (vocabulary, label) of each name it takes, its answers' vocabulary
# and header, and answer(params, model, data, ids, k) -> (id, value) pairs
_QUERIES = {
    "type": ((_ENTITY,), "concepts", ("concept", "distance"),
             lambda params, model, data, ids, k: typing_scores(params, model, *ids)[:k]),
    "tail": ((_ENTITY, ("relations", "relation")), "entities", ("tail", "score"),
             lambda params, model, data, ids, k: top_tails(params, model.intra, *ids, k)),
    "meta": ((_CONCEPT, ("meta_relations", "meta-relation")), "concepts",
             ("concept", "score"),
             lambda params, model, data, ids, k: populate_triple_query(
                 params, model, *ids, k, filter_store=data.ontology_train)),
    "relquery": ((_CONCEPT, _CONCEPT), "relations", ("relation", "distance"),
                 lambda params, model, data, ids, k: populate_relation_query(
                     params, model, *ids, k)),
}


def cmd_predict(cfg: RunConfig, checkpoint_path, query: list[str], k: int,
                as_json: bool = False) -> int:
    kind, *names = query
    if kind not in _QUERIES:
        raise TwoViewError(f"unknown query kind {kind!r}")
    takes, answers, header, answer = _QUERIES[kind]
    if len(names) != len(takes):
        raise TwoViewError(f"query {kind!r} takes {len(takes)} name(s)")
    data, params, model = _load_for_eval(cfg, checkpoint_path)
    ids = [_resolve(getattr(data, vocab), name, label)
           for (vocab, label), name in zip(takes, names)]
    rows = [(getattr(data, answers).name(i), v)
            for i, v in answer(params, model, data, ids, k)]

    if as_json:
        print(json.dumps([{header[0]: n, header[1]: v} for n, v in rows],
                         indent=2))
    else:
        for i, (name, value) in enumerate(rows, 1):
            print(f"{i}\t{name}\t{value:.6f}")
    return 0


def cmd_export(cfg: RunConfig, checkpoint_path, what: str,
               out_file: str | None) -> int:
    data, params, model = _load_for_eval(cfg, checkpoint_path)
    table_name = "meta_relations" if what == "meta" else what
    if table_name not in VOCABS:
        raise TwoViewError(f"unknown export target {what!r}")
    vocab, table = getattr(data, table_name), params.table(table_name)
    path = Path(out_file) if out_file else Path(cfg.output_dir) / f"export_{what}.tsv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(table.shape[0]):
            values = "\t".join(repr(float(x)) for x in table[i])
            fh.write(f"{vocab.name(i)}\t{values}\n")
    print(f"wrote {table.shape[0]} rows to {path}")
    return 0


def cmd_check(probes: int, seed: int, checkpoint_path: str | None = None,
              cfg: RunConfig | None = None) -> int:
    if checkpoint_path:
        params, _, header = ckpt.load_checkpoint(checkpoint_path)
        if cfg is not None and cfg.split_dir:
            data = dataio.load_split_dir(cfg.split_dir)
            ckpt.check_vocab_hashes(header, _vocabs(data))
    results = diagnostics.run_all(n_probes=probes, seed=seed)
    if checkpoint_path:
        dev = diagnostics.norm_drift(params)
        results.append(diagnostics.CheckResult(
            "checkpoint-norms", dev < 1e-5,
            f"max |norm - 1| over entity/concept rows = {dev:.3g}"))
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        failed += not res.passed
    if failed:
        print(f"{failed} check(s) failed")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(parser):
    parser.add_argument("--config", required=True, help="config JSON path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override every seed in the config")
    parser.add_argument("--out", default=None, help="override output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoview",
        description="Joint embedding of two-view knowledge bases")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="split raw TSV files and write stats")
    _add_common(p)

    p = sub.add_parser("train", help="train a variant on a prepared split dir")
    _add_common(p)

    p = sub.add_parser("eval", help="run an evaluation task on a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task", required=True,
                   choices=("triples", "typing", "longtail"))
    p.add_argument("--dump-ranks", action="store_true",
                   help="also write per-query ranks as TSV")

    p = sub.add_parser("predict", help="answer a single query")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("query", nargs="+",
                   help="type <entity> | tail <head> <relation> | "
                        "meta <concept> <meta-relation> | "
                        "relquery <concept> <concept>")
    p.add_argument("-k", type=positive_int, default=10)
    p.add_argument("--json", action="store_true", dest="as_json")

    p = sub.add_parser("export", help="dump an embedding table as TSV")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--what", required=True,
                   choices=("entities", "concepts", "relations", "meta"))
    p.add_argument("--file", default=None, help="output file path")

    p = sub.add_parser("check", help="run the gradient/diagnostic suite")
    p.add_argument("--probes", type=positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None,
                   help="optional: split dir for checkpoint hash validation")
    p.add_argument("--checkpoint", default=None,
                   help="optional: also audit this checkpoint's norm constraint")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check":
            cfg = load_config(args.config) if args.config else None
            return cmd_check(args.probes, args.seed, args.checkpoint, cfg)
        cfg = load_config(args.config, seed_override=args.seed,
                          output_override=args.out)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, args.task, args.dump_ranks)
        if args.command == "predict":
            return cmd_predict(cfg, args.checkpoint, args.query, args.k,
                               args.as_json)
        if args.command == "export":
            return cmd_export(cfg, args.checkpoint, args.what, args.file)
        raise TwoViewError(f"unknown command {args.command!r}")
    except TwoViewError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
