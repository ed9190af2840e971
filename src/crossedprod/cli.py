"""Command-line interface emitting deterministic machine-readable documents.

Documents go to stdout (canonical JSON by default, human summaries with
``--out text``); timing and diagnostics go to stderr so that output bytes are
reproducible across runs and worker counts.

Exit codes: 0 success, 1 usage or input parsing, 2 size cap exceeded,
3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import __version__
from .classify import DEFAULT_PAIR_CAP, SystemSequence, _key_view, _system_block, classify
from .decompose import DecompositionTree, decompose, holder_enumerate, is_simple
from .errors import (
    AxiomViolationError,
    CapExceededError,
    CrossedProductError,
    InternalInvariantError,
    InvalidDescriptorError,
)
from .groups import (
    DEFAULT_MAX_GROUP_ORDER,
    automorphism_group,
    group_to_doc,
    identify_group,
    make_group,
)
from .morphisms import morphism_maps, stabilizes_ends
from .products import build_product, product_table_np
from .systems import system_from_doc, system_to_doc, validate_crossed_system, weak_action, cocycle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_INTERNAL = 3


@dataclass
class RunConfig:
    max_product_order: int = DEFAULT_PAIR_CAP
    max_group_order: int = DEFAULT_MAX_GROUP_ORDER
    output_format: str = "json"
    seed: int = 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text) if text.strip().isdigit() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _emit(doc: dict, cfg: RunConfig, render_text) -> None:
    if cfg.output_format == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(render_text(doc))


@contextmanager
def _input_nesting():
    """Report input nested past the recursion limit as an input error."""
    try:
        yield
    except RecursionError as exc:
        raise InvalidDescriptorError("input nests too deeply") from exc


def _load_spec(text: str, cfg: RunConfig):
    """Resolve table:@file descriptors, pass everything else through."""
    with _input_nesting():
        if text.startswith("table:@"):
            with open(text[len("table:@"):], "r", encoding="utf-8") as fh:
                return make_group(json.load(fh), max_order=cfg.max_group_order)
        return make_group(text, max_order=cfg.max_group_order)


def _load_system(arg: str, cfg: RunConfig):
    if not arg.startswith("@"):
        raise InvalidDescriptorError("system argument must be @<path>")
    with _input_nesting(), open(arg[1:], "r", encoding="utf-8") as fh:
        return system_from_doc(json.load(fh), max_order=cfg.max_group_order)


# subcommands -------------------------------------------------------------------


def _row_texts(rows: "np.ndarray") -> tuple[list[str], "np.ndarray"]:
    """The JSON text of each distinct uint8 row, and the index of each row's text."""
    distinct, index = np.unique(_key_view(rows), return_inverse=True)
    texts = [
        "[" + ",".join(map(str, row)) + "]"
        for row in distinct.view(np.uint8).reshape(-1, rows.shape[1]).tolist()
    ]
    return texts, index


def _write_systems_doc(systems: SystemSequence) -> None:
    """Write `enumerate`'s canonical JSON document straight from the key block.

    The bytes are those of `_emit` on the document with one dict per
    system, but each distinct action row and cocycle row is encoded once.
    Every key starts with its action rows, so an action's systems are one
    run of the sorted block; each run shares one `{"alpha":[...],"f":[`
    prefix and is written in one piece.
    """
    h, g, keys = systems.h, systems.g, systems._keys
    n, m = h.order, g.order
    h_text, g_text = (
        json.dumps(group_to_doc(x), sort_keys=True, separators=(",", ":")) for x in (h, g)
    )
    starts = np.flatnonzero(np.diff(systems._alpha_of, prepend=-1)).tolist()
    act_texts, act_of = _row_texts(keys[starts, :m * n].reshape(-1, n))
    f_texts, f_of = _row_texts(keys[:, m * n:].reshape(-1, m))
    f_words = np.array(f_texts, dtype=object)[f_of].reshape(-1, m)
    act_of = act_of.reshape(-1, m).tolist()
    tail = '],"g":' + g_text + ',"h":' + h_text + "}"
    write = sys.stdout.write
    write(f'{{"command":"enumerate","count":{len(keys)},"g":{g_text},"h":{h_text},"systems":[')
    for b, (start, end) in enumerate(zip(starts, starts[1:] + [len(keys)])):
        head = '{"alpha":[' + ",".join(map(act_texts.__getitem__, act_of[b])) + '],"f":['
        body = (tail + "," + head).join(map(",".join, f_words[start:end].tolist()))
        write(("," if b else "") + head + body + tail)
    write("]}\n")


def cmd_enumerate(args, cfg: RunConfig) -> int:
    h = _load_spec(args.h, cfg)
    g = _load_spec(args.g, cfg)
    systems = _system_block(h, g, cfg.max_product_order)
    if cfg.output_format == "json":
        _write_systems_doc(systems)
    else:
        sys.stdout.write(
            f"enumerate: {len(systems)} normalized crossed systems on ({h.name}, {g.name})\n"
        )
    return EXIT_OK


def cmd_classify(args, cfg: RunConfig) -> int:
    h = _load_spec(args.h, cfg)
    g = _load_spec(args.g, cfg)
    started = time.perf_counter()
    report = classify(h, g, args.relation, max_pair_order=cfg.max_product_order)
    elapsed = time.perf_counter() - started
    classes = []
    for ci, members in enumerate(report.classes):
        rep_sys = report.systems[report.representatives[ci]]
        classes.append(
            {
                "members": list(members),
                "representative": system_to_doc(rep_sys),
                "product": {
                    "name": report.product_iso_types[ci],
                    "order": h.order * g.order,
                },
            }
        )
    doc = {
        "command": "classify",
        "h": group_to_doc(h),
        "g": group_to_doc(g),
        "relation": report.relation,
        "system_count": len(report.systems),
        "class_count": len(report.classes),
        "classes": classes,
    }
    print(f"classify: {elapsed:.3f}s", file=sys.stderr)

    def text(d):
        lines = [
            f"classify {args.relation}: {d['system_count']} systems in "
            f"{d['class_count']} classes on ({h.name}, {g.name})"
        ]
        for ci, cls in enumerate(d["classes"]):
            lines.append(
                f"  class {ci}: size={len(cls['members'])} product={cls['product']['name']}"
            )
        return "\n".join(lines) + "\n"

    _emit(doc, cfg, text)
    return EXIT_OK


def cmd_build(args, cfg: RunConfig) -> int:
    sys_obj = _load_system(args.system, cfg)
    prod = build_product(sys_obj)
    doc = {
        "command": "build",
        "system": system_to_doc(sys_obj),
        "group": {
            "name": prod.group.name,
            "order": prod.group.order,
            "table": [list(row) for row in prod.group.table],
        },
        "iso_type": identify_group(prod.group),
        "is_abelian": prod.group.is_abelian,
        "unit_pair": list(prod.decode(0)),
        "element_pairs": [list(p) for p in prod.pair_of_index],
    }

    def text(d):
        return (
            f"build: {d['group']['name']} of order {d['group']['order']} "
            f"({d['iso_type']}), abelian={d['is_abelian']}\n"
        )

    _emit(doc, cfg, text)
    return EXIT_OK


def _tree_doc(node: DecompositionTree) -> dict:
    if node.is_leaf:
        return {
            "kind": "leaf",
            "group": group_to_doc(node.group),
            "order": node.group.order,
            "simple": is_simple(node.group),
        }
    return {
        "kind": "node",
        "group": group_to_doc(node.group),
        "order": node.group.order,
        "system": system_to_doc(node.system),
        "iso_to_parent": list(node.theta.map),
        "normal_part": _tree_doc(node.left),
        "quotient_part": _tree_doc(node.right),
    }


def cmd_decompose(args, cfg: RunConfig) -> int:
    g = _load_spec(args.group, cfg)
    tree = decompose(g)
    doc = {
        "command": "decompose",
        "group": group_to_doc(g),
        "leaf_orders": list(tree.leaf_orders()),
        "tree": _tree_doc(tree),
    }

    def text(d):
        return (
            f"decompose: {g.name} -> {len(d['leaf_orders'])} simple leaves "
            f"of orders {d['leaf_orders']}\n"
        )

    _emit(doc, cfg, text)
    return EXIT_OK


def cmd_morphisms(args, cfg: RunConfig) -> int:
    sys_a = _load_system(args.system_a, cfg)
    sys_b = _load_system(args.system_b, cfg)
    n, m = sys_a.h.order, sys_a.g.order
    entries = []
    for q, psi in morphism_maps(sys_a, sys_b):
        entries.append(
            {
                "u": list(q.u),
                "r": list(q.r),
                "v": list(q.v),
                "s": list(q.s.map),
                "psi": list(psi),
                "is_iso": len(set(psi)) == len(psi),
                "stabilizes_ends": stabilizes_ends(q, n, m),
            }
        )
    doc = {
        "command": "morphisms",
        "system_a": system_to_doc(sys_a),
        "system_b": system_to_doc(sys_b),
        "count": len(entries),
        "morphisms": entries,
    }

    def text(d):
        isos = sum(1 for e in d["morphisms"] if e["is_iso"])
        return f"morphisms: {d['count']} total, {isos} isomorphisms\n"

    _emit(doc, cfg, text)
    return EXIT_OK


def cmd_holder(args, cfg: RunConfig) -> int:
    pairs = holder_enumerate(args.n, args.m, dedupe=args.dedupe, cap=cfg.max_product_order)
    doc = {
        "command": "holder",
        "n": args.n,
        "m": args.m,
        "dedupe": bool(args.dedupe),
        "degenerate": args.n == 1,
        "pairs": [
            {"i": i, "j": j, "order": grp.order, "group": identify_group(grp)}
            for (i, j, grp) in pairs
        ],
    }

    def text(d):
        lines = [f"holder n={d['n']} m={d['m']}: {len(d['pairs'])} pairs"]
        for p in d["pairs"]:
            lines.append(f"  (i={p['i']}, j={p['j']}) -> {p['group']}")
        return "\n".join(lines) + "\n"

    _emit(doc, cfg, text)
    return EXIT_OK


def cmd_selfcheck(args, cfg: RunConfig) -> int:
    """Random cross-check: the pair table is associative iff the axioms hold."""
    rng = random.Random(cfg.seed)
    pool = [make_group(s) for s in ("cyclic:2", "cyclic:3", "cyclic:4", "product(cyclic:2,cyclic:2)")]
    started = time.perf_counter()
    disagreements = 0
    for _ in range(args.samples):
        h = rng.choice(pool)
        g = rng.choice(pool)
        auts = automorphism_group(h)
        perms = [rng.choice(auts).map for _ in range(g.order)]
        f_rows = [
            [rng.randrange(h.order) for _ in range(g.order)] for _ in range(g.order)
        ]
        table = product_table_np(
            h.table_array, g.table_array, np.array(perms, dtype=np.int64), np.array(f_rows, dtype=np.int64)
        )
        associative = bool(np.array_equal(table[table, :], table[:, table]))
        try:
            validate_crossed_system(h, g, weak_action(g, h, perms), cocycle(g, h, f_rows))
            accepted = True
        except AxiomViolationError:
            accepted = False
        if associative != accepted:
            disagreements += 1
    elapsed = time.perf_counter() - started
    print(f"selfcheck: {elapsed:.3f}s", file=sys.stderr)
    doc = {
        "command": "selfcheck",
        "samples": args.samples,
        "seed": cfg.seed,
        "disagreements": disagreements,
    }
    _emit(doc, cfg, lambda d: f"selfcheck: {d['samples']} samples, {d['disagreements']} disagreements\n")
    return EXIT_OK if disagreements == 0 else EXIT_INTERNAL


# wiring ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The argument parser of every subcommand, built once per process.

    Every call returns the same parser: `main` only parses with it, which
    leaves it unchanged, so in-process callers skip rebuilding the argparse
    tree on each call.  A one-shot CLI process builds it once either way.
    The parser binds no `cmd_*` function: `main` looks up
    `cmd_<subcommand>` in this module on every call, so replacing a `cmd_*`
    attribute after the parser is built changes what `main` calls.
    """
    parser = _Parser(prog="crossedprod", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", choices=("json", "text"), default="json")
    common.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                        help="accepted for compatibility; has no effect")
    common.add_argument("--max-order", type=_positive_int, default=DEFAULT_PAIR_CAP,
                        help="cap on |H|*|G| for enumeration-driven commands")
    common.add_argument("--max-group-order", type=_positive_int, default=DEFAULT_MAX_GROUP_ORDER)
    common.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("enumerate", parents=[common], help="list all normalized crossed systems")
    p.add_argument("--h", required=True, metavar="SPEC")
    p.add_argument("--g", required=True, metavar="SPEC")

    p = sub.add_parser("classify", parents=[common], help="partition systems under an equivalence")
    p.add_argument("--h", required=True, metavar="SPEC")
    p.add_argument("--g", required=True, metavar="SPEC")
    p.add_argument("--relation", choices=("eq1", "eq2", "iso"), required=True)

    p = sub.add_parser("build", parents=[common], help="build the product group of a system document")
    p.add_argument("--system", required=True, metavar="@FILE")

    p = sub.add_parser("decompose", parents=[common], help="decompose a group into simple leaves")
    p.add_argument("--group", required=True, metavar="SPEC")

    p = sub.add_parser("morphisms", parents=[common], help="enumerate morphisms between two products")
    p.add_argument("--system-a", required=True, metavar="@FILE")
    p.add_argument("--system-b", required=True, metavar="@FILE")

    p = sub.add_parser("holder", parents=[common], help="cyclic-by-cyclic presentation enumeration")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--dedupe", action="store_true")

    p = sub.add_parser("selfcheck", parents=[common], help="random associativity cross-check")
    p.add_argument("--samples", type=_positive_int, default=1000)

    return parser


def _error_doc(kind: str, exc: Exception) -> None:
    sys.stderr.write(
        json.dumps({"error": {"type": kind, "message": str(exc)}}, sort_keys=True) + "\n"
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _error_doc("usage", exc)
        return EXIT_USAGE
    cfg = RunConfig(
        max_product_order=args.max_order,
        max_group_order=args.max_group_order,
        output_format=args.out,
        seed=args.seed,
    )
    try:
        return globals()[f"cmd_{args.command}"](args, cfg)
    except CapExceededError as exc:
        _error_doc("cap-exceeded", exc)
        return EXIT_CAP
    except InternalInvariantError as exc:
        _error_doc("internal-invariant", exc)
        return EXIT_INTERNAL
    except (CrossedProductError, KeyError, OSError, ValueError) as exc:
        _error_doc("input", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
