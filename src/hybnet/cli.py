"""Command line interface.

Subcommands: solve, verify, aaf, displays, gen.  Exit codes: 0 success,
1 no solution within budget (or a failed check), 2 bad input, 3 time limit
hit, 4 internal error (an ``InternalInconsistency`` or any exception that is
not a ``HybnetError``), reported as one line without a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .aaf_search import enumerate_aafs
from .errors import (
    BudgetExceeded,
    HybnetError,
    InputError,
    InternalInconsistency,
    NoSolutionWithin,
)
from .networks import displays, emit, hybridization_number, network_from_json
from .solver import Instance, gen_random, solve
from .trees import parse_newick, serialize


def _read_trees(path: str, count: int = 3):
    try:
        text = Path(path).read_text(encoding="utf-8")
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if count is not None and len(lines) != count:
        raise InputError(f"{path}: expected {count} trees, found {len(lines)}")
    return [parse_newick(ln) for ln in lines]


def _read_network(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return network_from_json(text)
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: expected a network JSON dump: {exc}") from exc


def _cmd_solve(args) -> int:
    trees = _read_trees(args.file)
    inst = Instance.from_trees(*trees)
    trace = [] if args.trace else None
    try:
        sol = solve(inst, max_k=args.max_k, prune=not args.no_prune,
                    trace=trace, time_limit=args.time_limit)
    except NoSolutionWithin as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 3
    finally:
        for ev in trace or ():
            print(json.dumps(ev, ensure_ascii=False, sort_keys=True), file=sys.stderr)
    print(f"k={sol.k}")
    print(emit(sol.network, args.format))
    return 0


def _cmd_verify(args) -> int:
    net = _read_network(args.network)
    trees = _read_trees(args.trees)
    ok = True
    for i, t in enumerate(trees, 1):
        shown = displays(net, t)
        ok = ok and shown
        print(f"displays T{i}: {'yes' if shown else 'NO'}")
    print(f"hybridization number: {hybridization_number(net)}")
    return 0 if ok else 1


def _cmd_aaf(args) -> int:
    trees = _read_trees(args.file)
    inst = Instance.from_trees(*trees)
    n = 0
    for cand in enumerate_aafs(inst.reduced, args.k, prune=not args.no_prune):
        print(json.dumps(cand.describe(), ensure_ascii=False, sort_keys=True))
        n += 1
    print(f"{n} candidates", file=sys.stderr)
    return 0


def _cmd_displays(args) -> int:
    net = _read_network(args.network)
    (tree,) = _read_trees(args.tree, count=1)
    shown = displays(net, tree)
    print("yes" if shown else "no")
    return 0 if shown else 1


def _cmd_gen(args) -> int:
    inst = gen_random(args.n, args.moves, args.seed)
    for t in inst.trees:
        print(serialize(t))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hybnet",
        description="Minimum hybridization networks for three binary trees.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve an instance file (three Newick lines)")
    ps.add_argument("file")
    ps.add_argument("--max-k", type=int, default=8)
    ps.add_argument("--format", choices=("enewick", "dot", "json"), default="enewick")
    ps.add_argument("--trace", action="store_true", help="JSONL search trace on stderr")
    ps.add_argument("--no-prune", action="store_true",
                    help="disable the chain-count prune in the AAF search")
    ps.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    ps.set_defaults(func=_cmd_solve)

    pv = sub.add_parser("verify", help="check a network (JSON) against three trees")
    pv.add_argument("network")
    pv.add_argument("trees")
    pv.set_defaults(func=_cmd_verify)

    pa = sub.add_parser("aaf", help="dump candidate AAFs for a budget")
    pa.add_argument("file")
    pa.add_argument("--k", type=int, required=True)
    pa.add_argument("--no-prune", action="store_true")
    pa.set_defaults(func=_cmd_aaf)

    pd = sub.add_parser("displays", help="does the network (JSON) display the tree?")
    pd.add_argument("network")
    pd.add_argument("tree")
    pd.set_defaults(func=_cmd_displays)

    pg = sub.add_parser("gen", help="generate a random instance")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--moves", type=int, default=1)
    pg.add_argument("--seed", type=int, default=0)
    pg.set_defaults(func=_cmd_gen)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except HybnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
