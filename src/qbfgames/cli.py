"""Command line front end.

Subcommands: solve, replay, reduce, verify, gen, play.

Exit codes: 0 success, 2 malformed input or bad parameters, 3 node budget
exceeded, 4 illegal move during replay, 5 verification found a
winner-preservation disagreement.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .cnf import parse_dimacs
from .engine import (
    GameTrace,
    Goal,
    IllegalMoveError,
    Move,
    Player,
    Position,
    PositionFormatError,
    RulesetConfig,
    apply_move,
    final_winner,
    format_position,
    is_terminal,
    parse_position,
    parse_trace,
    replay,
)
from .fixtures import fixture_text
from .formula import FormulaError, is_decimal, simplify, to_text
from .generators import (
    enumerate_graphs_up_to,
    random_cnf,
    random_graph,
    random_positive_cnf,
)
from .reductions import (
    GraphFormatError,
    check_p2c,
    check_positive_cnf,
    check_qbf_cnf,
    check_snort,
    format_graph,
    parse_graph,
    p2c_to_position,
    positive_cnf_to_bpad,
    qbf_cnf_to_either_local_same,
    snort_to_position,
    toy_positive_equivalence_check,
)
from .solver import (
    DEFAULT_NODE_BUDGET,
    BudgetExceededError,
    NaiveLimitError,
    solve,
    solve_naive,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_ILLEGAL_MOVE = 4
EXIT_DISAGREEMENT = 5

INPUT_ERRORS = (
    PositionFormatError,
    FormulaError,
    GraphFormatError,
    NaiveLimitError,
    OSError,
    ValueError,
)


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _winner_line(config: RulesetConfig, player: Player) -> str:
    return f"winner: {player.name} ({config.player_label(player)})"


def _load_position(args) -> Position:
    position = parse_position(_read_file(args.position))
    config = position.config
    if args.ruleset:
        config = RulesetConfig.from_name(args.ruleset)
    mover = position.mover
    if getattr(args, "mover", None):
        mover = Player.P1 if args.mover == 1 else Player.P2
    if config is not position.config or mover is not position.mover:
        position = Position.initial(
            position.formula, position.n, config, position.assignment, mover
        )
    return position


def cmd_solve(args) -> int:
    position = _load_position(args)
    if args.naive:
        outcome = solve_naive(position)
    else:
        outcome = solve(position, node_budget=args.budget)
    pv = None if outcome.variation is None else [str(m) for m in outcome.variation]
    if args.json:
        payload = {
            "ruleset": position.config.name,
            "winner": outcome.winner.name,
            "winner_label": position.config.player_label(outcome.winner),
            "nodes": outcome.nodes,
            "pv": pv,
        }
        print(json.dumps(payload))
    else:
        print(f"ruleset: {position.config.name}")
        print(_winner_line(position.config, outcome.winner))
        print(f"nodes: {outcome.nodes}")
        if args.pv:
            print("pv: " + (" ".join(pv) if pv else "(none)"))
    return EXIT_OK


def _load_trace(name_or_path: str) -> GameTrace:
    if os.path.exists(name_or_path):
        return parse_trace(_read_file(name_or_path))
    try:
        return parse_trace(fixture_text(name_or_path))
    except KeyError:
        raise ValueError(
            f"no such file or bundled fixture: {name_or_path}"
        ) from None


def cmd_replay(args) -> int:
    trace = _load_trace(args.trace)
    config = trace.initial.config
    write = sys.stdout.write
    # Consecutive positions share their unchanged subtrees; one memo renders
    # each shared subtree once.
    memo = {}
    initial = to_text(trace.initial.formula, memo)
    if args.json:
        # written a step at a time, byte for byte as json.dump writes the
        # whole document, which would hold every step's residual at once
        write(f'{{"ruleset": {json.dumps(config.name)}, '
              f'"initial": {json.dumps(initial)}, "steps": [')
    else:
        write(f"ruleset: {config.name}\ninitial: {initial}\n")
    p, played, error = trace.initial, 0, None
    try:
        for move, p in replay(trace):
            text = to_text(p.formula, memo)
            # a step's root text is written once; the next step reuses only
            # the texts of the subtrees below it
            memo.pop(id(p.formula), None)
            mover = p.mover.opponent
            if args.json:
                step = {"mover": mover.name, "move": str(move), "formula": text}
                write((", " if played else "") + json.dumps(step))
            else:
                write(f"{played + 1:3}. {config.player_label(mover)} {move} -> {text}\n")
            played += 1
    except IllegalMoveError as e:
        error = e
    winner = final_winner(p) if error is None and is_terminal(p) else None
    if args.json:
        illegal = None if error is None else {
            "index": played, "move": str(error.move), "reason": error.reason,
        }
        won = None if winner is None else winner.name
        write(f'], "illegal": {json.dumps(illegal)}, "winner": {json.dumps(won)}}}\n')
    elif error is not None:
        print(f"illegal move at step {played + 1}: {error.move} ({error.reason})",
              file=sys.stderr)
    elif winner is not None:
        print(_winner_line(config, winner))
    else:
        print("no winner: final position is not terminal")
    return EXIT_OK if error is None else EXIT_ILLEGAL_MOVE


def cmd_reduce(args) -> int:
    text = _read_file(args.input)
    mover = Player.P2 if args.mover == 2 else Player.P1
    if args.kind == "snort":
        position = snort_to_position(parse_graph(text), mover)
    elif args.kind == "p2c":
        position = p2c_to_position(parse_graph(text))
    elif args.kind == "qbf":
        position = qbf_cnf_to_either_local_same(parse_dimacs(text))
    else:  # poscnf
        position = positive_cnf_to_bpad(parse_dimacs(text), mover)
    _write_output(format_position(position), args.output)
    return EXIT_OK


def _check_verify_bounds(args):
    """Reject counts and size bounds that would check nothing or could not
    be sampled from."""
    bounds = [("--count", args.count, 0)]
    if args.kind in ("snort", "p2c"):
        bounds.append(("--vertices", args.vertices, 0 if args.exhaustive else 1))
    else:
        bounds += [("--vars", args.vars, 1), ("--clauses", args.clauses, 1)]
    for option, value, low in bounds:
        if value < low:
            raise ValueError(f"{option} must be at least {low}, got {value}")


def _verify_instances(args, rng):
    """Yield (label, instance, check-result) triples for the chosen kind."""
    if args.kind in ("snort", "p2c"):
        check = check_snort if args.kind == "snort" else check_p2c
        if args.exhaustive:
            graphs = enumerate_graphs_up_to(args.vertices)
        else:
            graphs = (
                random_graph(rng, rng.randint(1, args.vertices), args.edge_prob)
                for _ in range(args.count)
            )
        for i, graph in enumerate(graphs):
            yield f"graph #{i}", graph, check(graph, node_budget=args.budget)
        return
    # built per call, so a generator or check patched after import is the one used
    draw, check, label = {
        "qbf": (random_cnf, check_qbf_cnf, "cnf"),
        "poscnf": (random_positive_cnf, check_positive_cnf, "instance"),
        "toy-poscnf": (random_positive_cnf, toy_positive_equivalence_check, "instance"),
    }[args.kind]
    for i in range(args.count):
        cnf = draw(rng, rng.randint(1, args.vars), rng.randint(1, args.clauses), args.width)
        yield f"{label} #{i}", cnf, check(cnf, node_budget=args.budget)


def cmd_verify(args) -> int:
    _check_verify_bounds(args)
    rng = random.Random(args.seed)
    checked = 0
    counterexample = None
    for label, instance, result in _verify_instances(args, rng):
        checked += 1
        if not result.agree:
            graph_kind = args.kind in ("snort", "p2c")
            text = format_graph(instance) if graph_kind else instance.to_dimacs()
            counterexample = (label, text, result)
            break
    agreements = checked if counterexample is None else checked - 1
    if args.json:
        payload = {
            "kind": args.kind,
            "checked": checked,
            "agreements": agreements,
            "counterexample": None
            if counterexample is None
            else {
                "label": counterexample[0],
                "instance": counterexample[1],
                "source_winner": counterexample[2].source.winner.name,
                "reduced_winner": counterexample[2].reduced.winner.name,
            },
        }
        print(json.dumps(payload))
    else:
        print(f"checked {checked} instance(s): {agreements} agree")
        if counterexample is not None:
            label, text, result = counterexample
            print(f"DISAGREEMENT on {label}:", file=sys.stderr)
            print(text.rstrip("\n"), file=sys.stderr)
            print(
                f"source winner {result.source.winner.name}, "
                f"reduced winner {result.reduced.winner.name}",
                file=sys.stderr,
            )
    return EXIT_OK if counterexample is None else EXIT_DISAGREEMENT


def cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    if args.kind == "graph":
        text = format_graph(random_graph(rng, args.vertices, args.edge_prob))
    else:
        draw = random_cnf if args.kind == "formula" else random_positive_cnf
        cnf = draw(rng, args.vars, args.clauses, args.width)
        text = cnf.to_dimacs(comment=f"seed {args.seed}")
    _write_output(text, args.output)
    return EXIT_OK


def _parse_human_move(line: str):
    tokens = line.strip().replace("=", " ").split()
    if len(tokens) != 2:
        return None
    var_tok, val_tok = tokens
    if var_tok.lower().startswith("x"):
        var_tok = var_tok[1:]
    if not is_decimal(var_tok):
        return None
    val_tok = val_tok.lower()
    if val_tok in ("t", "true", "1"):
        value = True
    elif val_tok in ("f", "false", "0"):
        value = False
    else:
        return None
    return Move(int(var_tok), value)


def cmd_play(args) -> int:
    position = parse_position(_read_file(args.position))
    # A file may hold assigned variables; `apply_move` keeps the fold from here.
    position = Position(simplify(position.formula, position.assignment), position.n,
                        position.assignment, position.config, position.mover)
    human = Player.P1 if args.human == 1 else Player.P2
    config = position.config
    print(f"ruleset: {config.name}")
    print(f"you play {human.name} ({config.player_label(human)})")
    while True:
        print(f"formula: {to_text(position.formula)}")
        if is_terminal(position):
            final = final_winner(position)
            if config.goal is Goal.SAME:
                if position.mover is human:
                    print("you have no legal moves; you lose.")
                else:
                    print("solver has no legal moves.")
            print(_winner_line(config, final))
            print("you win!" if final is human else "solver wins.")
            return EXIT_OK
        if position.mover is human:
            while True:
                try:
                    line = input(f"your move ({config.player_label(human)}), e.g. 'x3 T': ")
                except EOFError:
                    print("input closed; aborting.", file=sys.stderr)
                    return EXIT_INPUT
                move = _parse_human_move(line)
                if move is None:
                    print("could not read that; enter a variable and a value, e.g. 'x3 T'")
                    continue
                try:
                    position = apply_move(position, move)
                    break
                except IllegalMoveError as e:
                    print(f"illegal move: {e}")
        else:
            outcome = solve(position, node_budget=args.budget)
            move = outcome.variation[0]
            print(f"solver plays {move}")
            position = apply_move(position, move)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbfgames",
        description="Solve, replay, reduce, and generate formula-assignment games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="optimal-play winner of a position file")
    ps.add_argument("position", help="position file")
    ps.add_argument("--naive", action="store_true", help="use the unmemoized reference solver")
    ps.add_argument("--ruleset", help="override the file's ruleset, e.g. either-local-same")
    ps.add_argument("--mover", type=int, choices=(1, 2), help="override the player to move")
    ps.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="search node budget")
    ps.add_argument("--pv", action="store_true", help="print a principal variation")
    ps.add_argument("--json", action="store_true", help="machine-readable output")
    ps.set_defaults(func=cmd_solve)

    pr = sub.add_parser("replay", help="step through a trace file or bundled fixture")
    pr.add_argument("trace", help="trace file path or bundled fixture name")
    pr.add_argument("--json", action="store_true", help="machine-readable output")
    pr.set_defaults(func=cmd_replay)

    pd = sub.add_parser("reduce", help="translate a source-game instance into a position file")
    pd.add_argument("kind", choices=("snort", "p2c", "qbf", "poscnf"))
    pd.add_argument("input", help="graph file (snort, p2c) or DIMACS CNF (qbf, poscnf)")
    pd.add_argument("-o", "--output", help="output path (default stdout)")
    pd.add_argument(
        "--mover", type=int, choices=(1, 2), default=1,
        help="first player for snort/poscnf embeddings",
    )
    pd.set_defaults(func=cmd_reduce)

    pv = sub.add_parser("verify", help="dual-solve instances and check winner preservation")
    pv.add_argument("kind", choices=("snort", "p2c", "qbf", "poscnf", "toy-poscnf"))
    pv.add_argument("--count", type=int, default=100, help="random instances to check")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--vertices", type=int, default=4, help="graph size bound")
    pv.add_argument("--edge-prob", type=float, default=0.5)
    pv.add_argument(
        "--exhaustive", action="store_true",
        help="enumerate every graph up to --vertices instead of sampling",
    )
    pv.add_argument("--vars", type=int, default=5, help="variable bound for CNF kinds")
    pv.add_argument("--clauses", type=int, default=6, help="clause bound for CNF kinds")
    pv.add_argument("--width", type=int, default=3)
    pv.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    pv.add_argument("--json", action="store_true", help="machine-readable output")
    pv.set_defaults(func=cmd_verify)

    pg = sub.add_parser("gen", help="generate a random instance file")
    pg.add_argument("kind", choices=("formula", "poscnf", "graph"))
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--vars", type=int, default=7)
    pg.add_argument("--clauses", type=int, default=4)
    pg.add_argument("--width", type=int, default=3)
    pg.add_argument("--vertices", type=int, default=5)
    pg.add_argument("--edge-prob", type=float, default=0.5)
    pg.add_argument("-o", "--output", help="output path (default stdout)")
    pg.set_defaults(func=cmd_gen)

    pp = sub.add_parser("play", help="interactive game against the solver")
    pp.add_argument("position", help="position file")
    pp.add_argument("--human", type=int, choices=(1, 2), default=1, help="side you play")
    pp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    pp.set_defaults(func=cmd_play)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "budget", 0) < 0:
            raise ValueError(f"--budget must be at least 0, got {args.budget}")
        return args.func(args)
    except BudgetExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
