"""Seeded random instances and small-graph enumeration.

Every function takes a `random.Random` so callers control the seed; the CLI
funnels all of its randomness through one such generator per invocation.
"""

from __future__ import annotations

import itertools
import random

from .cnf import Cnf
from .reductions import Graph


def random_cnf(rng: random.Random, n: int, clauses: int, width: int = 3) -> Cnf:
    """Random CNF: `clauses` clauses of min(width, n) distinct variables,
    each negated by a coin flip."""
    if n <= 0:
        raise ValueError("need at least one variable")
    if clauses < 0 or width < 1:
        raise ValueError("clause count must be >= 0 and width >= 1")
    k = min(width, n)
    out = []
    for _ in range(clauses):
        chosen = rng.sample(range(n), k)
        out.append(tuple((var, rng.random() < 0.5) for var in sorted(chosen)))
    return Cnf(n, tuple(out))


def random_positive_cnf(rng: random.Random, n: int, clauses: int, width: int = 3) -> Cnf:
    """Random negation-free CNF: `clauses` clauses of min(width, n, 3)
    distinct variables, sorted."""
    if n <= 0:
        raise ValueError("need at least one variable")
    if clauses < 0 or width < 1:
        raise ValueError("clause count must be >= 0 and width >= 1")
    k = min(width, n, 3)
    out = [
        tuple((var, False) for var in sorted(rng.sample(range(n), k)))
        for _ in range(clauses)
    ]
    return Cnf(n, out)


def random_graph(rng: random.Random, n: int, edge_prob: float = 0.5) -> Graph:
    """Uncolored Erdos-Renyi style graph: each edge kept with edge_prob."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    # a generator, which `Graph` reads only once it holds the vertex count
    edges = ((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_prob)
    return Graph(n, edges)


def enumerate_graphs(n_vertices: int):
    """All uncolored graphs on exactly n_vertices labeled vertices."""
    pairs = list(itertools.combinations(range(n_vertices), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        yield Graph(n_vertices, edges)


def enumerate_graphs_up_to(max_vertices: int):
    """All uncolored graphs with 0..max_vertices labeled vertices."""
    for n in range(max_vertices + 1):
        yield from enumerate_graphs(n)
