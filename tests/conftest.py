"""Shared corpus builders for property and acceptance tests."""

import functools

from stableset.oracle import random_problem

DENSITIES = (0.2, 0.5, 0.8)


def corpus_digraphs(count=1002, max_n=10):
    """Deterministic mixed-density random digraphs, n cycling 1..max_n."""
    out = []
    for seed in range(count):
        n = 1 + seed % max_n
        density = DENSITIES[seed % len(DENSITIES)]
        out.append(random_problem(n, density, seed))
    return out


def corpus_tournaments(count=201, max_n=9):
    out = []
    for seed in range(count):
        n = 1 + seed % max_n
        out.append(random_problem(n, 1.0, seed, tournament=True))
    return out


@functools.lru_cache(maxsize=None)
def kernel_corpus():
    """Both corpora above plus seeded n = 50 and n = 200 instances: sparse
    (mean out-degree 1 and 4), dense (density 0.5) and tournaments."""
    out = corpus_digraphs() + corpus_tournaments()
    for n in (50, 200):
        for seed in range(2):
            out.append(random_problem(n, 1 / (n - 1), seed))
            out.append(random_problem(n, 4 / (n - 1), seed))
            out.append(random_problem(n, 0.5, seed))
            out.append(random_problem(n, 0.5, seed, tournament=True))
    return tuple(out)
