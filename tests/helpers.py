"""Shared generators and slow reference predicates for the test suite."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from itertools import combinations
from math import gcd
from pathlib import Path

from wciq.complexes import Complex
from wciq.oracles import brute_force_representable

#: Strictly regular (20 heavy indices over 4 values). The vertex-level
#: family search (`oracles.mrv_family_search`) backtracks without end on
#: it; the image-set search builds a family in 6 nodes.
STUCK_FAMILY_PAIR = {
    "weights": [12, 8, 12, 1, 34, 8, 31, 12, 31, 31, 8, 8, 31, 1, 31, 12, 31,
                12, 8, 12],
    "degrees": [124, 62, 62, 124, 8, 36, 16, 32, 8, 16, 12, 36, 62, 24, 136,
                12, 62, 12, 8],
}

#: Strictly regular, yet no admissible family exists. Each of 30, 42, 70
#: admits only degree 210, so S_6, S_10 and S_14 each hold 210 and one
#: pair sum (72, 100, 112); their union has 4 members, but the domain at
#: face weight 2 has only 3.
TRIANGLE_PAIR = {"weights": [1, 30, 42, 70], "degrees": [210, 72, 100, 112]}

#: TRIANGLE_PAIR beside five copies of the coprime value 11 with sixteen
#: multiples of 11 as degrees. The image-set search refutes the triangle
#: once for each of the C(16, 5) image sets at face weight 11, so it
#: answers None only after 34,949 nodes.
BUDGET_FAMILY_PAIR = {
    "weights": TRIANGLE_PAIR["weights"] + [11] * 5,
    "degrees": TRIANGLE_PAIR["degrees"] + [11 * k for k in range(1, 17)],
}


def first_primes(k: int) -> list[int]:
    """The first k primes, by trial division."""
    primes: list[int] = []
    n = 2
    while len(primes) < k:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


def cofactor_pair(k: int) -> dict:
    """Weights 1, 1 and P/p for the first k primes p, P their product, with
    degrees P k times. The gcd of a set of cofactors is P over the product
    of its primes, so there are 2^k - 2 occurring face weights."""
    primes = first_primes(k)
    product = math.prod(primes)
    return {"weights": [1, 1] + [product // p for p in primes], "degrees": [product] * k}


def odd_primes_pair() -> dict:
    """Five ones and the 1,199 odd primes up to 9,733, with their sum as
    the one degree: 1,199 distinct heavy values."""
    weights = [1] * 5 + first_primes(1200)[1:]
    return {"weights": weights, "degrees": [sum(weights)]}


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """`python -W error *args` in a fresh interpreter that imports wciq
    from this checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def random_weights(rng: random.Random, *, max_len: int = 8,
                   max_value: int = 30) -> tuple[int, ...]:
    n = rng.randint(1, max_len)
    return tuple(rng.randint(1, max_value) for _ in range(n))


def random_complex(rng: random.Random, *, max_vertices: int = 8,
                   max_facets: int = 20) -> Complex:
    n = rng.randint(1, max_vertices)
    k = rng.randint(1, max_facets)
    facets = []
    for _ in range(k):
        size = rng.randint(1, n)
        facets.append(rng.sample(range(n), size))
    return Complex.from_facets(n, facets)


def subset_gcd(weights, subset) -> int:
    vals = [weights[i] for i in subset]
    g = 0
    for v in vals:
        g = gcd(g, v)
    return g


def all_faces_by_definition(weights, predicate):
    """Every index subset satisfying a downward-closed predicate, as a
    set of frozensets; the semantic ground truth for complex builders."""
    n = len(weights)
    out = set()
    for r in range(1, n + 1):
        for combo in combinations(range(n), r):
            if predicate(combo):
                out.add(frozenset(combo))
    return out


def faces_of(cx: Complex) -> set[frozenset[int]]:
    out: set[frozenset[int]] = set()
    for f in cx.facets:
        members = sorted(f)
        for r in range(1, len(members) + 1):
            for combo in combinations(members, r):
                out.add(frozenset(combo))
    return out


def brute_G(weights, degrees, subset) -> frozenset[int]:
    """1-based degree indices representable over the subset's weights."""
    vals = [weights[i] for i in subset]
    return frozenset(
        j for j, d in enumerate(degrees, 1)
        if brute_force_representable(d, vals))


def coprime_instance(rng: random.Random, t: int | None = None):
    """Random pair with pairwise coprime heavy values and one planted
    composite degree per heavy copy, so the strong construction is in
    scope: regular, pair-trivial, no linear cone, Fano index t."""
    values = rng.sample([2, 3, 5, 7, 11], rng.randint(2, 4))
    heavy: list[int] = []
    degrees: list[int] = []
    for v in values:
        m = rng.randint(1, 3)
        heavy.extend([v] * m)
        degrees.extend(v * rng.randint(2, 5) for _ in range(m))
    if t is None:
        t = rng.randint(1, 3)
    ones = sum(degrees) - sum(heavy) + t
    return tuple([1] * ones + heavy), tuple(degrees)
