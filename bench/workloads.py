"""Seeded workload generators.

Generation is pure Python and never imports wciq, so the library sees only
the finished inputs. Every workload is a stream of blocks; each block has a
fixed composition of rungs (the seed only picks the concrete numbers and
the order inside the block), so two seeds run the same mix and a run that
ends on a block boundary repeats its decided share exactly.

Rungs per workload, and why they are in the block:

* padded: construction-in-scope pairs, four distinct primes from
  {2, 3, 5, 7, 11} with m = 1..3 copies each, degrees planted as multiples
  of each copy, padded with a fixed number of weight-1 indices. The "over" rung has
  21 heavy vertices, past the 20-vertex limit of minimal non-face
  enumeration, so analyze exits 3 on it today.
* large-degree: 3-5 values that share prime factors, 3 ones, six degrees
  between 10^4 and 10^6 that no single value divides. The "cap" rung moves
  one degree above the default dp cap, where membership answers UNKNOWN.
* realized: a random complex whose facets take one vertex of each colour;
  the colouring is a planted non-contracting map onto a simplex, realized
  by primes. The nef mode cycles through strong, nice and any.
* cli-cold: small construction-in-scope pairs run as cold subprocesses,
  with one in five a little larger so that the p90 is set by compute.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

PRIMES = (2, 3, 5, 7, 11)
SHARED = (6, 10, 14, 15, 21, 35)
MODES = ("strong", "nice", "any")
DP_CAP = 1_000_000

#: Composition of one block per workload; a run executes whole blocks.
BLOCKS = {
    "padded": ["m1"] * 30 + ["m2"] * 4 + ["m3"] * 5 + ["over"],
    "large-degree": ["k3"] * 6 + ["k4"] * 6 + ["k5"] * 7 + ["cap"],
    "realized": [f"{mode}:{shape}" for mode in MODES
                 for shape in ("plain", "plain", "pad")],
    "cli-cold": ["small2", "small3"] * 4 + ["medium"] * 2,
}
WORKLOADS = tuple(BLOCKS)

#: Wall-clock limit per item. Every decided item at the time the benchmark
#: was written finishes in under a fifth of its workload's limit.
ITEM_LIMIT_S = {"padded": 20.0, "large-degree": 15.0, "realized": 15.0, "cli-cold": 15.0}

#: Weight-1 padding and heavy multiplicities per padded rung.
_PADDED_ONES = {"m1": 120, "m2": 120, "m3": 120, "over": 100}
_PADDED_MULTS = {"m1": (1,) * 4, "m2": (2,) * 4, "m3": (3,) * 4, "over": (6, 5, 5, 5)}

#: (vertices, colours, facets, pad) of the realized source complexes.
_REALIZED_SHAPES = {"plain": (6, 3, 4, 0), "pad": (6, 3, 4, 1)}


@dataclass
class Item:
    """One unit of work: `payload` is what the library is given, `expect`
    holds answers planted by the generator for the referee."""

    id: int
    workload: str
    rung: str
    payload: dict
    expect: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"id": self.id, "workload": self.workload, "rung": self.rung,
                           "payload": self.payload, "expect": self.expect},
                          sort_keys=True)


def _in_scope_pair(rng: random.Random, mults, ones: int, ks=(2, 5), primes=PRIMES):
    """Coprime heavy values with planted multiples as degrees.

    Each heavy copy of value v gets a degree v*k; the leftover ones make the
    Fano index positive, so the strong construction applies (regular,
    pair-trivial, no linear cone)."""
    values = sorted(rng.sample(primes, len(mults)))
    copies = [(v, rng.randint(*ks)) for v, m in zip(values, mults) for _ in range(m)]
    # Trim multipliers until the planted degrees leave room for the ones.
    while sum(v * (k - 1) for v, k in copies) >= ones:
        at = max(range(len(copies)), key=lambda i: (copies[i][0] * (copies[i][1] - 1), -i))
        v, k = copies[at]
        if k == 2:
            raise ValueError(f"{ones} ones cannot pad multiplicities {mults}")
        copies[at] = (v, k - 1)
    heavy = [v for v, _ in copies]
    degrees = [v * k for v, k in copies]
    return [1] * ones + heavy, degrees


def _padded(rng: random.Random, rung: str) -> tuple[dict, dict]:
    # The 21-vertex rung uses the four smallest primes and doubled degrees,
    # the cheapest in-scope pair of its shape.
    extra = {"ks": (2, 2), "primes": PRIMES[:4]} if rung == "over" else {}
    weights, degrees = _in_scope_pair(rng, _PADDED_MULTS[rung], _PADDED_ONES[rung], **extra)
    payload = {"weights": weights, "degrees": degrees, "mode": "strong"}
    return payload, {"in_scope": True, "heavy_vertices": sum(_PADDED_MULTS[rung])}


def _log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _large_degree(rng: random.Random, rung: str) -> tuple[dict, dict]:
    k = rng.choice((3, 4, 5)) if rung == "cap" else int(rung[1:])
    values = sorted(rng.sample(SHARED, k))
    # One degree within 10% of each of six log-spaced centres, so every item
    # spans 10^4..10^6 and items of one rung cost about the same.
    centres = [1e4 * 100 ** ((i + 0.5) / 6) for i in range(6)]
    bins = [(c * 0.9, c * 1.1) for c in centres]
    if rung == "cap":
        bins[-1] = (DP_CAP * 1.01, DP_CAP * 10)
    degrees = []
    for lo, hi in bins:
        d = _log_uniform(rng, lo, hi)
        while any(d % v == 0 for v in values):
            d += 1
        degrees.append(d)
    rng.shuffle(degrees)
    # Strong mode: no value divides a degree, so the partition search is
    # trivial and membership tables dominate.
    payload = {"weights": [1, 1, 1] + values, "degrees": degrees, "mode": "strong"}
    return payload, {"beyond_cap": rung == "cap"}


def _realized(rng: random.Random, rung: str) -> tuple[dict, dict]:
    mode, shape = rung.split(":")
    n, k, n_facets, pad = _REALIZED_SHAPES[shape]
    # n/k vertices per colour; the first n/k facets take one vertex of each
    # colour in turn, so every vertex is covered, and the rest are distinct
    # random rainbow facets. Every facet has k vertices of k colours.
    colours = [v % k for v in range(n)]
    rng.shuffle(colours)
    by_colour = [[v for v in range(n) if colours[v] == c] for c in range(k)]
    for vs in by_colour:
        rng.shuffle(vs)
    facets = [sorted(vs[i] for vs in by_colour) for i in range(n // k)]
    while len(facets) < n_facets:
        facet = sorted(rng.choice(vs) for vs in by_colour)
        if facet not in facets:
            facets.append(facet)
    payload = {"n_vertices": n, "facets": facets, "assignment": colours,
               "targets": k, "pad": pad, "ones": 2, "mode": mode}
    return payload, {"planted_map": True}


def _cli_cold(rng: random.Random, rung: str) -> tuple[dict, dict]:
    if rung == "medium":
        # A little compute, so that the p90 lies among these and not in the
        # start-up jitter of identical small items.
        weights, degrees = _in_scope_pair(rng, (1,) * 4, 140)
    else:
        weights, degrees = _small_pair(rng, int(rung[-1]))
    return ({"weights": weights, "degrees": degrees, "mode": MODES[rng.randrange(3)]},
            {"in_scope": True})


def _small_pair(rng: random.Random, n_values: int):
    values = sorted(rng.sample(PRIMES[:4], n_values))
    degrees = [v * rng.randint(2, 4) for v in values]
    ones = sum(degrees) - sum(values) + rng.randint(1, 3)
    return [1] * ones + values, degrees


_MAKERS = {"padded": _padded, "large-degree": _large_degree,
           "realized": _realized, "cli-cold": _cli_cold}


def blocks(workload: str, seed: int):
    """Endless stream of blocks (lists of Items) for a workload and seed."""
    rng = random.Random(f"wciq-bench:{workload}:{seed}")
    make = _MAKERS[workload]
    next_id = 0
    while True:
        rungs = list(BLOCKS[workload])
        rng.shuffle(rungs)
        block = []
        for rung in rungs:
            payload, expect = make(rng, rung)
            block.append(Item(next_id, workload, rung, payload, expect))
            next_id += 1
        yield block


def warmup_items(workload: str) -> list[Item]:
    """A fixed handful of the workload's cheapest rungs, independent of the
    run's seed, executed once before timing starts."""
    rng = random.Random(f"wciq-bench:warmup:{workload}")
    rungs = {"padded": ["m1"], "large-degree": ["k3"],
             "realized": ["strong:plain", "nice:plain", "any:plain"],
             "cli-cold": ["small2"]}[workload]
    out = []
    for i, rung in enumerate(rungs):
        payload, expect = _MAKERS[workload](rng, rung)
        out.append(Item(-1 - i, workload, rung, payload, expect))
    return out
