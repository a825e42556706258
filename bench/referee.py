"""Independent checks of every item's output, run outside the timed region.

The referee never trusts the fast paths it judges. Its sources of truth:

* planted answers from the generators (in-scope pairs construct, the
  planted map exists, realization round trips);
* `wciq.oracles` where their limits allow (at most 12 heavy indices and
  degrees at most 200);
* its own small exact methods otherwise: membership by the Apéry table of
  the smallest generator (shortest paths over residues, a different
  algorithm from the library's bitset closure), strict regularity over the
  subsets of each prime stratum, complexes from their definitions;
* the library's own witness checks (`classify_partition`,
  `check_family_invariants`, `validate_weighted_map`) on every witness.

Each check returns a list of mismatch strings; an empty list is a pass.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from itertools import combinations
from math import gcd

ORACLE_MAX_HEAVY = 12
ORACLE_MAX_DEGREE = 200
ORACLE_MAX_PLACEMENTS = 20_000


def prime_factors(n: int) -> tuple[int, ...]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=4096)
def _apery(gens: tuple[int, ...]) -> tuple[int, ...]:
    """Least representable number in each residue class mod gens[0]
    (Dijkstra over residues); gens are coprime overall and ascending."""
    a = gens[0]
    best = [None] * a
    best[0] = 0
    heap = [(0, 0)]
    while heap:
        cost, r = heapq.heappop(heap)
        if cost != best[r]:
            continue
        for g in gens[1:]:
            nxt = cost + g
            s = nxt % a
            if best[s] is None or nxt < best[s]:
                best[s] = nxt
                heapq.heappush(heap, (nxt, s))
    return tuple(best)


def representable(d: int, values) -> bool:
    vals = sorted(set(values))
    if d == 0:
        return True
    if not vals:
        return False
    g = gcd(*vals)
    if d % g:
        return False
    gens = tuple(v // g for v in vals)
    least = _apery(gens)[(d // g) % gens[0]]
    return least is not None and d // g >= least


# -- pair-level facts ----------------------------------------------------------

def strata(weights) -> dict[int, tuple[int, ...]]:
    """Prime p -> indices whose weight p divides."""
    out: dict[int, list[int]] = {}
    for i, a in enumerate(weights):
        for p in prime_factors(a) if a > 1 else ():
            out.setdefault(p, []).append(i)
    return {p: tuple(ix) for p, ix in out.items()}


def _maximal(sets) -> list[tuple[int, ...]]:
    sets = {frozenset(s) for s in sets}
    return sorted(tuple(sorted(s)) for s in sets if not any(s < t for t in sets))


def singular_facets(weights) -> list[tuple[int, ...]]:
    return _maximal(strata(weights).values())


def base_facets(weights, d: int) -> list[tuple[int, ...]]:
    values = sorted({a for a in weights if a > 1 and d % a})
    bad = [vs for r in range(1, len(values) + 1) for vs in combinations(values, r)
           if not representable(d, vs)]
    return _maximal({i for i, a in enumerate(weights) if a in vs} for vs in bad)


def strictly_regular(weights, degrees):
    """(verdict, witness) with the witness minimal, then lexicographically
    least, among index subsets with a common divisor above 1."""
    if len([a for a in weights if a > 1]) <= ORACLE_MAX_HEAVY and max(degrees) <= ORACLE_MAX_DEGREE:
        from wciq.oracles import naive_strictly_regular
        ok, witness = naive_strictly_regular(weights, degrees)
        return ok, None if witness is None else tuple(witness)
    subsets = {c for ix in strata(weights).values()
               for r in range(1, len(ix) + 1) for c in combinations(ix, r)}
    for s in sorted(subsets, key=lambda c: (len(c), c)):
        vals = {weights[i] for i in s}
        if sum(1 for d in degrees if representable(d, vals)) < len(s):
            return False, s
    return True, None


def pair_trivial(weights):
    """Do the non-divisible and strongly non-divisible families agree over
    the heavy indices? None when the referee cannot afford the sweep."""
    heavy = [i for i, a in enumerate(weights) if a > 1]
    values = sorted({weights[i] for i in heavy})
    if all(gcd(x, y) == 1 for x, y in combinations(values, 2)):
        return True  # non-divisible sets hold one index per value; all pairwise gcds are 1
    if len(heavy) > ORACLE_MAX_HEAVY:
        return None
    for r in range(1, len(heavy) + 1):
        for s in combinations(heavy, r):
            ws = [weights[i] for i in s]
            if any(x % y == 0 or y % x == 0 for x, y in combinations(ws, 2)):
                continue
            bound = 1
            for x, y in combinations(ws, 2):
                g = gcd(x, y)
                bound = bound * g // gcd(bound, g)
            if any(bound % w == 0 for w in ws):
                return False
    return True


def partition_kind(weights, degrees, parts):
    """(valid, nice, strong) straight from the definitions, or None when
    the parts do not partition the indices."""
    flat = sorted(i for p in parts for i in p)
    if flat != list(range(len(weights))) or len(parts) != len(degrees) + 1:
        return None
    valid = all(sum(weights[i] for i in parts[j]) == degrees[j - 1]
                for j in range(1, len(parts)))
    nice = valid and any(weights[i] == 1 for i in parts[0])
    strong = valid and all(weights[i] == 1 for i in parts[0]) and all(
        degrees[j - 1] % weights[i] == 0 for j in range(1, len(parts)) for i in parts[j])
    return valid, nice, strong


def _mode_ok(kind, mode: str) -> bool:
    return {"any": kind[0], "nice": kind[1], "strong": kind[2]}[mode]


# -- analyze reports -----------------------------------------------------------

def check_analyze(weights, degrees, mode: str, rc: int, report: dict | None,
                  expect: dict) -> list[str]:
    """Judge one `wciq analyze` exit code and report."""
    if rc == 3:
        return []  # explicit resource error: undecided, not wrong
    if rc not in (0, 1) or report is None:
        return [f"exit code {rc} on a valid pair"]
    from wciq.arith import DegreeTuple, WeightTuple
    from wciq.maps import check_family_invariants
    from wciq.nef import NefPartition, classify_partition
    from wciq.serialize import family_from_json

    bad: list[str] = []
    wt, dg = WeightTuple.of(weights), DegreeTuple.of(degrees)
    if report["fano_index"] != sum(weights) - sum(degrees):
        bad.append("fano index")

    reg = report["regularity"]
    regular, witness = strictly_regular(weights, degrees)
    if reg["strictly_regular"] != regular:
        bad.append(f"strict regularity {reg['strictly_regular']} vs {regular}")
    elif (None if witness is None else list(witness)) != reg["violating_subset"]:
        bad.append(f"regularity witness {reg['violating_subset']} vs {witness}")
    trivial = pair_trivial(weights)
    if trivial is not None and reg["pair_trivial"] != trivial:
        bad.append(f"pair triviality {reg['pair_trivial']} vs {trivial}")
    if 1 in weights and report["pair_trivial_literal"] is not False:
        bad.append("literal pair triviality with weight-1 indices")

    sing = report["singular_complex"]
    if [tuple(f) for f in sing["facets"]] != singular_facets(weights):
        bad.append("singular complex facets")
    elif {int(v): int(w) for v, w in sing["vertex_weights"].items()} != {
            v: weights[v] for f in singular_facets(weights) for v in f}:
        bad.append("singular complex vertex weights")
    verts = sorted({v for f in sing["facets"] for v in f})
    if len(verts) <= 10:
        faces = [set(f) for f in sing["facets"]]
        minimal = [c for r in range(1, len(verts) + 1) for c in combinations(verts, r)
                   if not any(set(c) <= f for f in faces)
                   and all(any(set(c) - {v} <= f for f in faces) for v in c)]
        if sorted(tuple(sorted(g)) for g in report["singular_sr"]["generators"]) != sorted(minimal):
            bad.append("Stanley-Reisner generators")
    for j, d in enumerate(degrees, start=1):
        got = [tuple(f) for f in report["base_complexes"][str(j)]["facets"]]
        if got != base_facets(weights, d):
            bad.append(f"base complex of d_{j}")

    fam_section = report["family"]
    if fam_section["built"]:
        fam = family_from_json(fam_section["family"], wt)
        problems = check_family_invariants(wt, dg, fam)
        for b, inj in fam.injections.items():
            images = list(inj.values())
            domain_vals = {weights[i] for i in inj}
            if len(set(images)) != len(images) or not all(
                    representable(degrees[j - 1], domain_vals) for j in images):
                problems.append(f"injection at {b}")
        if problems:
            bad.append(f"family witness: {problems[:2]}")
        if not regular:
            bad.append("family built for a pair that is not strictly regular")
        pm = report["poset_map"]
        if pm is None or pm["all_ok"] != (not pm["family_violations"] and pm["property1"]
                                          and pm["property2"] and pm["property3"]
                                          and pm["order_preserving"]):
            bad.append("poset map summary")
    elif fam_section.get("failed_hypothesis") == "strictly_regular" and regular:
        bad.append("family refused a strictly regular pair")

    linear_cone = bool(set(weights) & set(degrees))
    fano = sum(weights) - sum(degrees)
    hypotheses = [("not_linear_cone", not linear_cone), ("fano", fano > 0),
                  ("strictly_regular", regular), ("pair_trivial", trivial)]
    construction = report["construction"]
    if construction["ok"]:
        parts = construction["partition"]["parts"]
        kind = partition_kind(weights, degrees, parts)
        if kind is None or not kind[2]:
            bad.append("constructed partition is not strong")
        elif not classify_partition(wt, dg, NefPartition(tuple(map(tuple, parts)))).strong:
            bad.append("library classification rejects the constructed partition")
        if any(ok is False for _, ok in hypotheses):
            bad.append("construction succeeded although a hypothesis fails")
    else:
        # The first hypothesis that fails, in the construction's order; a
        # hypothesis the referee could not decide is taken as reported.
        first = next((construction["failed_hypothesis"] if ok is None else h
                      for h, ok in hypotheses if ok is not True), None)
        if first is None:
            bad.append(f"construction failed ({construction['failed_hypothesis']}) "
                       f"on a pair meeting every hypothesis")
        elif construction["failed_hypothesis"] != first:
            bad.append(f"failed hypothesis {construction['failed_hypothesis']} vs {first}")

    search = report["search"]
    if search["found"]:
        parts = search["partition"]["parts"]
        kind = partition_kind(weights, degrees, parts)
        if kind is None or not _mode_ok(kind, mode):
            bad.append(f"search partition is not {mode}")
        elif not classify_partition(wt, dg, NefPartition(tuple(map(tuple, parts)))).satisfies(mode):
            bad.append("library classification rejects the search partition")
    else:
        exists = None
        if construction["ok"] and fano > 0:
            exists = True  # a strong partition with ones in I_0 is nice and valid
        elif fano < 0:
            exists = False  # the parts 1..c would need more weight than there is
        else:
            heavy = [a for a in weights if a > 1]
            if (len(degrees) + 1) ** len(heavy) <= ORACLE_MAX_PLACEMENTS:
                from wciq.oracles import naive_partition_exists
                exists = naive_partition_exists(weights, degrees, mode)
        if exists:
            bad.append(f"search found no {mode} partition although one exists")
    if rc != (0 if construction["ok"] or search["found"] else 1):
        bad.append(f"exit code {rc} disagrees with the report")

    if expect.get("in_scope"):
        if not (regular and trivial is not False and not linear_cone and fano > 0):
            bad.append("generator produced an out-of-scope pair")
        if not construction["ok"]:
            bad.append("in-scope pair did not construct")
    return bad


# -- realized items ------------------------------------------------------------

def check_map(weights, degrees, assignment: dict) -> list[str]:
    """A map between singular complexes, checked from the definitions."""
    src = singular_facets(weights)
    tgt = [set(f) for f in singular_facets(degrees)]
    bad = []
    for facet in src:
        for r in range(1, len(facet) + 1):
            for face in combinations(facet, r):
                image = {assignment[v] for v in face}
                if len(image) != len(face):
                    return [f"map contracts {face}"]
                if not any(image <= f for f in tgt):
                    return [f"image of {face} is not a face"]
                if gcd(*(degrees[t] for t in image)) % gcd(*(weights[v] for v in face)):
                    bad.append(f"weight of {face} does not divide its image weight")
                    return bad
    return bad


def check_realized(out: dict) -> list[str]:
    """Judge the realization, planted map and map search of one item."""
    from wciq.maps import validate_weighted_map

    bad = []
    if out["round_trip"] is not True:
        bad.append("realization round trip failed")
    planted = out["planted_validation"]
    if not (planted.valid and planted.noncontracting):
        bad.append("planted map rejected by validate_weighted_map")
    weights, degrees = out["weights"], out["degrees"]
    found = out["found"]
    if found is None:
        bad.append("planted non-contracting map exists but none was found")
    else:
        verdict = validate_weighted_map(found)
        if not (verdict.valid and verdict.noncontracting):
            bad.append("found map fails validate_weighted_map")
        bad += check_map(weights, degrees, found.vertex_assignment)
    bad += check_map(weights, degrees, out["planted_assignment"])
    return bad
