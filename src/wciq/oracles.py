"""Slow reference implementations used to cross-check the fast paths.

Everything here trades time for obviousness: plain coefficient
enumeration instead of the bitset closure, trial division instead of a
coprime base, full subset sweeps instead of
value-class reductions, per-index part assignment or an unbounded walk
over every split instead of the bounded multiplicity search,
vertex-level backtracking or plain enumeration instead of the image-set
family search, a scan of every face weight instead of the covers read
off the values, every vertex assignment checked face by face instead
of the facet-pruned map search, and an lcm descent of the face lattice
instead of the closed-form realization. The tie-breaks mirror the fast
implementations so witnesses can be compared verbatim; the family
references agree with the fast search on existence only.

The index-level sweeps are exponential in the number of indices they
range over; they are meant for tuples with at most about 12 heavy
indices, the scale of the `oracle` subcommand, and the family and map
enumerations for at most 6.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Sequence

from wciq import errors
from wciq.arith import (
    DEFAULT_DP_CAP,
    FACE_LIMIT,
    DegreesLike,
    PairFacts,
    WeightsLike,
    as_degrees,
    as_weights,
    gcd_of,
    representable_degrees,
)
from wciq.complexes import Complex, singular_complex
from wciq.errors import (
    DEFAULT_NODE_BUDGET,
    InputError,
    InternalConsistencyError,
    PreconditionFailure,
    ResourceLimitError,
)
from wciq.maps import (
    AdmissibleFamily,
    WeightedMap,
    _skeleton,
    check_family_invariants,
    induced_face_map,
)
from wciq.nef import NefPartition
from wciq.realize import first_primes
from wciq.regularity import is_strictly_regular


def brute_force_representable(d: int, weights) -> bool:
    """Is d a non-negative integer combination of the weights?

    Exhaustive search over coefficient vectors, one distinct value at a
    time, largest first.
    """
    vals = sorted({a for a in weights if a > 0}, reverse=True)

    def rec(left: int, at: int) -> bool:
        if left == 0:
            return True
        if at == len(vals):
            return False
        v = vals[at]
        for c in range(left // v, -1, -1):
            if rec(left - c * v, at + 1):
                return True
        return False

    return rec(d, 0) if d >= 0 else False


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    """Distinct primes dividing n, ascending, by unbounded trial division:
    the reference for the strata of `complexes.singular_complex`."""
    errors.checked_ints([n], "integer to factor", 1)
    out = []
    rem = n
    p = 2
    while p * p <= rem:
        if rem % p == 0:
            out.append(p)
            while rem % p == 0:
                rem //= p
        p += 1 if p == 2 else 2
    if rem > 1:
        out.append(rem)
    return tuple(out)


def complex_faces(cx: Complex, limit: int | None = None) -> list[tuple[int, ...]] | None:
    """Nonempty faces as sorted tuples, ordered by (cardinality, lex), by
    walking the subsets of every facet; None past `limit` of them."""
    seen: set[tuple[int, ...]] = set()
    for f in cx.facets:
        fv = sorted(f)
        for k in range(1, len(fv) + 1):
            for combo in combinations(fv, k):
                seen.add(combo)
                if limit is not None and len(seen) > limit:
                    return None
    return sorted(seen, key=lambda t: (len(t), t))


def prime_strata_complex(weights: WeightsLike) -> Complex:
    """The singular complex of the weights from its definition: the
    maximal sets among the index sets {i : p | a_i}, one per prime p
    found by trial division."""
    wt = as_weights(weights)
    primes = {p for a in wt.heavy_values() for p in distinct_prime_factors(a)}
    return Complex.from_facets(len(wt), [wt.divisible_by(p) for p in primes])


def face_walk_checked_faces(weights: WeightsLike):
    """`maps._checked_faces` by walking index faces: every face of the
    singular complex up to FACE_LIMIT of them (`Complex.faces`); past it,
    those of the complex restricted to the two least indices per value,
    with one record per value set with gcd above 1, which holds its
    whole classes."""
    wt = as_weights(weights)
    sing = prime_strata_complex(wt)
    bit = {a: 1 << k for k, a in enumerate(wt.heavy_values())}

    def mask(face) -> int:
        return sum({bit[wt[i]] for i in face})

    faces = complex_faces(sing, FACE_LIMIT)
    if faces is not None:
        return "all-faces", tuple((face, mask(face)) for face in faces), tuple(faces)
    keep = {i for a in bit for i in wt.classes[a][:2]}
    restricted = Complex.from_facets(sing.n_vertices, [f & keep for f in sing.facets if f & keep])
    faces = complex_faces(restricted, FACE_LIMIT)
    if faces is None:
        raise ResourceLimitError(
            f"face enumeration exceeds {FACE_LIMIT} even on value-class representatives")
    checked = tuple((idx, mask(idx)) for vs in common_factor_subsets(tuple(bit))
                    for idx in [tuple(sorted(i for a in vs for i in wt.classes[a]))])
    return "value-class-representatives", checked, tuple(faces)


def naive_strictly_regular(weights: WeightsLike,
                           degrees: DegreesLike) -> tuple[bool, tuple[int, ...] | None]:
    """Subset-sweep strict regularity with brute-force representability.

    Sweeps every subset of the heavy indices in (cardinality, lex) order,
    so a returned witness is the smallest and lexicographically least
    violating subset, matching the fast path.
    """
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    heavy = wt.heavy()
    for r in range(1, len(heavy) + 1):
        for combo in combinations(heavy, r):
            vals = [wt[i] for i in combo]
            g = gcd(*vals) if len(vals) > 1 else vals[0]
            if g <= 1:
                continue
            good = sum(
                1 for j in range(1, len(dg) + 1)
                if brute_force_representable(dg.degree(j), vals))
            if good < r:
                return False, combo
    return True, None


def naive_partition_exists(weights: WeightsLike, degrees: DegreesLike,
                           mode: str = "strong", *,
                           node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Partition existence by assigning every heavy index to a part.

    Enumerates all (c+1)^h placements of the h heavy indices over the
    parts, then fills each degree's remaining deficit with weight-one
    indices. Deliberately ignorant of the multiplicity structure the
    fast search exploits. Each placement spends one node of the budget.
    """
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    c = len(dg)
    heavy = wt.heavy()
    n_ones = len(wt.ones())
    spend = errors.node_budget(node_budget, "oracle partition enumeration")

    def leaf_ok(parts: list[int]) -> bool:
        deficits = []
        for j in range(1, c + 1):
            s = sum(wt[i] for i, p in zip(heavy, parts) if p == j)
            r = dg.degree(j) - s
            if r < 0:
                return False
            deficits.append(r)
        if sum(deficits) > n_ones:
            return False
        leftover = n_ones - sum(deficits)
        if mode == "nice" and leftover < 1:
            return False
        if mode == "strong":
            if any(p == 0 for p in parts):
                return False
            if any(dg.degree(p) % wt[i] != 0
                   for i, p in zip(heavy, parts) if p != 0):
                return False
        return True

    def rec(at: int, parts: list[int]) -> bool:
        if at == len(heavy):
            spend()
            return leaf_ok(parts)
        return any(rec(at + 1, parts + [p]) for p in range(c + 1))

    return rec(0, [])


def common_factor_subsets(values: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Subsets of the values with gcd above 1, by size, then lexicographic
    in the given order; the reference for `complexes._value_faces`."""
    for r in range(1, len(values) + 1):
        for vs in combinations(values, r):
            if gcd(*vs) > 1:
                yield vs


def maximal_members(items: Iterable[int],
                    member: Callable[[frozenset[int]], bool]) -> list[frozenset[int]]:
    """Inclusion-maximal sets of a downward-closed family given by `member`,
    lexicographic on sorted tuples; the reference for `complexes._dualize`.

    `member` must be closed under taking subsets (and true on singletons it
    admits). Level search: grow admissible sets one vertex at a time; a set
    with no admissible extension is maximal.
    """
    verts = sorted(set(items))
    cache: dict[frozenset[int], bool] = {}

    def ok(s: frozenset[int]) -> bool:
        if s not in cache:
            cache[s] = member(s)
        return cache[s]

    level = [frozenset([v]) for v in verts if ok(frozenset([v]))]
    maximal: list[frozenset[int]] = []
    while level:
        nxt: set[frozenset[int]] = set()
        for s in level:
            extended = False
            for v in verts:
                if v in s:
                    continue
                t = s | {v}
                if ok(t):
                    nxt.add(t)
                    extended = True
            if not extended:
                maximal.append(s)
        level = sorted(nxt, key=sorted)
    return sorted(maximal, key=sorted)


def _index_non_divisible(wt, idx) -> bool:
    return not any(wt[j] % wt[i] == 0 or wt[i] % wt[j] == 0
                   for i, j in combinations(idx, 2))


def _index_strongly_non_divisible(wt, idx) -> bool:
    bound = lcm(*(gcd(wt[i], wt[j]) for i, j in combinations(idx, 2)))
    return all(bound % wt[k] != 0 for k in idx)


def _maximal_index_sets(verts, member) -> list[tuple[int, ...]]:
    return [tuple(sorted(f)) for f in maximal_members(verts, member)]


def naive_nondivisible_facets(weights: WeightsLike) -> list[tuple[int, ...]]:
    """Maximal non-divisible sets of heavy indices, lexicographic, by a
    level search over index sets."""
    wt = as_weights(weights)
    return _maximal_index_sets(wt.heavy(), lambda s: _index_non_divisible(wt, s))


def naive_strongly_nondivisible_facets(weights: WeightsLike) -> list[tuple[int, ...]]:
    """Maximal strongly non-divisible sets of heavy indices, lexicographic,
    by a level search over index sets."""
    wt = as_weights(weights)
    return _maximal_index_sets(wt.heavy(),
                               lambda s: _index_strongly_non_divisible(wt, s))


def naive_pair_nontriviality_witness(weights: WeightsLike) -> frozenset[int] | None:
    """First non-divisible face, in (cardinality, lex) order, that is not
    strongly non-divisible; None when there is none."""
    wt = as_weights(weights)
    nd = Complex.from_facets(len(wt), naive_nondivisible_facets(wt))
    for face in complex_faces(nd) or []:
        if not _index_strongly_non_divisible(wt, face):
            return frozenset(face)
    return None


def naive_pair_trivial_all_indices(weights: WeightsLike) -> bool:
    """Do the two divisibility families agree when swept over every index,
    weight-1 ones included?"""
    wt = as_weights(weights)
    verts = range(len(wt))
    return (_maximal_index_sets(verts, lambda s: _index_non_divisible(wt, s))
            == _maximal_index_sets(verts, lambda s: _index_strongly_non_divisible(wt, s)))


def naive_minimal_nonfaces(cx: Complex,
                           within: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Minimal non-faces by testing every vertex subset, lexicographic on
    sorted vertex tuples; same conventions as `minimal_nonfaces`."""
    if not cx.facets:
        return [frozenset()]
    ambient = tuple(range(cx.n_vertices)) if within is None else tuple(sorted(set(within)))
    out = [frozenset((v,)) for v in ambient if not cx.is_face((v,))]
    verts = [v for v in ambient if cx.is_face((v,))]
    for k in range(2, len(verts) + 1):
        for combo in combinations(verts, k):
            if cx.is_face(combo):
                continue
            if all(cx.is_face(combo[:i] + combo[i + 1:]) for i in range(k)):
                out.append(frozenset(combo))
    return sorted(out, key=lambda s: tuple(sorted(s)))


def lex_walk_strictly_regular(weights: WeightsLike, degrees: DegreesLike, *,
                              dp_cap: int = DEFAULT_DP_CAP):
    """Strict regularity whose witness comes from walking index subsets.

    A value-level pass finds the smallest violating size; then the index
    subsets of that size are walked in lex order, and the first whose
    value set violates is the witness.
    """
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    values = wt.heavy_values()
    cache: dict[frozenset[int], frozenset[int]] = {}

    def good_degrees(valset: frozenset[int]) -> frozenset[int]:
        if valset not in cache:
            cache[valset] = representable_degrees(valset, dg, dp_cap=dp_cap)
        return cache[valset]

    failing: list[tuple[int, int]] = []
    for r in range(1, len(values) + 1):
        for vs in combinations(values, r):
            if gcd_of(vs) == 1:
                continue
            count = sum(len(wt.indices_of(v)) for v in vs)
            ng = len(good_degrees(frozenset(vs)))
            if ng < count:
                failing.append((r, ng))
    if not failing:
        return True, None
    min_size = min(max(r, ng + 1) for r, ng in failing)
    for idx in combinations(wt.heavy(), min_size):
        vs = frozenset(wt[i] for i in idx)
        if gcd_of(vs) == 1:
            continue
        if len(good_degrees(vs)) < min_size:
            return False, tuple(idx)
    raise InternalConsistencyError(
        "value-level violation found but no index witness materialized")


def swept_poset_properties(weights: WeightsLike, degrees: DegreesLike,
                           fam: AdmissibleFamily, *,
                           dp_cap: int = DEFAULT_DP_CAP):
    """Properties 1 and 3 of `verify_poset_map`, swept instead of read off
    the family invariants: (property1, witness, property3, witness).

    Once the invariants pass, every face of the singular complex is checked
    for an image of its own cardinality, and every pair of heavy indices
    with dividing weights for distinct vertex images; the first failure in
    (cardinality, lex) order is the witness. A family that fails its
    invariants fails both, without witness.
    """
    wt = as_weights(weights)
    if check_family_invariants(wt, degrees, fam, dp_cap=dp_cap):
        return False, None, False, None
    p1_witness = next(
        (face for face in complex_faces(singular_complex(wt).complex)
         if len(induced_face_map(fam, face)) != len(face)), None)
    p3_witness = next(
        ((i, k) for i, k in combinations(wt.heavy(), 2)
         if (wt[k] % wt[i] == 0 or wt[i] % wt[k] == 0)
         and fam.vertex_image(i) == fam.vertex_image(k)), None)
    return p1_witness is None, p1_witness, p3_witness is None, p3_witness


def lex_nef_search(weights: WeightsLike, degrees: DegreesLike,
                   mode: str = "strong", *,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> NefPartition | None:
    """Unbounded multiplicity search: the reference for `find_nef_partition`.

    Walks every split of each repeated heavy value over the parts (values
    ascending, each split ascending in (k_0, ..., k_c)), recomputing the
    used mass of every part at every node and filtering over-full parts
    afterwards, so the first partition it returns is the one the bounded
    search must return. The node budget counts its own nodes.
    """
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    c = len(dg)
    values = wt.heavy_values()
    mult = {v: len(wt.classes[v]) for v in values}
    n_ones = len(wt.ones())

    # counts[v] = how many v-weighted indices go to each part 0..c
    counts: dict[int, tuple[int, ...]] = {}
    spend = errors.node_budget(node_budget, "partition search")

    def distributions(v: int):
        """All ways to split mult[v] copies of v over parts 0..c,
        ascending lexicographically in (k_0, ..., k_c)."""
        m = mult[v]
        allowed = [True] + [
            mode != "strong" or dg.degree(j) % v == 0 for j in range(1, c + 1)]
        if mode == "strong":
            allowed[0] = False

        def rec(j: int, left: int, acc: list[int]):
            spend()
            if j == c:
                if left == 0 or allowed[j]:
                    yield tuple(acc + [left])
                return
            top = left if allowed[j] else 0
            for k in range(0, top + 1):
                yield from rec(j + 1, left - k, acc + [k])

        yield from rec(0, m, [])

    def assign(vi: int) -> bool:
        spend()
        if vi == len(values):
            deficits = []
            for j in range(1, c + 1):
                used = sum(v * counts[v][j] for v in values)
                r = dg.degree(j) - used
                if r < 0:
                    return False
                deficits.append(r)
            if sum(deficits) > n_ones:
                return False
            leftover = n_ones - sum(deficits)
            if mode == "nice" and leftover < 1:
                return False
            return True
        v = values[vi]
        for dist in distributions(v):
            # prune: parts must not already exceed their degree
            ok = True
            for j in range(1, c + 1):
                used = sum(u * counts[u][j] for u in values[:vi]) + v * dist[j]
                if used > dg.degree(j):
                    ok = False
                    break
            if not ok:
                continue
            counts[v] = dist
            if assign(vi + 1):
                return True
            del counts[v]
        return False

    if not assign(0):
        return None

    # Deterministic expansion of the counts into index parts.
    parts: list[list[int]] = [[] for _ in range(c + 1)]
    ones = list(wt.ones())
    deficits = [0] * (c + 1)
    for j in range(1, c + 1):
        deficits[j] = dg.degree(j) - sum(v * counts[v][j] for v in values)
    leftover = n_ones - sum(deficits)
    parts[0].extend(ones[:leftover])
    pos = leftover
    for j in range(1, c + 1):
        parts[j].extend(ones[pos:pos + deficits[j]])
        pos += deficits[j]
    for v in values:
        idx = wt.classes[v]
        at = 0
        for j in range(c + 1):
            parts[j].extend(idx[at:at + counts[v][j]])
            at += counts[v][j]
    return NefPartition(tuple(tuple(p) for p in parts))


def poset_covers(poset: Iterable[int], b: int) -> frozenset[int]:
    """Elements covered by b: maximal proper divisors of b within the poset.

    q is covered by b when q | b, q != b, and no poset element r satisfies
    q | r | b strictly between them. The reference for the covers that
    `maps` reads off the values.
    """
    elems = frozenset(poset)
    if b not in elems:
        raise InputError(f"{b} is not an element of the poset")
    below = [q for q in elems if q != b and b % q == 0]
    return frozenset(
        q for q in below
        if not any(r != q and r % q == 0 for r in below)
    )


def mrv_family_search(weights: WeightsLike, degrees: DegreesLike, *,
                      dp_cap: int = DEFAULT_DP_CAP,
                      node_budget: int = DEFAULT_NODE_BUDGET) -> AdmissibleFamily | None:
    """Vertex-level family search: the reference for
    `build_admissible_family`'s existence verdict.

    Backtracks over (face weight, vertex) variables, most-constrained
    first with ties broken by ascending b and vertex index, trying degree
    indices ascending and recomputing every candidate list at every node.
    It re-explores every permutation of interchangeable vertices, so it
    can exhaust its node budget on pairs the image-set search decides at
    once. Its families may differ from the image-set search's canonical
    ones; only existence is comparable.
    """
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    regular, witness = is_strictly_regular(wt, dg, dp_cap=dp_cap)
    if not regular:
        raise PreconditionFailure(
            "strictly_regular",
            f"weights are not strictly regular for the degrees; "
            f"violating index subset {witness}",
            witness=witness)
    im_phi, domains, good = PairFacts(wt, dg, dp_cap).once(_skeleton)
    covers_down = {b: tuple(sorted(poset_covers(im_phi, b))) for b in im_phi}
    divisor_pairs = [
        (i, k) for i, k in combinations(wt.heavy(), 2)
        if wt[k] % wt[i] == 0 or wt[i] % wt[k] == 0
    ]
    if not im_phi:
        return AdmissibleFamily((), {}, {})

    good_sets = {b: frozenset(good[b]) for b in im_phi}
    variables = [(b, i) for b in im_phi for i in domains[b]]
    partners: dict[int, list[int]] = {}
    for i, k in divisor_pairs:
        partners.setdefault(i, []).append(k)
        partners.setdefault(k, []).append(i)

    assignment: dict[tuple[int, int], int] = {}
    used: dict[int, set[int]] = {b: set() for b in im_phi}

    def candidates(b: int, i: int) -> list[int]:
        taken = used[b]
        if b == wt[i]:
            # Vertex separation applies between weight-level injections only.
            taken = taken | {assignment.get((wt[k], k)) for k in partners.get(i, ())}
        out = [j for j in good[b] if j not in taken]
        for q in covers_down[b]:
            # A finished cover fixes its image; an open one needs admissibility.
            within = used[q] if len(used[q]) == len(domains[q]) else good_sets[q]
            out = [j for j in out if j in within]
        return out

    cover_edges = [(q, b) for b in im_phi for q in covers_down[b]]
    spend = errors.node_budget(node_budget, "admissible family search")

    def globally_feasible() -> bool:
        for q, b in cover_edges:
            needed = used[b] - used[q]
            if not needed:
                continue
            slack = len(domains[q]) - len(used[q])
            if len(needed) > slack or not needed <= good_sets[q]:
                return False
        return True

    def solve() -> bool:
        spend()
        unassigned = [v for v in variables if v not in assignment]
        if not unassigned:
            return True
        scored = []
        for b, i in unassigned:
            cands = candidates(b, i)
            if not cands:
                return False
            scored.append((len(cands), b, i, cands))
        _, b, i, cands = min(scored, key=lambda t: (t[0], t[1], t[2]))
        for j in cands:
            assignment[(b, i)] = j
            used[b].add(j)
            if globally_feasible() and solve():
                return True
            used[b].discard(j)
            del assignment[(b, i)]
        return False

    if not solve():
        return None
    fam = AdmissibleFamily(
        im_phi,
        domains,
        {b: {i: assignment[(b, i)] for i in domains[b]} for b in im_phi},
    )
    leftovers = check_family_invariants(wt, dg, fam, dp_cap=dp_cap)
    if leftovers:
        raise InternalConsistencyError(
            f"solver produced a family violating its own invariants: {leftovers}")
    return fam


#: Most heavy indices `brute_force_family` accepts.
BRUTE_FAMILY_HEAVY = 6


def brute_force_family(weights: WeightsLike, degrees: DegreesLike, *,
                       dp_cap: int = DEFAULT_DP_CAP) -> AdmissibleFamily | None:
    """Every admissible family by enumeration: the referee of a `None`
    from the family searches.

    The invariants read only the image set S_b of each injection and the
    weight-level image set T_v of each heavy value v, and any bijections
    onto sets that pass them form a family. So the enumerator walks every
    S_b, a subset of the admissible degrees of the size of the domain, for
    b descending, dropping it unless it contains the S_w of every multiple
    w already placed; then every T_v, a subset of S_v of the size of the
    class, for v descending, dropping it unless it avoids the T_w of every
    multiple. The first complete choice, with ascending indices mapped to
    ascending images, is checked against `check_family_invariants` and
    returned. Strict regularity is not required. Only tuples with at most
    `BRUTE_FAMILY_HEAVY` heavy indices are accepted.
    """
    wt = as_weights(weights)
    dg = as_degrees(degrees)
    if len(wt.heavy()) > BRUTE_FAMILY_HEAVY:
        raise ResourceLimitError(
            f"brute-force family enumeration takes at most {BRUTE_FAMILY_HEAVY} "
            f"heavy indices, got {len(wt.heavy())}")
    im_phi, domains, good = PairFacts(wt, dg, dp_cap).once(_skeleton)
    values = wt.heavy_values()
    S: dict[int, frozenset[int]] = {}
    T: dict[int, frozenset[int]] = {}

    def place_images(at: int) -> bool:
        if at == len(im_phi):
            return place_weight_level(len(values) - 1)
        b = im_phi[-1 - at]
        for chosen in combinations(good[b], len(domains[b])):
            S[b] = frozenset(chosen)
            if all(S[w] <= S[b] for w in S if w != b and w % b == 0) \
                    and place_images(at + 1):
                return True
            del S[b]
        return False

    def place_weight_level(at: int) -> bool:
        if at < 0:
            return True
        v = values[at]
        for chosen in combinations(sorted(S[v]), len(wt.classes[v])):
            T[v] = frozenset(chosen)
            if all(not T[w] & T[v] for w in T if w != v and w % v == 0) \
                    and place_weight_level(at - 1):
                return True
            del T[v]
        return False

    if not place_images(0):
        return None
    injections = {}
    for b in im_phi:
        own = iter(sorted(T.get(b, ())))
        rest = iter(sorted(S[b] - T.get(b, frozenset())))
        injections[b] = {i: next(own if wt[i] == b else rest) for i in domains[b]}
    fam = AdmissibleFamily(im_phi, domains, injections)
    problems = check_family_invariants(wt, dg, fam, dp_cap=dp_cap)
    if problems:
        raise InternalConsistencyError(
            f"enumerated family violates its invariants: {problems}")
    return fam


#: Most source vertices `brute_force_map` accepts.
BRUTE_MAP_VERTICES = 6


def brute_force_map(weights: WeightsLike, degrees: DegreesLike) -> WeightedMap | None:
    """The first non-contracting weighted simplicial map by enumeration:
    the referee of `maps.find_noncontracting_map`.

    Every assignment of the source vertices, ascending, onto all target
    vertices is tried in lex order, with no divisibility filter, and every
    source face is checked from the definitions: its images are distinct,
    they form a target face, and the gcd of its weights divides the gcd
    of theirs. Only sources with at most `BRUTE_MAP_VERTICES` vertices are
    accepted.
    """
    dg = as_degrees(degrees)
    src = singular_complex(weights)
    tgt = singular_complex(tuple(dg) if len(dg) else (1,))
    verts = src.complex.vertices
    if len(verts) > BRUTE_MAP_VERTICES:
        raise ResourceLimitError(
            f"brute-force map enumeration takes at most {BRUTE_MAP_VERTICES} "
            f"source vertices, got {len(verts)}")
    faces = complex_faces(src.complex)
    for images in product(tgt.complex.vertices, repeat=len(verts)):
        at = dict(zip(verts, images))
        if all(len(img := {at[v] for v in face}) == len(face)
               and tgt.complex.is_face(img)
               and gcd_of(tgt.vertex_weights[t] for t in img)
               % gcd_of(src.vertex_weights[v] for v in face) == 0
               for face in faces):
            return WeightedMap(src, tgt, at)
    return None


def lcm_descent_realization(cx: Complex, *, prime_offset: int = 0):
    """Weights, face values and facet primes of `realize.realize_weights`
    by descending the face lattice: facets take the smallest distinct
    primes in lexicographic facet order, and each face below a facet the
    lcm of the values on the faces covering it. Exponential in the facet
    size."""
    facets = cx.sorted_facets()
    primes = first_primes(len(facets), prime_offset)
    prime_assignment = {frozenset(f): p for f, p in zip(facets, primes)}
    values: dict[frozenset[int], int] = dict(prime_assignment)
    for k in range(max(map(len, facets), default=0), 1, -1):
        for face in [f for f in values if len(f) == k]:
            for x in face:
                sub = face - {x}
                values[sub] = lcm(values.get(sub, 1), values[face])
    weights = tuple(values.get(frozenset({i}), 1) for i in range(cx.n_vertices))
    return weights, values, prime_assignment
