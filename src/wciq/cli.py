"""Batch command line front end.

Subcommands compose the library into reports: analyze (full pipeline),
complex (combinatorial invariants only), nef (find, construct, classify),
posetmap (build, verify), realize, and oracle (fast paths against brute
force). Reports are canonical JSON on stdout; --format text flattens the
same report into key: value lines.

Exit codes, uniform across subcommands: 0 success or witness found, 1
proven negative or failed hypothesis, 2 invalid input, 3 resource limit
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from wciq.arith import DEFAULT_DP_CAP, PairFacts, WeightFacts
from wciq.complexes import _base_facet_lists, _singular_complex, _singular_presentation
from wciq.errors import (
    DEFAULT_NODE_BUDGET,
    InputError,
    PreconditionFailure,
    ResourceLimitError,
)
from wciq.maps import (
    _csp_summary,
    _family,
    _poset_map,
    validate_weighted_map,
    vertex_fibers,
)
from wciq.nef import _MODES, _construction, classify_partition, fano_index, find_nef_partition
from wciq.regularity import (
    _regularity_verdicts,
    _strict_regularity,
    _trivial_all_indices,
    _value_class_facets,
)
from wciq.serialize import (
    Encoded,
    canonical_json,
    complex_from_json,
    complex_to_json,
    decode_int,
    encode_int,
    family_from_json,
    family_to_json,
    int_str,
    load_json,
    pair_from_json,
    pair_to_json,
    partition_from_json,
    partition_to_json,
    realization_to_json,
    sr_to_json,
    weighted_complex_to_json,
)

_ORACLE_MAX_HEAVY = 12
_ORACLE_MAX_DEGREE = 200

def _read_json_file(path: str | None, what: str):
    if path is None:
        raise InputError(f"--{what} is required for this subcommand")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return load_json(text, what)


class _Phases:
    """Wall-clock milliseconds per named phase, for the report's timings
    subobject (excluded from golden comparisons)."""

    def __init__(self):
        self.table: dict[str, float] = {}
        self._t0 = time.perf_counter()

    def mark(self, name: str):
        now = time.perf_counter()
        self.table[name] = round((now - self._t0) * 1000, 3)
        self._t0 = now


def _poset_map_json(rep) -> dict:
    return {
        **rep._asdict(),
        "all_ok": rep.all_ok,
        "property2_records": [
            {"face": face, "degree_index": j, "representable": ok}
            for face, j, ok in rep.property2_records
        ],
    }


def _failed_json(exc: PreconditionFailure) -> dict:
    return {
        "failed_hypothesis": exc.hypothesis,
        "witness": None if exc.witness is None else sorted(exc.witness),
    }


def _flatten(prefix: str, value, out: list[str]):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], out)
    else:
        out.append(f"{prefix}: {value}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        # The round trip writes records and tuples as lists, decodes the
        # encoded sections, and keeps the key order of dicts inside lists.
        lines: list[str] = []
        _flatten("", json.loads(json.dumps(report, default=Encoded.decoded)), lines)
        sys.stdout.write("\n".join(lines) + "\n")


def _singular_sections(w: WeightFacts) -> dict[str, Encoded]:
    """The singular complex and its presentation, encoded once per tuple."""
    return {
        "singular_complex": Encoded(weighted_complex_to_json(w.once(_singular_complex))),
        "singular_sr": Encoded(sr_to_json(_singular_presentation(w))),
    }


def _divisibility_sections(w: WeightFacts) -> dict[str, Encoded]:
    """The facets of both divisibility complexes, encoded once per tuple."""
    return {
        "nondivisible_facets": Encoded(_value_class_facets(w, False)),
        "strongly_nondivisible_facets": Encoded(_value_class_facets(w, True)),
    }


def _complex_section(facts: PairFacts) -> dict:
    dg = facts.dg
    return {
        **facts.w.once(_singular_sections),
        "base_complexes": {
            str(j): {
                "degree": encode_int(dg.degree(j)),
                "facets": _base_facet_lists(facts, j),
            }
            for j in range(1, len(dg) + 1)
        },
    }


def _family_section(facts: PairFacts) -> dict:
    try:
        family = facts.once(_family)
    except PreconditionFailure as exc:
        return {"built": False, **_failed_json(exc)}
    if family is None:
        return {"built": False, "csp": _csp_summary(facts)}
    return {"built": True, "family": family_to_json(family)}


def _construction_section(facts: PairFacts) -> dict:
    try:
        partition, _, deltas, classification = facts.once(_construction)
    except PreconditionFailure as exc:
        return {"ok": False, **_failed_json(exc)}
    return {
        "ok": True,
        "partition": partition_to_json(partition),
        "deltas": list(deltas),
        "classification": classification._asdict(),
    }


def _search_section(facts: PairFacts, mode: str) -> dict:
    found = find_nef_partition(facts.wt, facts.dg, mode, node_budget=facts.node_budget)
    return {
        "mode": mode,
        "found": found is not None,
        "partition": None if found is None else partition_to_json(found),
    }


def cmd_analyze(args, facts: PairFacts) -> tuple[dict, int]:
    phases = _Phases()
    report: dict = {}
    if args.seed is not None:
        report["seed"] = encode_int(args.seed)
    report["fano_index"] = encode_int(fano_index(facts.wt, facts.dg))
    report["regularity"] = _regularity_verdicts(facts, with_degrees=True)
    report["pair_trivial_literal"] = _trivial_all_indices(facts.w)
    phases.mark("regularity")

    report.update(_complex_section(facts))
    # after the presentation: its refusal shows before that of the divisibility facets
    report["regularity"].update(facts.w.once(_divisibility_sections))
    phases.mark("complexes")

    report["family"] = _family_section(facts)
    # the regularity section already names the violating subset
    report["family"].pop("witness", None)
    family = facts.kept(_family)
    report["poset_map"] = None if family is None else _poset_map_json(_poset_map(facts, family))
    phases.mark("family")

    report["construction"] = _construction_section(facts)
    phases.mark("construction")

    report["search"] = _search_section(facts, args.mode)
    phases.mark("search")

    report["timings"] = phases.table
    return report, 0 if report["construction"]["ok"] or report["search"]["found"] else 1


def cmd_complex(args, facts: PairFacts) -> tuple[dict, int]:
    return _complex_section(facts), 0


def cmd_nef(args, facts: PairFacts) -> tuple[dict, int]:
    if args.action == "find":
        report = _search_section(facts, args.mode)
        return report, 0 if report["found"] else 1
    if args.action == "construct":
        report = _construction_section(facts)
        if not report["ok"]:
            return report, 1
        report["family"] = family_to_json(facts.once(_construction)[1])
        return report, 0
    partition = partition_from_json(_read_json_file(args.partition, "partition"))
    cls = classify_partition(facts.wt, facts.dg, partition)
    return {
        "partition": partition_to_json(partition),
        "classification": cls._asdict(),
    }, 0


def cmd_posetmap(args, facts: PairFacts) -> tuple[dict, int]:
    if args.action == "build":
        report = _family_section(facts)
        if not report["built"]:
            return report, 1
        report["fibers"] = {str(j): list(f)
                            for j, f in vertex_fibers(facts.once(_family)).items()}
        return report, 0
    family = family_from_json(_read_json_file(args.family, "family"), facts.wt)
    rep = _poset_map(facts, family)
    return {"poset_map": _poset_map_json(rep)}, 0 if rep.all_ok else 1


def cmd_realize(args) -> tuple[dict, int]:
    from wciq.realize import realize_map_instance, realize_weights, verify_realization

    cx = complex_from_json(_read_json_file(args.complex, "complex"))
    if args.map is None:
        res = realize_weights(cx)
        report = realization_to_json(res)
        report["round_trip"] = verify_realization(cx, res.weights)
        return report, 0
    map_data = _read_json_file(args.map, "map")
    if not isinstance(map_data, dict) or "target" not in map_data \
            or "assignment" not in map_data:
        raise InputError('map file must hold "target" and "assignment"')
    target = complex_from_json(map_data["target"])
    if not isinstance(map_data["assignment"], dict):
        raise InputError('"assignment" must be an object')
    assignment = {decode_int(k, "vertex"): decode_int(v, "image vertex")
                  for k, v in map_data["assignment"].items()}
    inst = realize_map_instance(cx, target, assignment, args.pad, args.ones)
    validation = validate_weighted_map(inst.planted)
    report = {
        "weights": [int_str(a, "realized instance") for a in inst.weights],
        "degrees": [int_str(d, "realized instance") for d in inst.degrees],
        "planted_assignment": {
            str(v): t for v, t in sorted(inst.planted.vertex_assignment.items())},
        "validation": {
            "simplicial": validation.simplicial,
            "weighted": validation.weighted,
            "contracts_face": validation.contracts_face,
        },
    }
    return report, 0


def cmd_oracle(args, facts: PairFacts) -> tuple[dict, int]:
    # The brute-force references load only for this subcommand.
    from wciq.oracles import (
        brute_force_representable,
        naive_partition_exists,
        naive_strictly_regular,
    )

    wt, dg = facts.wt, facts.dg
    heavy = wt.heavy()
    if len(heavy) > _ORACLE_MAX_HEAVY:
        raise ResourceLimitError(
            f"{len(heavy)} heavy indices exceed the oracle limit {_ORACLE_MAX_HEAVY}")
    if any(d > _ORACLE_MAX_DEGREE for d in dg):
        raise ResourceLimitError(
            f"some degree exceeds the oracle limit {_ORACLE_MAX_DEGREE}")

    divergences: list[str] = []
    rep_table = {}
    all_values = facts.w.mask(heavy)
    for j in range(1, len(dg) + 1):
        fast = facts.v.representable(j, all_values)
        slow = brute_force_representable(dg.degree(j), facts.w.v.values)
        rep_table[str(j)] = {"fast": fast, "brute": slow}
        if fast != slow:
            divergences.append(f"representability of degree {j}")

    fast_reg, fast_wit = facts.once(_strict_regularity)
    slow_reg, slow_wit = naive_strictly_regular(wt, dg)
    if fast_reg != slow_reg or fast_wit != slow_wit:
        divergences.append("strict regularity")

    partition_table = {}
    for mode in _MODES:
        fast_found = find_nef_partition(
            wt, dg, mode, node_budget=facts.node_budget) is not None
        slow_found = naive_partition_exists(wt, dg, mode, node_budget=facts.node_budget)
        partition_table[mode] = {"fast": fast_found, "brute": slow_found}
        if fast_found != slow_found:
            divergences.append(f"partition existence in mode {mode}")

    report = {
        "representability": rep_table,
        "strict_regularity": {
            "fast": fast_reg,
            "brute": slow_reg,
            "fast_witness": None if fast_wit is None else sorted(fast_wit),
            "brute_witness": None if slow_wit is None else sorted(slow_wit),
        },
        "partitions": partition_table,
        "divergences": divergences,
    }
    return report, 0 if not divergences else 1


def _ascii_int(text: str, signed: bool = True) -> int:
    """An integer option as pair files spell one: ASCII digits, after a
    '-' where negatives are accepted."""
    body = text[1:] if signed and text.startswith("-") else text
    if not (body.isascii() and body.isdigit()):
        raise argparse.ArgumentTypeError(
            f"expected an integer{'' if signed else ' 0 or more'}, got {text!r}")
    try:
        return int(text)
    except ValueError:  # ASCII digits: only the digit limit is left
        raise argparse.ArgumentTypeError(
            f"expected at most {sys.get_int_max_str_digits()} digits") from None


def _non_negative_int(text: str) -> int:
    """A cap or budget: 0 or more."""
    return _ascii_int(text, signed=False)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `wciq` argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="wciq",
        description="Combinatorial analysis of weighted complete intersection data")
    sub = parser.add_subparsers(dest="command", required=True)

    def pair_command(name, func, help, node_budget=True):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--input", help="pair file: {\"weights\": [...], \"degrees\": [...]}")
        sp.add_argument("--dp-cap", type=_non_negative_int, default=DEFAULT_DP_CAP,
                        help="largest degree the membership tables will handle")
        if node_budget:
            sp.add_argument("--node-budget", type=_non_negative_int,
                            default=DEFAULT_NODE_BUDGET,
                            help="node budget of each admissible family and nef partition search")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.set_defaults(func=func)
        return sp

    sp = pair_command("analyze", cmd_analyze, "full pipeline report on a pair")
    sp.add_argument("--mode", choices=_MODES, default="strong")
    sp.add_argument("--seed", type=_ascii_int, help="echoed into the report")

    pair_command("complex", cmd_complex, "singular and base complexes of a pair",
                 node_budget=False)

    sp = pair_command("nef", cmd_nef, "nef partition search and classification")
    sp.add_argument("action", choices=("find", "construct", "classify"))
    sp.add_argument("--mode", choices=_MODES, default="strong")
    sp.add_argument("--partition", help="partition file for classify")

    sp = pair_command("posetmap", cmd_posetmap, "admissible injection families")
    sp.add_argument("action", choices=("build", "verify"))
    sp.add_argument("--family", help="family file for verify")

    sp = sub.add_parser("realize", help="realize a complex as weight data")
    sp.add_argument("--complex", required=True, help="complex file (JSON)")
    sp.add_argument("--map", help="map file: {\"target\": ..., \"assignment\": ...}")
    sp.add_argument("--pad", type=_ascii_int, default=1)
    sp.add_argument("--ones", type=_ascii_int, default=1)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_realize)

    pair_command("oracle", cmd_oracle, "cross-check fast paths against brute force")

    return parser


def main(argv=None) -> int:
    """Run one subcommand: a pair subcommand gets the one facts holder of its
    --input file, and its report gets that pair as "input"."""
    args = build_parser().parse_args(argv)
    try:
        if args.func is cmd_realize:
            report, code = cmd_realize(args)
        else:
            facts = PairFacts(*pair_from_json(_read_json_file(args.input, "input")),
                              args.dp_cap, getattr(args, "node_budget", DEFAULT_NODE_BUDGET))
            report, code = args.func(args, facts)
            report["input"] = pair_to_json(facts.wt, facts.dg)
        _emit(report, args.format)
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionFailure as exc:
        print(f"hypothesis failed: {exc}", file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
