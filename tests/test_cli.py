import argparse
import functools
import json
import sys
import time
from pathlib import Path

import pytest

from wciq import arith, complexes, maps, nef, regularity
from wciq.cli import build_parser, main
from wciq.serialize import canonical_json

from helpers import BUDGET_FAMILY_PAIR, cofactor_pair, odd_primes_pair, run_fresh

REF_PAIR = {
    "weights": [1] * 62 + [6, 10, 15],
    "degrees": [16, 21, 25, 30],
}
#: Degrees on the residue-table side of every value set.
LARGE_DEGREE_PAIR = {"weights": [1, 1, 1, 6, 10, 15],
                     "degrees": [10007, 46421, 215443, 999983]}
SMALL_PAIR = {"weights": [1, 1, 1, 1, 1, 2], "degrees": [4]}
MAP_PAIR = {"weights": [1, 6, 10, 15], "degrees": [16, 21, 25, 30]}
#: Heavy weights 2 and 4, one dividing the other.
DIVIDING_PAIR = {"weights": [1, 1, 2, 4], "degrees": [4, 8]}
#: A weight with a prime factor far past trial division.
LARGE_PRIME_PAIR = {"weights": [1, 2, 10 ** 24 + 7], "degrees": [4]}
TEXT_REPORTS = Path(__file__).parent / "data" / "text_reports"


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def write_json(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(canonical_json(data), encoding="utf-8")
    return str(p)


@pytest.fixture
def ref_file(tmp_path):
    return write_json(tmp_path, "ref.json", REF_PAIR)


@pytest.fixture
def small_file(tmp_path):
    return write_json(tmp_path, "small.json", SMALL_PAIR)


@pytest.fixture
def map_file(tmp_path):
    return write_json(tmp_path, "map_pair.json", MAP_PAIR)


class TestAnalyze:
    def test_reference_is_refused_and_unfound(self, ref_file, capsys):
        code, out = run(["analyze", "--input", ref_file], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["fano_index"] == 1
        assert report["construction"]["ok"] is False
        assert report["construction"]["failed_hypothesis"] == "pair_trivial"
        assert report["construction"]["witness"] == [62, 63, 64]
        assert report["search"] == {
            "mode": "strong", "found": False, "partition": None}
        assert report["regularity"]["strictly_regular"] is True
        assert report["regularity"]["pair_trivial"] is False
        assert report["pair_trivial_literal"] is False

    def test_small_instance_succeeds(self, small_file, capsys):
        code, out = run(["analyze", "--input", small_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["construction"]["ok"] is True
        assert report["construction"]["partition"]["parts"] == [
            [0, 1, 2], [3, 4, 5]]
        assert report["construction"]["deltas"] == [2]
        assert report["construction"]["classification"] == {
            "valid": True, "nice": True, "strong": True}
        assert report["search"]["found"] is True
        assert report["family"]["built"] is True
        assert report["poset_map"]["all_ok"] is True

    def test_seed_is_echoed(self, small_file, capsys):
        code, out = run(
            ["analyze", "--input", small_file, "--seed", "7"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_large_seed_is_a_string(self, small_file, capsys):
        _, out = run(["analyze", "--input", small_file, "--seed", str(2 ** 60)], capsys)
        assert json.loads(out)["seed"] == str(2 ** 60)

    def test_deterministic_modulo_timings(self, ref_file, capsys):
        _, first = run(["analyze", "--input", ref_file], capsys)
        _, second = run(["analyze", "--input", ref_file], capsys)
        a, b = json.loads(first), json.loads(second)
        a.pop("timings")
        b.pop("timings")
        assert a == b

    def test_text_format(self, small_file, capsys):
        code, out = run(
            ["analyze", "--input", small_file, "--format", "text"], capsys)
        assert code == 0
        assert "fano_index: 3" in out.splitlines()

    def test_nice_mode_search_on_reference(self, ref_file, capsys):
        code, out = run(
            ["analyze", "--input", ref_file, "--mode", "nice"], capsys)
        # a nice partition exists even though the construction is refused
        assert code == 0
        assert json.loads(out)["search"]["found"] is True

    def test_large_fano_index_is_a_string(self, tmp_path, capsys):
        big = 2 ** 60
        pair = write_json(tmp_path, "big.json", {"weights": [1, str(big)], "degrees": [2]})
        _, out = run(["analyze", "--input", pair], capsys)
        assert json.loads(out)["fano_index"] == str(big - 1)

    def test_fano_index_past_the_digit_limit_exits_cleanly(self, tmp_path):
        # each weight has as many digits as the interpreter writes, their sum one more
        limit = sys.get_int_max_str_digits()
        big = str(9 * 10 ** (limit - 1))
        pair = write_json(tmp_path, "big.json", {"weights": [big, big], "degrees": [1]})
        proc = run_fresh("-m", "wciq.cli", "analyze", "--input", pair)
        assert proc.returncode == 3
        assert proc.stderr == (
            f"resource limit: report holds an integer of more than {limit} digits, "
            f"the interpreter's limit for integer strings\n")
        assert proc.stdout == ""


def count_calls(monkeypatch, fn) -> list:
    """Rebind every name a wciq module binds to fn to a wrapper that records
    the arguments of each call, and return that record."""
    calls = []

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "wciq" or name.startswith("wciq."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def decisions_asked(monkeypatch) -> list:
    """Rebind the membership decider, through which every membership
    decision goes, to record each (value set, degree) it decides: every
    degree not already known, and return that record."""
    asked, decide_row = [], arith._decide_row

    def row(degrees, known, vals, *rest):
        asked.extend((vals, d) for j, d in enumerate(degrees) if not known >> j & 1)
        return decide_row(degrees, known, vals, *rest)

    monkeypatch.setattr(arith, "_decide_row", row)
    return asked


class TestTextFormat:
    """--format text pinned line for line, the timings lines aside."""

    @pytest.mark.parametrize("name, pair", [
        ("analyze_map", MAP_PAIR),
        ("analyze_irregular", {"weights": [1, 1, 2, 2], "degrees": [3]}),
    ])
    def test_analyze(self, name, pair, tmp_path, capsys):
        path = write_json(tmp_path, "pair.json", pair)
        code, out = run(["analyze", "--input", path, "--format", "text"], capsys)
        assert code == 1
        lines = [line for line in out.splitlines(keepends=True)
                 if not line.startswith("timings.")]
        assert "".join(lines) == (TEXT_REPORTS / f"{name}.txt").read_text(encoding="utf-8")

    def test_realize(self, tmp_path, capsys):
        cx = write_json(tmp_path, "cx.json",
                        {"n_vertices": 3, "facets": [[0, 1], [0, 2], [1, 2]]})
        mp = write_json(tmp_path, "mp.json",
                        {"target": {"n_vertices": 3, "facets": [[0, 1, 2]]},
                         "assignment": {"0": 0, "1": 1, "2": 2}})
        code, out = run(["realize", "--complex", cx, "--map", mp, "--pad", "1",
                         "--ones", "2", "--format", "text"], capsys)
        assert code == 0
        assert out == (TEXT_REPORTS / "realize_map.txt").read_text(encoding="utf-8")


class TestEncodedSections:
    """The weight-only sections are encoded once per weight tuple and
    spliced into every later report on those weights."""

    @staticmethod
    def text_report(argv, capsys):
        code, out = run([*argv, "--format", "text"], capsys)
        return code, [line for line in out.splitlines() if not line.startswith("timings.")]

    @pytest.mark.parametrize("command", ["analyze", "complex"])
    def test_text_reads_the_kept_sections(self, command, map_file, capsys):
        argv = [command, "--input", map_file]
        arith.weight_facts.cache_clear()
        cold = self.text_report(argv, capsys)
        arith.weight_facts.cache_clear()
        assert run(argv, capsys)[0] == cold[0]
        assert self.text_report(argv, capsys) == cold
        assert "singular_sr.generators: [[1, 2, 3]]" in cold[1]


class TestAnalyzeOnce:
    """One `analyze` derives each fact of its pair once."""

    PAIR = {"weights": [1] * 11 + [2, 2, 3, 3, 5], "degrees": [6, 9, 10]}

    @pytest.fixture(autouse=True)
    def cold_kept_facts(self):
        # the counts below are those of one command on a pair whose weights,
        # values and value-level pair are new to the process
        arith.weight_facts.cache_clear()
        arith.value_facts.cache_clear()
        arith.value_pair_facts.cache_clear()

    def test_each_fact_once(self, tmp_path, monkeypatch, capsys):
        path = write_json(tmp_path, "pair.json", self.PAIR)
        searches = count_calls(monkeypatch, maps._family)
        sweeps = count_calls(monkeypatch, regularity._strict_regularity)
        face_listings = count_calls(monkeypatch, complexes._listed_value_faces)
        base_walks = count_calls(monkeypatch, complexes._base_facets)
        invariant_checks = count_calls(monkeypatch, maps._invariant_violations)
        classifications = count_calls(monkeypatch, nef.classify_partition)
        witnesses = count_calls(monkeypatch, regularity.pair_nontriviality_witness)
        reductions = count_calls(monkeypatch, arith._reduce)
        asked = decisions_asked(monkeypatch)
        code, out = run(["analyze", "--input", path], capsys)
        assert code == 0
        assert json.loads(out)["construction"]["ok"] is True
        assert len(searches) == 1
        assert len(sweeps) == len(face_listings) == 1
        assert len(base_walks) == 1
        assert len(invariant_checks) == 1
        assert len(classifications) == 1
        assert witnesses == []
        # at most one reduction per value set, one decision per (value set, degree)
        assert reductions and len(reductions) == len(set(reductions))
        assert asked and len(asked) == len(set(asked))

    def test_each_decision_once_on_the_table_path(self, tmp_path, monkeypatch, capsys):
        # degrees far past 256 times the least value: rows read residue tables
        path = write_json(tmp_path, "pair.json", LARGE_DEGREE_PAIR)
        tables = count_calls(monkeypatch, arith._residue_table)
        asked = decisions_asked(monkeypatch)
        assert run(["analyze", "--input", path], capsys)[0] == 1
        assert tables
        assert asked and len(asked) == len(set(asked))

    @pytest.mark.parametrize("argv,walks", [(["nef", "construct"], 2), (["analyze"], 3)])
    def test_one_divisibility_walk(self, tmp_path, monkeypatch, capsys, argv, walks):
        # one walk each over the value sets: the strict-regularity sweep over
        # the singular faces, listed once, the divisibility search, one kernel
        # run per complex, and under analyze the base complexes, one run per
        # degree here
        path = write_json(tmp_path, "ref.json", REF_PAIR)
        sweeps = count_calls(monkeypatch, regularity._regularity_sweep)
        divisibility = count_calls(monkeypatch, regularity._divisibility)
        base_masks = count_calls(monkeypatch, complexes._base_masks)
        face_listings = count_calls(monkeypatch, complexes._listed_value_faces)
        dualizations = count_calls(monkeypatch, complexes._dualize)
        code, out = run([*argv, "--input", path], capsys)
        assert code == 1
        report = json.loads(out)
        assert report.get("construction", report)["witness"] == [62, 63, 64]
        assert len(divisibility) == len(sweeps) == len(face_listings) == 1
        assert len(sweeps) + len(divisibility) + len(base_masks) == walks
        assert len(dualizations) == 2 + len(base_masks) * len(REF_PAIR["degrees"])

    def test_other_degrees_reuse_the_weight_facts(self, tmp_path, monkeypatch, capsys):
        # patched before the first run, so both runs key the kept facts alike
        walks = count_calls(monkeypatch, regularity._divisibility)
        builds = count_calls(monkeypatch, complexes._singular_complex)
        base_walks = count_calls(monkeypatch, complexes._base_facets)
        expansions = count_calls(monkeypatch, regularity._value_class_facets)
        presentations = count_calls(monkeypatch, complexes._singular_presentation)
        path = write_json(tmp_path, "pair.json", self.PAIR)
        assert run(["analyze", "--input", path], capsys)[0] == 0
        assert (len(walks), len(builds), len(base_walks)) == (1, 1, 1)
        assert (len(expansions), len(presentations)) == (2, 1)
        for calls in (walks, builds, base_walks, expansions, presentations):
            calls.clear()
        other = write_json(tmp_path, "other.json", {**self.PAIR, "degrees": [4, 9, 10]})
        code, out = run(["analyze", "--input", other], capsys)
        assert code == 0
        assert json.loads(out)["input"]["degrees"] == [4, 9, 10]
        # the weight-only sections are spliced in as first encoded
        assert walks == builds == expansions == presentations == []
        assert len(base_walks) == 1

    def test_permuted_weights_reuse_the_value_facts(self, tmp_path, monkeypatch, capsys):
        # patched before the first run, so every run keys the kept facts alike
        walks = [count_calls(monkeypatch, fn) for fn in (
            regularity._divisibility, complexes._listed_value_faces, maps._face_weights,
            complexes._coprime_base)]
        ones, heavy = self.PAIR["weights"][:11], self.PAIR["weights"][11:]
        # the third pair is not strictly regular, so its analysis asks for
        # no face weights; the call after the loop does
        for weights in (self.PAIR["weights"], ones + heavy[::-1], ones + heavy + [5]):
            path = write_json(tmp_path, "pair.json", {**self.PAIR, "weights": weights})
            assert run(["analyze", "--input", path], capsys)[0] == 0
            assert [len(calls) for calls in walks] == [1, 1, 1, 1]
        assert maps.occurring_face_weights(weights) == (2, 3, 5)
        assert [len(calls) for calls in walks] == [1, 1, 1, 1]


class TestValueCountGuard:
    # 21 pairwise coprime values: all 2^21 value sets are non-divisible, yet
    # each complex over them has one facet, so the searches end at once
    PAIR = {"weights": [1] * 3 + [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                  41, 43, 47, 53, 59, 61, 67, 71, 73],
            "degrees": [100]}
    VERDICTS = {"well_formed": True, "linear_cone": False, "strictly_regular": False,
                "violating_subset": [4], "pair_trivial": True,
                "nondivisible_facets": [list(range(3, 24))],
                "strongly_nondivisible_facets": [list(range(3, 24))]}

    def test_refused_before_the_divisibility_walk(self, tmp_path, capsys):
        # no longer refused: the value 3 alone represents no degree
        path = write_json(tmp_path, "pair.json", self.PAIR)
        start = time.perf_counter()
        code, out = run(["analyze", "--input", path], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        report = json.loads(out)
        assert report["regularity"] == self.VERDICTS
        assert report["pair_trivial_literal"] is False
        assert report["construction"] == {
            "ok": False, "failed_hypothesis": "strictly_regular", "witness": [4]}

    def test_refused_again_on_the_same_weights(self, tmp_path, capsys):
        # the kept facts answer a second run alike, the timings aside
        path = write_json(tmp_path, "pair.json", self.PAIR)
        reports = []
        for _ in range(2):
            code, out = run(["analyze", "--input", path], capsys)
            assert code == 1
            reports.append(json.loads(out))
            reports[-1].pop("timings")
        assert reports[0] == reports[1]


class TestChoiceCountGuard:
    # 2,000 twos and 1,000 threes: 2,000,000 minimal non-faces of the
    # singular complex, and as many facets of each divisibility complex
    PAIR = {"weights": [1] * 3 + [2] * 2000 + [3] * 1000, "degrees": [6]}

    def test_refused_before_any_set_is_built(self, tmp_path, capsys):
        path = write_json(tmp_path, "pair.json", self.PAIR)
        start = time.perf_counter()
        code = main(["analyze", "--input", path])
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert capsys.readouterr().err == (
            "resource limit: minimal non-face search exceeded the node budget 2000000\n")

    @staticmethod
    def coprime_pair(m):
        # m copies each of four coprime values: m^4 facets of each
        # divisibility complex, over a singular complex of m^2 * 6 non-faces
        return {"weights": [1] + [5, 7, 11, 13] * m, "degrees": [35]}

    def test_divisibility_facets_refused_before_they_are_built(self, tmp_path, capsys):
        path = write_json(tmp_path, "pair.json", self.coprime_pair(40))
        start = time.perf_counter()
        code = main(["analyze", "--input", path])
        assert time.perf_counter() - start < 5.0
        assert code == 3
        assert capsys.readouterr().err == (
            "resource limit: divisibility facet expansion exceeded the node budget 2000000\n")

    def test_divisibility_facets_within_the_budget(self):
        report = regularity.pair_is_trivial(self.coprime_pair(20)["weights"])
        assert len(report.nondivisible_facets) == len(report.strongly_nondivisible_facets) == 20 ** 4


class TestOddPrimes:
    def test_dp_cap_ends_the_sweep(self, tmp_path, capsys):
        # 1,199 pairwise coprime values: 1,199 singular faces, the second
        # of which, 5, neither divides their sum nor is decided past the cap
        path = write_json(tmp_path, "pair.json", odd_primes_pair())
        start = time.perf_counter()
        code = main(["analyze", "--input", path])
        assert time.perf_counter() - start < 10.0
        assert code == 3
        assert capsys.readouterr().err == (
            "resource limit: representability of degree d_1 = 5450712 over [5] exceeds "
            "the dp cap 1000000\n")


class TestComplex:
    def test_reference_complexes(self, map_file, capsys):
        code, out = run(["complex", "--input", map_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["singular_complex"]["facets"] == [[1, 2], [1, 3], [2, 3]]
        assert report["singular_complex"]["vertex_weights"] == {
            "1": 6, "2": 10, "3": 15}
        assert report["singular_sr"]["generators"] == [[1, 2, 3]]
        bases = report["base_complexes"]
        assert bases["1"] == {"degree": 16, "facets": [[1, 3], [2, 3]]}
        assert bases["2"] == {"degree": 21, "facets": [[1, 2], [2, 3]]}
        assert bases["3"] == {"degree": 25, "facets": [[1, 2], [1, 3]]}
        assert bases["4"] == {"degree": 30, "facets": []}

    def test_large_prime_factor(self, tmp_path, capsys):
        path = write_json(tmp_path, "pair.json", LARGE_PRIME_PAIR)
        start = time.perf_counter()
        code, out = run(["complex", "--input", path], capsys)
        assert time.perf_counter() - start < 5.0
        assert code == 0
        assert json.loads(out)["singular_complex"]["facets"] == [[1], [2]]

    def test_dp_cap_limits(self, map_file, capsys):
        code = main(["complex", "--input", map_file, "--dp-cap", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "resource limit: representability of 16 over [6] exceeds the dp cap 1\n")


class TestNef:
    def test_find_strong_on_reference(self, ref_file, capsys):
        code, out = run(["nef", "find", "--input", ref_file], capsys)
        assert code == 1
        assert json.loads(out)["found"] is False

    def test_find_nice_on_reference(self, ref_file, capsys):
        code, out = run(
            ["nef", "find", "--input", ref_file, "--mode", "nice"], capsys)
        assert code == 0
        assert json.loads(out)["found"] is True

    def test_find_budget(self, ref_file, capsys):
        code, _ = run(
            ["nef", "find", "--input", ref_file, "--mode", "any",
             "--node-budget", "3"], capsys)
        assert code == 3

    def test_construct_small(self, small_file, capsys):
        code, out = run(["nef", "construct", "--input", small_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["partition"]["parts"] == [[0, 1, 2], [3, 4, 5]]
        assert report["deltas"] == [2]
        assert report["classification"]["strong"] is True
        assert report["family"]["im_phi"] == [2]

    def test_construct_reference_refused(self, ref_file, capsys):
        code, out = run(["nef", "construct", "--input", ref_file], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["failed_hypothesis"] == "pair_trivial"
        assert report["witness"] == [62, 63, 64]

    def test_classify(self, small_file, tmp_path, capsys):
        part = write_json(tmp_path, "part.json",
                          {"parts": [[0, 1, 2], [3, 4, 5]]})
        code, out = run(
            ["nef", "classify", "--input", small_file,
             "--partition", part], capsys)
        assert code == 0
        assert json.loads(out)["classification"] == {
            "valid": True, "nice": True, "strong": True}

    def test_classify_needs_partition(self, small_file, capsys):
        code, _ = run(["nef", "classify", "--input", small_file], capsys)
        assert code == 2


class TestPosetmap:
    def test_build_reference_family(self, map_file, capsys):
        code, out = run(["posetmap", "build", "--input", map_file], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["built"] is True
        assert report["family"]["im_phi"] == [2, 3, 5, 6, 10, 15]
        assert report["family"]["injections"]["2"] == {"1": 1, "2": 4}
        assert report["family"]["injections"]["15"] == {"3": 4}
        assert report["fibers"] == {"4": [1, 2, 3]}

    def test_csp_face_weights_past_2_53_are_strings(self, tmp_path, capsys):
        big = 1125899906842679
        path = write_json(tmp_path, "big.json",
                          {"weights": [1, 30 * big, 42 * big, 70 * big],
                           "degrees": [210 * big, 72 * big, 100 * big, 112 * big]})
        code, out = run(["posetmap", "build", "--input", path,
                         "--dp-cap", str(10 ** 18)], capsys)
        assert code == 1
        report = json.loads(out)
        csp = report["csp"]
        assert str(30 * big) in csp["im_phi"]
        assert str(30 * big) == report["input"]["weights"][1]
        for b in csp["im_phi"] + [b for edge in csp["cover_edges"] for b in edge]:
            assert isinstance(b, str) if int(b) >= 2 ** 53 else isinstance(b, int)

    def test_verify_built_family(self, map_file, tmp_path, capsys):
        _, out = run(["posetmap", "build", "--input", map_file], capsys)
        fam = write_json(tmp_path, "fam.json", json.loads(out)["family"])
        code, out = run(
            ["posetmap", "verify", "--input", map_file, "--family", fam],
            capsys)
        assert code == 0
        report = json.loads(out)["poset_map"]
        assert report["all_ok"] is True
        assert report["scope"] == "all-faces"
        assert report["family_violations"] == []

    def test_verify_rejects_tampered_family(self, map_file, tmp_path, capsys):
        _, out = run(["posetmap", "build", "--input", map_file], capsys)
        fam_data = json.loads(out)["family"]
        # degree 21 is odd, no even weights can reach it
        fam_data["injections"]["2"]["1"] = 2
        fam = write_json(tmp_path, "bad.json", fam_data)
        code, out = run(
            ["posetmap", "verify", "--input", map_file, "--family", fam],
            capsys)
        assert code == 1
        report = json.loads(out)["poset_map"]
        assert report["all_ok"] is False
        assert report["scope"] == "invariants-failed"

    @pytest.mark.parametrize("injections,violation", [
        ({"2": {"2": 1, "3": 2}, "4": {"3": 1}},
         "vertices 2 and 3 with dividing weights share image 1"),
        ({"2": {"2": 1}, "4": {"3": 1}}, "injection at 2 does not cover its domain"),
    ], ids=["shared-image", "uncovered-domain"])
    def test_verify_reports_family_violation(self, injections, violation, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json", DIVIDING_PAIR)
        fam = write_json(tmp_path, "fam.json", {"im_phi": [2, 4], "injections": injections})
        code, out = run(["posetmap", "verify", "--input", pair, "--family", fam], capsys)
        assert code == 1
        assert json.loads(out)["poset_map"]["family_violations"] == [violation]

    @pytest.mark.parametrize("family,message", [
        ([], 'family must be an object with "im_phi" and "injections"'),
        ({"im_phi": {}, "injections": {}}, '"im_phi" must be an array'),
        ({"im_phi": [2, 4], "injections": []}, '"injections" must be an object'),
    ], ids=["not-an-object", "im-phi-object", "injections-array"])
    def test_verify_checks_family_shape(self, family, message, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json", DIVIDING_PAIR)
        fam = write_json(tmp_path, "fam.json", family)
        assert main(["posetmap", "verify", "--input", pair, "--family", fam]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_verify_needs_family(self, map_file, capsys):
        code, _ = run(["posetmap", "verify", "--input", map_file], capsys)
        assert code == 2

    def test_build_refused_on_irregular_pair(self, tmp_path, capsys):
        pair = write_json(tmp_path, "irr.json",
                          {"weights": [2, 2, 2], "degrees": [2, 3]})
        code, out = run(["posetmap", "build", "--input", pair], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["built"] is False
        assert report["failed_hypothesis"] == "strictly_regular"

    def test_verify_rejects_zero_face_weight(self, map_file, tmp_path, capsys):
        fam = write_json(tmp_path, "zero.json",
                         {"im_phi": [0], "injections": {"0": {}}})
        code = main(["posetmap", "verify", "--input", map_file, "--family", fam])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: face weight must be positive, got 0\n")

    @pytest.mark.parametrize("argv", [["analyze"], ["posetmap", "build"]])
    def test_family_search_budget(self, argv, tmp_path, capsys):
        pair = write_json(tmp_path, "budget.json", BUDGET_FAMILY_PAIR)
        assert main(argv + ["--input", pair, "--node-budget", "1000"]) == 3
        assert capsys.readouterr().err == (
            "resource limit: admissible family search exceeded the node "
            "budget 1000\n")

    def test_verify_rejects_a_non_ascii_vertex_key(self, map_file, tmp_path, capsys):
        _, out = run(["posetmap", "build", "--input", map_file], capsys)
        fam_data = json.loads(out)["family"]
        # U+0661 ARABIC-INDIC DIGIT ONE, which int() reads as 1
        fam_data["injections"]["2"] = {"\u0661": 1, "2": 4}
        fam = write_json(tmp_path, "fam.json", fam_data)
        code = main(["posetmap", "verify", "--input", map_file, "--family", fam])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: vertex must be an integer or decimal string, got '\u0661'\n")

    def test_verify_dp_cap_limits(self, map_file, tmp_path, capsys):
        _, out = run(["posetmap", "build", "--input", map_file], capsys)
        fam = write_json(tmp_path, "fam.json", json.loads(out)["family"])
        code = main(["posetmap", "verify", "--input", map_file,
                     "--family", fam, "--dp-cap", "1"])
        assert code == 3
        assert "exceeds the dp cap 1" in capsys.readouterr().err


#: Odd primes 3..41: with 2 they give 13 heavy values, whose value subsets
#: number 2^13 = 8192 but whose value sets with gcd above 1 number 25.
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: Past the face limit, with 25 value-class records.
VALUE_CLASS_PAIR = {"weights": [1] * 419 + [2] * 13 + list(ODD_PRIMES),
                    "degrees": list(range(4, 29, 2)) + [2 * p for p in ODD_PRIMES]}
#: Past the face limit even on value-class representatives.
REPRESENTATIVES_PAIR = {
    "weights": [1] * 451 + [v for v in (6, 10, 14, 22, 26, 34, 38) for _ in range(2)],
    "degrees": [k * v for v in (6, 10, 14, 22, 26, 34, 38) for k in (2, 3)]}


class TestPosetMapBound:
    def test_value_class_records_follow_the_restricted_faces(self, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json", VALUE_CLASS_PAIR)
        code, out = run(["analyze", "--input", pair], capsys)
        assert code == 0
        report = json.loads(out)["poset_map"]
        assert report["scope"] == "value-class-representatives"
        assert report["all_ok"] is True
        assert len(report["property2_records"]) == 25

    def test_too_many_representative_faces(self, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json", REPRESENTATIVES_PAIR)
        assert main(["analyze", "--input", pair]) == 3
        assert capsys.readouterr().err == (
            "resource limit: face enumeration exceeds 4096 even on value-class "
            "representatives\n")
        code, _ = run(["posetmap", "build", "--input", pair], capsys)
        assert code == 0

    def test_ten_cofactors_are_answered(self, tmp_path, capsys):
        # 1,022 and 4,094 occurring face weights, one family search level
        # each; the covers of each are read off its k values
        for k in (10, 12):
            data = cofactor_pair(k)
            pair = write_json(tmp_path, f"p{k}.json", data)
            start = time.perf_counter()
            assert main(["analyze", "--input", pair]) == 1
            assert time.perf_counter() - start < 2
            out, err = capsys.readouterr()
            assert json.loads(out)["family"]["built"] is True and err == ""
            assert main(["posetmap", "build", "--input", pair]) == 0
            out, err = capsys.readouterr()
            assert json.loads(out)["built"] is True and err == ""
            fam = maps.build_admissible_family(data["weights"], data["degrees"])
            assert maps.check_family_invariants(data["weights"], data["degrees"], fam) == []

    def test_thirteen_cofactors_pass_the_face_limit(self, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json", cofactor_pair(13))
        start = time.perf_counter()
        assert main(["analyze", "--input", pair]) == 3
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            "resource limit: occurring face weights exceed 4096 in the "
            "face-weight closure\n")


class TestRealize:
    def test_plain_realization(self, tmp_path, capsys):
        cx = write_json(tmp_path, "cx.json",
                        {"n_vertices": 4,
                         "facets": [[0, 1], [0, 2], [0, 3],
                                    [1, 2], [1, 3], [2, 3]]})
        code, out = run(["realize", "--complex", cx], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["weights"] == ["30", "154", "273", "715"]
        assert report["prime_assignment"]["0,1"] == 2
        assert report["prime_assignment"]["2,3"] == 13
        assert report["round_trip"] is True

    def test_map_instance(self, tmp_path, capsys):
        cx = write_json(tmp_path, "cx.json",
                        {"n_vertices": 3,
                         "facets": [[0, 1], [0, 2], [1, 2]]})
        mp = write_json(tmp_path, "mp.json",
                        {"target": {"n_vertices": 3, "facets": [[0, 1, 2]]},
                         "assignment": {"0": 0, "1": 1, "2": 2}})
        code, out = run(
            ["realize", "--complex", cx, "--map", mp,
             "--pad", "1", "--ones", "2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["weights"] == ["1", "1", "6", "10", "15"]
        assert report["degrees"] == ["12", "20", "30", "30"]
        assert report["planted_assignment"] == {"2": 0, "3": 1, "4": 2}
        assert report["validation"]["simplicial"] is True
        assert report["validation"]["weighted"] is True
        assert report["validation"]["contracts_face"] is None

    def test_weight_past_the_digit_limit_exits_cleanly(self, tmp_path):
        # vertex 0 of the star carries the product of 1,500 primes
        cx = write_json(tmp_path, "star.json",
                        {"n_vertices": 1501, "facets": [[0, i] for i in range(1, 1501)]})
        proc = run_fresh("-m", "wciq.cli", "realize", "--complex", cx)
        assert proc.returncode == 3
        assert proc.stderr == (
            f"resource limit: realization holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits, the interpreter's limit for "
            f"integer strings\n")
        assert proc.stdout == ""

    @pytest.mark.parametrize("n,facets", [
        (22, [[v for v in range(22) if v != i] for i in range(22)]),
        (30, [list(range(30))]),
    ], ids=["boundary-of-21-simplex", "30-simplex"])
    def test_large_facets_in_time(self, n, facets, tmp_path, capsys):
        cx = write_json(tmp_path, "cx.json", {"n_vertices": n, "facets": facets})
        start = time.perf_counter()
        code, out = run(["realize", "--complex", cx], capsys)
        assert time.perf_counter() - start < 1
        assert code == 0
        report = json.loads(out)
        assert report["round_trip"] is True
        assert len(report["prime_assignment"]) == len(facets)

    def test_map_file_shape_checked(self, tmp_path, capsys):
        cx = write_json(tmp_path, "cx.json",
                        {"n_vertices": 2, "facets": [[0, 1]]})
        mp = write_json(tmp_path, "mp.json", {"assignment": {}})
        code, _ = run(["realize", "--complex", cx, "--map", mp], capsys)
        assert code == 2

    def test_map_assignment_must_be_an_object(self, tmp_path, capsys):
        cx = write_json(tmp_path, "cx.json",
                        {"n_vertices": 2, "facets": [[0, 1]]})
        mp = write_json(tmp_path, "mp.json",
                        {"target": {"n_vertices": 2, "facets": [[0, 1]]},
                         "assignment": [0, 1]})
        assert main(["realize", "--complex", cx, "--map", mp]) == 2
        assert capsys.readouterr().err == 'error: "assignment" must be an object\n'

    @pytest.mark.parametrize("key,assignment", [
        ("\u0660", {"\u0660": 0, "1": 1, "2": 0}),
        (" 1 ", {"0": 0, " 1 ": 1, "2": 0}),
        ("1_0", {"0": 0, "1": 1, "2": 0, "1_0": 0}),
    ], ids=["arabic-indic-zero", "padded", "underscore"])
    def test_vertex_keys_are_decimal_strings(self, key, assignment, tmp_path, capsys):
        # int() reads these keys as 0, 1 and 10
        cx = write_json(tmp_path, "cx.json",
                        {"n_vertices": 3, "facets": [[0, 1], [1, 2]]})
        mp = write_json(tmp_path, "mp.json",
                        {"target": {"n_vertices": 2, "facets": [[0, 1]]},
                         "assignment": assignment})
        code = main(["realize", "--complex", cx, "--map", mp])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: vertex must be an integer or decimal string, got {key!r}\n"

    def test_contracting_map_rejected(self, tmp_path, capsys):
        cx = write_json(tmp_path, "cx.json",
                        {"n_vertices": 3,
                         "facets": [[0, 1], [0, 2], [1, 2]]})
        mp = write_json(tmp_path, "mp.json",
                        {"target": {"n_vertices": 2, "facets": [[0, 1]]},
                         "assignment": {"0": 0, "1": 1, "2": 0}})
        code, _ = run(["realize", "--complex", cx, "--map", mp], capsys)
        assert code == 2


class TestOracle:
    def test_clean_small_pair(self, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json",
                          {"weights": [1, 1, 2, 3], "degrees": [4, 6]})
        code, out = run(["oracle", "--input", pair], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["divergences"] == []
        assert report["representability"]["1"] == {"fast": True, "brute": True}
        assert set(report["partitions"]) == {"any", "nice", "strong"}

    def test_no_heavy_values(self, tmp_path, capsys):
        # every weight 1: each degree is asked over the empty value set
        pair = write_json(tmp_path, "p.json", {"weights": [1, 1], "degrees": [3]})
        code, out = run(["oracle", "--input", pair], capsys)
        assert code == 0
        assert json.loads(out)["divergences"] == []

    def test_too_many_heavy(self, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json",
                          {"weights": [2] * 13, "degrees": [4]})
        code, _ = run(["oracle", "--input", pair], capsys)
        assert code == 3

    def test_degree_too_large(self, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json",
                          {"weights": [1, 2], "degrees": [201]})
        code, _ = run(["oracle", "--input", pair], capsys)
        assert code == 3

    def test_node_budget_bounds_the_enumeration(self, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json",
                          {"weights": [1, 1, 2, 3], "degrees": [4, 6]})
        assert main(["oracle", "--input", pair, "--node-budget", "1"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("resource limit: ")
        assert err.endswith(" exceeded the node budget 1\n")

    @pytest.mark.parametrize("reference,divergence", [
        ("brute_force_representable", "representability of degree 1"),
        ("naive_strictly_regular", "strict regularity"),
        ("naive_partition_exists", "partition existence in mode strong"),
    ])
    def test_divergence_is_named(self, reference, divergence, small_file,
                                 monkeypatch, capsys):
        from wciq import oracles

        ref = getattr(oracles, reference)

        def disagree(*args, **kwargs):
            out = ref(*args, **kwargs)
            return (not out[0], out[1]) if isinstance(out, tuple) else not out

        monkeypatch.setattr(oracles, reference, disagree)
        code, out = run(["oracle", "--input", small_file], capsys)
        assert code == 1
        assert divergence in json.loads(out)["divergences"]

    def test_dp_cap_limits(self, map_file, capsys):
        # 16 is neither divisible by nor within the cap of any heavy value
        code = main(["oracle", "--input", map_file, "--dp-cap", "1"])
        assert code == 3
        assert capsys.readouterr().err == (
            "resource limit: representability of 16 over [6, 10, 15] "
            "exceeds the dp cap 1\n")


class TestZeroNodeBudget:
    """`[1, 1, 1]; [2]` has no heavy value, so the family and partition
    searches have no candidate and spend no node."""

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["nef", "find", "--mode", "any"], ["nef", "construct"],
        ["posetmap", "build"]])
    def test_nothing_to_search_is_answered(self, argv, tmp_path, capsys):
        pair = write_json(tmp_path, "p.json", {"weights": [1, 1, 1], "degrees": [2]})
        code, _ = run(argv + ["--input", pair, "--node-budget", "0"], capsys)
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_oracle_tries_the_empty_placement(self, tmp_path, capsys):
        # the reference enumeration spends one node on the empty placement
        pair = write_json(tmp_path, "p.json", {"weights": [1, 1, 1], "degrees": [2]})
        assert main(["oracle", "--input", pair, "--node-budget", "0"]) == 3
        assert capsys.readouterr().err == (
            "resource limit: oracle partition enumeration exceeded the node budget 0\n")


class TestInputHandling:
    def test_missing_input_flag(self, capsys):
        assert main(["analyze"]) == 2

    def test_unreadable_file(self, capsys):
        assert main(["analyze", "--input", "/no/such/file.json"]) == 2

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["analyze", "--input", str(p)]) == 2

    def test_missing_weights_key(self, tmp_path, capsys):
        p = write_json(tmp_path, "p.json", {"degrees": [2]})
        assert main(["analyze", "--input", p]) == 2

    @pytest.mark.parametrize("flag", ["--dp-cap", "--node-budget"])
    def test_negative_cap_is_invalid_input(self, flag, small_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", small_file, flag, "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"argument {flag}: expected an integer 0 or more, got '-1'")
        args = build_parser().parse_args(["analyze", flag, "0"])
        assert getattr(args, flag[2:].replace("-", "_")) == 0

    @pytest.mark.parametrize("text,code,message", [
        ('{"weights": [1, 1, "\u00b2"], "degrees": [2]}', 2,
         "error: weight must be an integer or decimal string, got '\u00b2'"),
        ('{"weights": [1, 1, "\u0662"], "degrees": [2]}', 2,
         "error: weight must be an integer or decimal string, got '\u0662'"),
        ('{"weights": [1, "1' + "0" * 5000 + '"], "degrees": [2]}', 3,
         "resource limit: weight holds an integer of more than"),
        ('{"weights": [1, 1' + "0" * 5000 + '], "degrees": [2]}', 3,
         "resource limit: input holds an integer of more than"),
        ('{"weights": ' + "[" * 100000 + "]" * 100000 + ', "degrees": [2]}', 2,
         "error: input nests deeper than the JSON parser can follow"),
    ], ids=["superscript-digit", "arabic-indic-digit", "long-string", "long-literal",
            "deep-nesting"])
    def test_malformed_numbers_exit_cleanly(self, tmp_path, text, code, message):
        p = tmp_path / "p.json"
        p.write_text(text, encoding="utf-8")
        proc = run_fresh("-m", "wciq.cli", "analyze", "--input", str(p))
        assert proc.returncode == code
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith(message)
        if code == 3:
            assert f"{sys.get_int_max_str_digits()} digits" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("command", ["analyze --input", "realize --complex"])
    def test_non_utf8_file_exits_cleanly(self, tmp_path, command):
        p = tmp_path / "bad.json"
        p.write_bytes(b'{"weights": [\xff1, 2], "degrees": [2]}')
        proc = run_fresh("-m", "wciq.cli", *command.split(), str(p))
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"error: cannot read {p}: ")
        assert proc.stdout == ""

    @pytest.mark.parametrize("flag,text", [
        ("--dp-cap", "٣"), ("--node-budget", "٣"), ("--seed", "٣"),
        ("--seed", " 1_0"), ("--seed", "+3"), ("--seed", "--3"),
        ("--seed", "1" * (sys.get_int_max_str_digits() + 1)),
    ])
    def test_options_take_ascii_digits_only(self, flag, text, small_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--input", small_file, f"{flag}={text}"])
        assert exc.value.code == 2
        if len(text) > sys.get_int_max_str_digits():
            expected = f"expected at most {sys.get_int_max_str_digits()} digits"
        else:
            expected = (f"expected an integer{'' if flag == '--seed' else ' 0 or more'}, "
                        f"got {text!r}")
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"argument {flag}: {expected}")

    @pytest.mark.parametrize("flag", ["--pad", "--ones"])
    def test_realize_counts_take_ascii_digits_only(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["realize", "--complex", "c.json", flag, "٣"])
        assert exc.value.code == 2
        assert build_parser().parse_args(
            ["realize", "--complex", "c.json", flag, "-2"]).__dict__[flag[2:]] == -2

    @pytest.mark.parametrize("flag", ["--pad", "--ones"])
    def test_negative_realize_count_refused_without_map(self, flag, tmp_path, capsys):
        cx = write_json(tmp_path, "cx.json", {"n_vertices": 2, "facets": [[0, 1]]})
        assert main(["realize", "--complex", cx, flag, "-1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {flag[2:]} must be a non-negative integer, got -1\n")

    def test_negative_seed_is_echoed(self, small_file, capsys):
        code, out = run(["analyze", "--input", small_file, "--seed", "-3"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == -3

    def test_output_is_canonical_json(self, small_file, capsys):
        _, out = run(["complex", "--input", small_file], capsys)
        assert out.endswith("\n")
        assert canonical_json(json.loads(out)) == out


class TestRepeatedCalls:
    """The parser is built once per process; later calls must behave as
    the first."""

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        out = captured.out
        if out:
            report = json.loads(out)
            report.pop("timings", None)
            out = canonical_json(report)
        return code, out, captured.err

    @pytest.mark.parametrize("argv,code", [
        (["analyze", "--mode", "nice", "--input"], 1),
        (["complex", "--input"], 0),
        (["analyze", "--mode", "bogus", "--input"], 2),
    ])
    def test_same_result_twice(self, argv, code, map_file, capsys):
        first = self.outcome(argv + [map_file], capsys)
        assert first[0] == code
        assert self.outcome(argv + [map_file], capsys) == first

    def test_public_results_share_no_mutable_state(self, map_file, capsys):
        argv = ["analyze", "--input", map_file]
        first = self.outcome(argv, capsys)
        weights = MAP_PAIR["weights"]
        sing = complexes.singular_complex(weights)
        sing.vertex_weights.clear()
        assert complexes.singular_complex(weights).vertex_weights == {1: 6, 2: 10, 3: 15}
        sr = complexes.sr_presentation(complexes.singular_complex(weights))
        nondivisible = regularity.nondivisible_complex(weights)
        witness = regularity.pair_nontriviality_witness(weights)
        assert witness == {1, 2, 3}
        for mutate in (lambda: sr.generators[0].add(0),
                       lambda: sr.variable_degrees.__setitem__(0, 1),
                       lambda: next(iter(nondivisible.facets)).add(0),
                       lambda: nondivisible.facets.clear(),
                       lambda: witness.discard(1)):
            with pytest.raises((AttributeError, TypeError)):
                mutate()
        assert self.outcome(argv, capsys) == first


class TestParser:
    def test_each_subcommand_takes_only_the_options_it_reads(self):
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        options = {name: sorted(opt for action in sp._actions
                                for opt in action.option_strings if opt not in ("-h", "--help"))
                   for name, sp in subparsers.choices.items()}
        pair = ["--dp-cap", "--format", "--input"]
        assert options == {
            "analyze": sorted(pair + ["--mode", "--node-budget", "--seed"]),
            "complex": pair,
            "nef": sorted(pair + ["--mode", "--node-budget", "--partition"]),
            "posetmap": sorted(pair + ["--family", "--node-budget"]),
            "realize": ["--complex", "--format", "--map", "--ones", "--pad"],
            "oracle": sorted(pair + ["--node-budget"]),
        }
