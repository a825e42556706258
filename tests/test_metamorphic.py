"""Metamorphic relations of `wciq analyze`: relabelling the weights permutes
every complex and changes no verdict, and one more weight-1 index raises
the Fano index by one and changes no complex.

The facts of a value set are shared by every weight tuple with those
values, whatever their order, so these relations also check that nothing
kept for one ordering leaks into the answer for another.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from wciq.cli import main
from wciq.serialize import canonical_json

VERDICTS = (("regularity", "well_formed"), ("regularity", "linear_cone"),
            ("regularity", "strictly_regular"), ("regularity", "pair_trivial"),
            ("family", "built"), ("construction", "ok"), ("search", "found"))


def analyze(tmp_path, weights, degrees, mode):
    """Exit code and report of one in-process `wciq analyze` run."""
    path = tmp_path / "pair.json"
    path.write_text(canonical_json({"weights": weights, "degrees": degrees}), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["analyze", "--input", str(path), "--mode", mode])
    return code, json.loads(out.getvalue())


def complexes(report, sigma=None):
    """Every complex of a report, vertices relabelled by sigma: the singular
    complex's facets and vertex weights, each base complex's facets, and the
    facets of both divisibility complexes."""
    def move(i):
        return i if sigma is None else sigma[i]

    def image(facets):
        return sorted(sorted(map(move, f)) for f in facets)

    sing = report["singular_complex"]
    return {
        "singular": image(sing["facets"]),
        "vertex_weights": {move(int(i)): w for i, w in sing["vertex_weights"].items()},
        "base": {j: image(b["facets"]) for j, b in report["base_complexes"].items()},
        "nondivisible": image(report["regularity"]["nondivisible_facets"]),
        "strongly": image(report["regularity"]["strongly_nondivisible_facets"]),
    }


def verdicts(code, report):
    return code, [report[section][key] for section, key in VERDICTS]


@st.composite
def relabelled_pairs(draw):
    """A pair with up to 8 heavy indices among a few weight-1 ones and small
    degrees, a permutation sigma of its indices, and an analysis mode."""
    heavy = draw(st.lists(st.sampled_from([2, 3, 4, 5, 6, 9, 10, 15]), min_size=1, max_size=8))
    weights = heavy + [1] * draw(st.integers(0, 3))
    weights = draw(st.permutations(weights))
    degrees = draw(st.lists(st.integers(2, 30), min_size=1, max_size=4))
    sigma = draw(st.permutations(range(len(weights))))
    return weights, degrees, sigma, draw(st.sampled_from(["strong", "nice", "any"]))


@given(relabelled_pairs())
@settings(deadline=None, max_examples=120)
def test_relabelling_permutes_the_complexes(tmp_path_factory, case):
    weights, degrees, sigma, mode = case
    tmp_path = tmp_path_factory.mktemp("pair")
    code, report = analyze(tmp_path, weights, degrees, mode)
    # index i carries weights[i] and becomes index sigma[i]
    moved = [0] * len(weights)
    for i, a in enumerate(weights):
        moved[sigma[i]] = a
    moved_code, moved_report = analyze(tmp_path, moved, degrees, mode)
    assert verdicts(moved_code, moved_report) == verdicts(code, report)
    assert complexes(moved_report) == complexes(report, sigma)


@given(relabelled_pairs())
@settings(deadline=None, max_examples=60)
def test_one_more_weight_one_index(tmp_path_factory, case):
    weights, degrees, _, mode = case
    tmp_path = tmp_path_factory.mktemp("pair")
    _, report = analyze(tmp_path, weights, degrees, mode)
    _, padded = analyze(tmp_path, weights + [1], degrees, mode)
    assert padded["fano_index"] == report["fano_index"] + 1
    assert complexes(padded) == complexes(report)
