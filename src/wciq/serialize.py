"""Canonical JSON encoding for every exchanged object.

One rule everywhere: UTF-8, sorted keys, two-space indent, LF endings,
single trailing newline. Integers that exceed the double-precision safe
range are written as decimal strings so consumers in other languages can
read the files; loads accept both forms.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring
from math import inf
from typing import TYPE_CHECKING, Any, Mapping

from wciq.arith import DegreeTuple, WeightTuple, as_degrees, as_weights
from wciq.complexes import Complex, SRPresentation, WeightedComplex
from wciq.errors import InputError, ResourceLimitError, checked_ints
from wciq.maps import AdmissibleFamily
from wciq.nef import NefPartition

if TYPE_CHECKING:
    from wciq.realize import RealizationResult

_SAFE_INT = 1 << 53


def canonical_json(obj: Any) -> str:
    """obj as `json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`
    writes it, plus the trailing newline.

    With an indent, json.dumps always runs its pure-Python encoder. This
    one writes the same bytes with less Python per element:

    * It dispatches on the exact types first. Strings go through the C
      string encoder that ensure_ascii=False selects, ints through
      `int.__repr__`, and bools and None by table. Subclasses, floats and
      `Encoded` values take the isinstance branches after that.
    * A dict sorts its items as json.dumps does and writes each key as
      json.dumps spells it. For a tuple of str keys, the sorted order and
      the `"key": ` heads are kept in a bounded table, and scalar values
      are written in the item loop.
    * A list or tuple whose members are all exact ints, as one type check
      over the members finds, is joined in one go, and so is each int
      array in an array of arrays.

    Only plain lists and tuples are arrays: a record is a tuple subclass,
    and raises TypeError here where json.dumps would write its fields. An
    `Encoded` value is spliced in as it was written.
    """
    return _encode(obj, "\n") + "\n"


class Encoded:
    """A value written once by the canonical encoder, for a report to hold
    in its place. Written at the top level, it takes any other indent by
    replacing each newline with the newline and indent of its place: the
    string encoder escapes every newline inside a string. json.dumps
    rejects it; pass `default=Encoded.decoded` to write the value."""

    __slots__ = ("text",)

    def __init__(self, obj: Any):
        self.text = _encode(obj, "\n")

    def decoded(self) -> Any:
        return json.loads(self.text)


#: How each scalar of an exact type is written.
_SCALARS: dict = {str: encode_basestring, int: int.__repr__,
                  bool: {True: "true", False: "false"}.__getitem__,
                  type(None): {None: "null"}.__getitem__}
_INT = {int}
_ARRAYS = {list, tuple}

#: Key tuples, in insertion order, of the all-str-key dicts written so
#: far, each with its keys sorted and paired with their `"key": ` heads;
#: the oldest goes first past _HEADS_SIZE.
_HEADS: dict[tuple, tuple[tuple[str, str], ...]] = {}
_HEADS_SIZE = 1024


def _encode(obj: Any, newline: str) -> str:
    """obj as json.dumps writes it, where `newline` starts the line obj
    ends on (a newline and that line's indent)."""
    t = type(obj)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        return scalar(obj)
    if t in _ARRAYS:
        if not obj:
            return "[]"
        inner = newline + "  "
        types = set(map(type, obj))
        if types == _INT:
            items = map(int.__repr__, obj)
        elif types <= _ARRAYS:
            deeper = inner + "  "
            items = ["[" + deeper + ("," + deeper).join(map(int.__repr__, x)) + inner + "]"
                     if x and set(map(type, x)) == _INT else _encode(x, inner)
                     for x in obj]
        else:
            items = [_encode(x, inner) for x in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if t is not dict:
            obj = dict(obj.items())
        inner = newline + "  "
        keys = tuple(obj)
        heads = _HEADS.get(keys) or _heads(keys)
        items = []
        for k, head in heads:
            v = obj[k]
            scalar = _SCALARS.get(type(v))
            items.append(head + (scalar(v) if scalar else _encode(v, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float(obj)
    if t is Encoded:
        return obj.text.replace("\n", newline)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _heads(keys: tuple) -> tuple[tuple[Any, str], ...]:
    """The keys in json.dumps' order, each with its `"key": ` head; kept
    when every key is a str. Mixed key types do not sort: TypeError, as
    in json.dumps."""
    heads = tuple((k, encode_basestring(_key(k)) + ": ") for k in sorted(keys))
    if set(map(type, keys)) == {str}:
        if len(_HEADS) >= _HEADS_SIZE:
            del _HEADS[next(iter(_HEADS))]
        _HEADS[keys] = heads
    return heads


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == inf:
        return "Infinity"
    if x == -inf:
        return "-Infinity"
    return float.__repr__(x)


def _key(k) -> str:
    """A dict key as json.dumps spells it."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _encode(k, "")
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def encode_int(n: int) -> int | str:
    return n if abs(n) < _SAFE_INT else int_str(n, "report")


def int_str(n: int, what: str) -> str:
    """str(n), or a ResourceLimitError naming the interpreter's limit for
    integer strings when n has more digits than that."""
    try:
        return str(n)
    except ValueError:
        raise _past_digit_limit(what) from None


def is_decimal(text: str, signed: bool = True) -> bool:
    """Is text ASCII digits, after a '-' where signed?"""
    body = text[1:] if signed and text.startswith("-") else text
    return body.isascii() and body.isdigit()


def decode_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if is_decimal(value):
            try:
                return int(value)
            except ValueError:  # ASCII digits: only the digit limit is left
                raise _past_digit_limit(what) from None
    raise InputError(f"{what} must be an integer or decimal string, got {value!r}")


def _past_digit_limit(what: str) -> ResourceLimitError:
    return ResourceLimitError(
        f"{what} holds an integer of more than {sys.get_int_max_str_digits()} "
        f"digits, the interpreter's limit for integer strings")


def load_json(text: str, what: str = "input") -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc}") from exc
    except ValueError:  # an integer literal past the digit limit
        raise _past_digit_limit(what) from None
    except RecursionError:
        raise InputError(f"{what} nests deeper than the JSON parser can follow") from None


def _encode_ints(xs) -> list:
    """encode_int of each of the ints xs: xs itself, as a list, when they
    all lie in the safe range."""
    if -_SAFE_INT < min(xs, default=0) and max(xs, default=0) < _SAFE_INT:
        return list(xs)
    return [encode_int(a) for a in xs]


def _decode_ints(raw: list, what: str) -> list[int]:
    """decode_int of each entry of raw, which stays as it is when all its
    entries are exact ints."""
    return raw if set(map(type, raw)) <= {int} else [decode_int(v, what) for v in raw]


def pair_to_json(weights, degrees) -> dict:
    return {
        "weights": _encode_ints(as_weights(weights)),
        "degrees": _encode_ints(as_degrees(degrees)),
    }


def pair_from_json(data: Any) -> tuple[WeightTuple, DegreeTuple]:
    if not isinstance(data, Mapping):
        raise InputError(f"pair must be a JSON object, got {type(data).__name__}")
    if "weights" not in data:
        raise InputError('pair is missing the "weights" key')
    raw_w = data["weights"]
    raw_d = data.get("degrees", [])
    if not isinstance(raw_w, list) or not isinstance(raw_d, list):
        raise InputError('"weights" and "degrees" must be JSON arrays')
    weights = WeightTuple.of(_decode_ints(raw_w, "weight"))
    degrees = DegreeTuple.of(_decode_ints(raw_d, "degree"))
    return weights, degrees


def complex_to_json(cx: Complex) -> dict:
    return {
        "n_vertices": cx.n_vertices,
        "facets": [list(f) for f in cx.sorted_facets()],
    }


def complex_from_json(data: Any) -> Complex:
    if not isinstance(data, Mapping) or "n_vertices" not in data or "facets" not in data:
        raise InputError('complex must be an object with "n_vertices" and "facets"')
    facets = data["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise InputError('"facets" must be an array of vertex arrays')
    return Complex.from_facets(
        data["n_vertices"], [_decode_ints(f, "vertex") for f in facets])


def weighted_complex_to_json(wc: WeightedComplex) -> dict:
    out = complex_to_json(wc.complex)
    out["vertex_weights"] = {
        str(v): encode_int(w) for v, w in sorted(wc.vertex_weights.items())}
    return out


def sr_to_json(sr: SRPresentation) -> dict:
    return {
        "vertices": list(sr.vertices),
        "degrees": _encode_ints(sr.variable_degrees),
        "generators": [sorted(g) for g in sr.generators],
    }


def family_to_json(fam: AdmissibleFamily) -> dict:
    return {
        "im_phi": _encode_ints(fam.im_phi),
        "injections": {
            str(b): {str(i): j for i, j in sorted(fam.injections[b].items())}
            for b in fam.im_phi
        },
    }


def family_from_json(data: Any, weights) -> AdmissibleFamily:
    """Domains are a function of the weights, so only the injections
    travel; the weights rebuild the rest."""
    if not isinstance(data, Mapping) or "im_phi" not in data or "injections" not in data:
        raise InputError('family must be an object with "im_phi" and "injections"')
    wt = as_weights(weights)
    if not isinstance(data["im_phi"], list):
        raise InputError('"im_phi" must be an array')
    im_phi = tuple(checked_ints([decode_int(b, "face weight") for b in data["im_phi"]],
                                "face weight", 1))
    injections_raw = data["injections"]
    if not isinstance(injections_raw, Mapping):
        raise InputError('"injections" must be an object')
    domains = {}
    injections = {}
    for b in im_phi:
        domains[b] = wt.divisible_by(b)
        raw = injections_raw.get(str(b))
        if not isinstance(raw, Mapping):
            raise InputError(f"missing injection table for face weight {b}")
        injections[b] = {decode_int(i, "vertex"): decode_int(j, "degree index")
                         for i, j in raw.items()}
    return AdmissibleFamily(im_phi, domains, injections)


def partition_to_json(partition: NefPartition) -> dict:
    return {"parts": [list(p) for p in partition.parts]}


def partition_from_json(data: Any) -> NefPartition:
    if not isinstance(data, Mapping) or "parts" not in data:
        raise InputError('partition must be an object with "parts"')
    parts = data["parts"]
    if not isinstance(parts, list) or not all(isinstance(p, list) for p in parts):
        raise InputError('"parts" must be an array of index arrays')
    return NefPartition(tuple(
        tuple(_decode_ints(p, "index")) for p in parts))


def realization_to_json(res: RealizationResult) -> dict:
    return {
        "weights": [int_str(a, "realization") for a in res.weights],
        "prime_assignment": {
            ",".join(str(v) for v in sorted(f)): p
            for f, p in sorted(res.prime_assignment.items(),
                               key=lambda kv: sorted(kv[0]))
        },
    }
