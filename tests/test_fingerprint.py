"""Properties of the one value-canonical fingerprint module.

* **identity-blind** -- a sub-object shared between two positions encodes
  exactly like two independent copies of it (the pickle memo would not);
* **float-strict** -- a 1-ulp change, ``0.0`` vs ``-0.0`` and ``1`` vs
  ``1.0`` all change the encoding, anywhere in the value tree;
* **chain resumable** -- a chain snapshotted as plain data mid-stream and
  restored continues to the same state as the uninterrupted chain.
"""

import copy
import hashlib
import json
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fingerprint import canonical, chain, digest


@dataclass(frozen=True)
class _Point:
    machine: str
    load: float
    completed: int


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=16,
)
_points = st.builds(
    _Point,
    machine=st.text(min_size=1, max_size=12),
    load=st.floats(allow_nan=False),
    completed=st.integers(min_value=0),
)


@settings(max_examples=100, deadline=None)
@given(value=_values)
def test_canonical_is_identity_blind(value):
    shared = [value, value]
    copied = [value, copy.deepcopy(value)]
    assert canonical(shared) == canonical(copied)
    assert canonical(pickle.loads(pickle.dumps(shared))) == canonical(shared)


@settings(max_examples=50, deadline=None)
@given(points=st.lists(_points, min_size=1, max_size=6))
def test_dataclasses_sharing_a_string_encode_like_copies(points):
    # Serial sweeps share one machine-name object across points; forked
    # workers hand back independent copies of it.
    name = points[0].machine
    shared = [_Point(name, p.load, p.completed) for p in points]
    copied = [
        _Point(name.encode("utf-8", "surrogatepass").decode(
            "utf-8", "surrogatepass"), p.load, p.completed)
        for p in points
    ]
    assert canonical(shared) == canonical(copied)
    assert digest(shared) == digest(copied)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_canonical_is_float_strict(x):
    up = math.nextafter(x, math.inf)
    assert canonical(x) != canonical(up)
    assert canonical([1, (x,)]) != canonical([1, (up,)])
    assert canonical(_Point("m", x, 1)) != canonical(_Point("m", up, 1))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=-(2 ** 53), max_value=2 ** 53))
def test_canonical_separates_int_from_float(n):
    assert canonical(n) != canonical(float(n))
    assert canonical({"k": n}) != canonical({"k": float(n)})


def test_canonical_separates_signed_zero_and_container_kinds():
    assert canonical(0.0) != canonical(-0.0)
    assert canonical(True) != canonical(1)
    assert canonical([1]) != canonical((1,))
    assert canonical(["ab"]) != canonical(["a", "b"])
    assert canonical({"a": 1}) != canonical([("a", 1)])
    # Nothing is sorted implicitly: order is part of the value.
    assert canonical({"a": 1, "b": 2}) != canonical({"b": 2, "a": 1})


def test_numpy_scalars_encode_by_value():
    assert canonical(np.float64(0.1)) == canonical(0.1)
    assert canonical(np.int64(7)) == canonical(7)
    assert canonical(np.bool_(True)) == canonical(True)


def test_unordered_and_unknown_types_are_refused():
    with pytest.raises(TypeError, match="sorted"):
        canonical({1, 2})
    for value in (object(), np.arange(3.0), b"bytes"):
        with pytest.raises(TypeError):
            canonical(value)


def test_digest_has_one_length():
    for value in (None, "", [1.5, "x"], _Point("m", 1.0, 2)):
        assert len(digest(value)) == 64
    assert digest([1.0]) != digest([1])


@settings(max_examples=100, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.text(alphabet=st.characters(blacklist_characters="\n"),
                         max_size=10), max_size=5),
        min_size=2, max_size=6,
    ),
    split=st.integers(min_value=0),
)
@example(batches=[[], ["\ud800"]], split=0)
def test_chain_state_round_trips_through_a_snapshot(batches, split):
    seed = digest("test-chain")
    cut = split % len(batches)
    state = seed
    for lines in batches[:cut]:
        state = chain(state, lines)
    # A barrier checkpoint stores the cursor as plain data.
    snapshot = json.loads(json.dumps({"v": 1, "chain": state}))
    resumed = snapshot["chain"]
    for lines in batches[cut:]:
        resumed = chain(resumed, lines)
    uninterrupted = seed
    for lines in batches:
        uninterrupted = chain(uninterrupted, lines)
    assert resumed == uninterrupted


def test_chain_is_order_sensitive_and_skips_empty_batches():
    seed = digest("test-chain")
    assert chain(seed, []) == seed
    assert chain(seed, ["a", "b"]) != chain(seed, ["b", "a"])
    assert chain(chain(seed, ["a"]), ["b"]) != chain(seed, ["a", "b"])
    with pytest.raises(ValueError, match="newline"):
        chain(seed, ["a\nb"])


def test_lone_surrogates_fingerprint_like_any_other_text():
    # Any str is a valid value, including ones plain UTF-8 cannot encode.
    seed = digest("test-chain")
    assert chain(seed, ["\ud800"]) != chain(seed, ["\udc00"])
    assert digest("\ud800") != digest("\udc00")
    # Encodable text hashes exactly as with a plain str.encode().
    assert digest("caf\u00e9") == hashlib.sha256(
        canonical("caf\u00e9").encode()).hexdigest()
