"""``JxtaId`` against the plain frozen dataclass it replaced.

The id is slotted and writes out ``__eq__`` / ``__hash__`` on its hex string
(identity first); everything a caller can observe must agree with
``jxta_id_oracle``: equality within and across id kinds, comparison with
non-ids, ordering, hashing, pickling and copying, immutability and the
string forms.
"""

import copy
import itertools
import operator
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.p2p import ids

from . import jxta_id_oracle as oracle

KINDS = ["JxtaId", "PeerId", "PeerGroupId"]
HEXES = [
    ids.PeerId.from_name(name).uuid_hex for name in ("alpha", "beta", "gamma")
] + ["", "0", "00", "ABC"]


def _pairs():
    """Every (new id, oracle id) of every kind and hex, each made twice so
    that equal ids are also distinct objects."""
    return [
        (getattr(ids, kind)(hex_), getattr(oracle, kind)(hex_))
        for kind in KINDS
        for hex_ in HEXES
        for _copy in range(2)
    ]


PAIRS = _pairs()
COMPARISONS = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


def _outcome(compare, left, right):
    try:
        return compare(left, right)
    except TypeError:
        return TypeError


def test_equality_and_order_agree_within_and_across_kinds():
    for (new_a, old_a), (new_b, old_b) in itertools.product(PAIRS, repeat=2):
        for compare in COMPARISONS:
            assert _outcome(compare, new_a, new_b) == _outcome(compare, old_a, old_b), (
                compare.__name__, old_a, old_b,
            )  # fmt: skip


def test_same_hex_different_kind_is_unequal():
    hex_ = HEXES[0]
    assert ids.PeerId(hex_) != ids.PeerGroupId(hex_)
    assert not ids.PeerId(hex_) == ids.PeerGroupId(hex_)
    assert ids.PeerId(hex_) == ids.PeerId(hex_)
    assert len({ids.PeerId(hex_), ids.PeerGroupId(hex_), ids.PeerId(hex_)}) == 2


@pytest.mark.parametrize("other", [None, 1, "x", HEXES[0], (HEXES[0],), object()])
def test_comparison_with_a_non_id_agrees(other):
    for new, old in PAIRS:
        for compare in COMPARISONS:
            assert _outcome(compare, new, other) == _outcome(compare, old, other)
            assert _outcome(compare, other, new) == _outcome(compare, other, old)


def test_hash_is_consistent_with_equality():
    for (new_a, _), (new_b, _) in itertools.product(PAIRS, repeat=2):
        if new_a == new_b:
            assert hash(new_a) == hash(new_b)
    table = {new: index for index, (new, _old) in enumerate(PAIRS)}
    for new, _old in PAIRS:
        twin = type(new)(new.uuid_hex)
        assert table[twin] == table[new] and twin in table


def test_sorted_order_agrees():
    for kind in KINDS:
        pairs = [pair for pair in PAIRS if type(pair[0]).__name__ == kind]
        pairs = pairs[::3] + pairs[1::3] + pairs[2::3]  # not already sorted
        new_order = [new.uuid_hex for new in sorted(new for new, _ in pairs)]
        old_order = [old.uuid_hex for old in sorted(old for _, old in pairs)]
        assert new_order == old_order


@pytest.mark.parametrize(
    "round_trip",
    [
        lambda value: pickle.loads(pickle.dumps(value)),
        lambda value: pickle.loads(pickle.dumps(value, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "pickle-protocol-0", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trips(round_trip):
    for new, _old in PAIRS:
        back = round_trip(new)
        assert type(back) is type(new)
        assert back == new and hash(back) == hash(new)
        assert back.uuid_hex == new.uuid_hex


def test_assignment_raises():
    for new, old in PAIRS:
        for value in (new, old):
            with pytest.raises(FrozenInstanceError):
                value.uuid_hex = "00"
            with pytest.raises(FrozenInstanceError):
                del value.uuid_hex
        assert not hasattr(new, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            new.extra = 1


def test_string_forms_and_urn_agree():
    for new, old in PAIRS:
        assert str(new) == str(old)
        assert repr(new) == repr(old)
        assert new.urn == old.urn
        assert type(new).from_urn(new.urn) == new
        assert type(old).from_urn(old.urn) == old
    for kind in KINDS:
        assert getattr(ids, kind).from_name("n").uuid_hex == getattr(oracle, kind).from_name("n").uuid_hex
        with pytest.raises(ValueError):
            getattr(ids, kind).from_urn("urn:other:1")
