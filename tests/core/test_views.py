"""Tests for the user's local view."""

from __future__ import annotations

import pickle

import pytest

from repro.comm.messages import UserInbox, UserOutbox
from repro.core.views import UserView, ViewRecord
from repro.worlds.control import ControlState


def record(i, from_server="", from_world="", to_server="", to_world=""):
    return ViewRecord(
        round_index=i,
        state_before=i,
        inbox=UserInbox(from_server=from_server, from_world=from_world),
        outbox=UserOutbox(to_server=to_server, to_world=to_world),
        state_after=i + 1,
    )


class TestUserView:
    def test_append_and_iterate(self):
        view = UserView()
        view.append(record(0))
        view.append(record(1))
        assert len(view) == 2
        assert [r.round_index for r in view] == [0, 1]

    def test_last(self):
        view = UserView()
        assert view.last() is None
        view.append(record(0))
        assert view.last().round_index == 0

    def test_indexing(self):
        view = UserView([record(0), record(1)])
        assert view[1].round_index == 1

    def test_records_tuple_is_snapshot(self):
        view = UserView([record(0)])
        snapshot = view.records
        view.append(record(1))
        assert len(snapshot) == 1


# -- Value-type contract of the other per-round NamedTuples ----------------

VALUES = [
    (
        record(3, from_server="s", to_world="w"),
        "ViewRecord(round_index=3, state_before=3, "
        "inbox=UserInbox(from_server='s', from_world=''), "
        "outbox=UserOutbox(to_server='', to_world='w', halt=False, output=None), "
        "state_after=4)",
    ),
    (
        ControlState(round_index=2, pending=(("red", 1),), scored=1),
        "ControlState(round_index=2, pending=(('red', 1),), scored=1, "
        "mistakes=0, last_event='none')",
    ),
]


@pytest.mark.parametrize(
    "value, text", VALUES, ids=[type(v).__name__ for v, _ in VALUES]
)
class TestValueContract:
    def test_assignment_raises(self, value, text):
        with pytest.raises(AttributeError):
            setattr(value, type(value)._fields[0], 99)

    def test_equal_values_hash_equal(self, value, text):
        twin = type(value)(*value)
        assert twin == value
        assert not twin != value
        assert hash(twin) == hash(value)

    def test_never_equals_bare_tuple_or_other_type(self, value, text):
        assert value != tuple(value)
        assert tuple(value) != value
        for other, _ in VALUES:
            if type(other) is not type(value):
                assert value != other

    def test_pickle_round_trip(self, value, text):
        clone = pickle.loads(pickle.dumps(value))
        assert type(clone) is type(value)
        assert clone == value

    def test_repr_matches_dataclass_form(self, value, text):
        assert repr(value) == text


def test_views_compare_records_structurally():
    assert UserView([record(0), record(1)]) == UserView([record(0), record(1)])
    assert UserView([record(0)]) != UserView([record(1)])
