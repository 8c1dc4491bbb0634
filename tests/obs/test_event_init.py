"""Registered events keep frozen-dataclass semantics with a cheap ``__init__``.

:func:`repro.obs.events.register` gives every event class without a
``__post_init__`` a generated ``__init__`` that stores into the instance
``__dict__`` instead of calling ``object.__setattr__`` per field.  These
tests hold each such class to what the dataclass ``__init__`` promised:
positional and keyword arguments, defaults, ``TypeError`` on a missing,
duplicate or unknown argument, ``FrozenInstanceError`` on assignment, and
the generated ``__eq__``/``__hash__``/``__repr__``, pickling and
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Any, Dict, List

import pytest

from repro.obs import events
from repro.obs.events import (
    IN_PLACE,
    Event,
    RoundExecuted,
    StrategySwitch,
    event_kinds,
    register,
)

FAST = [cls for cls in event_kinds().values() if cls.kind in IN_PLACE]

#: One sample value per field annotation the events use.
SAMPLES: Dict[str, Any] = {
    "int": 7,
    "str": "x",
    "bool": True,
    "Optional[int]": 3,
    "Optional[str]": "y",
    "Optional[float]": 0.5,
}


def sample(cls: type) -> Dict[str, Any]:
    return {f.name: SAMPLES[str(f.type)] for f in dataclasses.fields(cls)}


def test_every_event_without_post_init_is_generated():
    assert RoundExecuted in FAST
    for cls in FAST:
        assert cls.__init__.__code__.co_filename == f"<event init {cls.__name__}>"


@pytest.mark.parametrize("cls", FAST, ids=lambda cls: cls.kind)
def test_positional_and_keyword_agree(cls):
    kwargs = sample(cls)
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert by_keyword.__dict__ == kwargs
    assert list(vars(by_keyword)) == [f.name for f in dataclasses.fields(cls)]
    assert repr(by_keyword) == (
        f"{cls.__name__}("
        + ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
        + ")"
    )


@pytest.mark.parametrize("cls", FAST, ids=lambda cls: cls.kind)
def test_defaults_apply(cls):
    required = {
        f.name: SAMPLES[str(f.type)]
        for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING
    }
    event = cls(**required)
    for f in dataclasses.fields(cls):
        expected = required.get(f.name, f.default)
        assert getattr(event, f.name) == expected


@pytest.mark.parametrize("cls", FAST, ids=lambda cls: cls.kind)
def test_bad_arguments_raise_type_error(cls):
    kwargs = sample(cls)
    first = next(iter(kwargs))
    with pytest.raises(TypeError):
        cls(**{**kwargs, "no_such_field": 1})
    with pytest.raises(TypeError):
        cls(*kwargs.values(), 1)
    with pytest.raises(TypeError):
        cls(kwargs[first], **kwargs)
    missing = {name: value for name, value in kwargs.items() if name != first}
    with pytest.raises(TypeError):
        cls(**missing)


@pytest.mark.parametrize("cls", FAST, ids=lambda cls: cls.kind)
def test_frozen(cls):
    event = cls(**sample(cls))
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(event, f.name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(event, f.name)
    assert event == cls(**sample(cls))


@pytest.mark.parametrize("cls", FAST, ids=lambda cls: cls.kind)
def test_pickle_and_replace(cls):
    event = cls(**sample(cls))
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event and type(clone) is cls
    assert clone.__dict__ == event.__dict__
    first = dataclasses.fields(cls)[0].name
    changed = dataclasses.replace(event, **{first: 99})
    assert getattr(changed, first) == 99
    assert changed != event
    assert dataclasses.replace(changed, **{first: getattr(event, first)}) == event


def test_equality_is_by_class_and_fields():
    a = RoundExecuted(round_index=1, halted=False, u2s="p")
    assert a == RoundExecuted(1, False, "p")
    assert a != RoundExecuted(2, False, "p")
    assert a != RoundExecuted(1, False, None, "p")
    assert len({a, RoundExecuted(1, False, "p", None)}) == 1
    assert a != StrategySwitch(1, 0, 1, False)
    assert StrategySwitch(1, 0, 1, False).reason == "sensing-negative"


def test_a_class_with_post_init_keeps_the_dataclass_init():
    seen: List[int] = []

    @dataclasses.dataclass(frozen=True)
    class Checked(Event):
        kind = "test-checked-event"
        value: int

        def __post_init__(self) -> None:
            seen.append(self.value)

    dataclass_init = Checked.__init__
    try:
        register(Checked)
        assert Checked.__init__ is dataclass_init
        assert Checked(value=5).value == 5 and seen == [5]
    finally:
        events._REGISTRY.pop(Checked.kind, None)


def test_a_default_factory_keeps_the_dataclass_init():
    @dataclasses.dataclass(frozen=True)
    class Listed(Event):
        kind = "test-listed-event"
        items: tuple = dataclasses.field(default_factory=tuple)

    dataclass_init = Listed.__init__
    try:
        register(Listed)
        assert Listed.__init__ is dataclass_init
        assert Listed().items == ()
    finally:
        events._REGISTRY.pop(Listed.kind, None)
        events.IN_PLACE.pop(Listed.kind, None)
