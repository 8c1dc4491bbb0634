"""The party stream contract: ``random.Random(seed)``, seeded on first use.

:func:`repro.core.execution.party_stream` hands each party a
:class:`~repro.core.execution.LazyRandom`, which builds its generator on
the first draw.  These tests hold it to the generator it stands in for:
every draw the repository makes returns what ``random.Random(seed)``
returns, in any order; a stream never drawn from builds nothing; and
``copy``/``pickle`` see the stream, not the generator's state, while a
copy continues the same sequence.
"""

from __future__ import annotations

import copy
import pickle
import random
from types import SimpleNamespace
from typing import Any, Callable, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import execution
from repro.core.execution import LazyRandom, party_stream, run_execution
from repro.machines.tabular import coded_server_class, relay_decoder_class, relay_goal

#: One draw: a method name and a function that makes it on a stream.
Draw = Tuple[str, Callable[[Any], Any]]

POPULATION = tuple("abcdefgh")


def _shuffled(rng: Any, items: List[int]) -> List[int]:
    rng.shuffle(items)
    return items


def _draws() -> st.SearchStrategy[Draw]:
    """Every method the repository draws through, with arguments."""
    small = st.integers(min_value=1, max_value=10**6)
    return st.one_of(
        st.just(("random", lambda rng: rng.random())),
        st.integers(1, 200).map(
            lambda k: ("getrandbits", lambda rng: rng.getrandbits(k))
        ),
        small.map(lambda n: ("randrange", lambda rng: rng.randrange(n))),
        st.tuples(st.integers(-50, 50), small, st.integers(1, 7)).map(
            lambda a: (
                "randrange",
                lambda rng: rng.randrange(a[0], a[0] + a[1], a[2]),
            )
        ),
        st.tuples(st.integers(-50, 50), st.integers(0, 100)).map(
            lambda a: ("randint", lambda rng: rng.randint(a[0], a[0] + a[1]))
        ),
        st.just(("choice", lambda rng: rng.choice(POPULATION))),
        st.integers(0, 12).map(
            lambda k: ("choices", lambda rng: rng.choices(POPULATION, k=k))
        ),
        st.integers(0, 30).map(
            lambda n: ("shuffle", lambda rng: _shuffled(rng, list(range(n))))
        ),
        st.integers(0, len(POPULATION)).map(
            lambda k: ("sample", lambda rng: rng.sample(POPULATION, k))
        ),
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)).map(
            lambda a: ("uniform", lambda rng: rng.uniform(a[0], a[1]))
        ),
        st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)).map(
            lambda a: ("gauss", lambda rng: rng.gauss(a[0], a[1]))
        ),
    )


SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, draws=st.lists(_draws(), max_size=40))
def test_draws_equal_random_random(seed, draws):
    stream, reference = party_stream(seed), random.Random(seed)
    for name, draw in draws:
        assert draw(stream) == draw(reference), name
    # The streams are in the same state after any sequence.
    assert stream.getstate() == reference.getstate()


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, before=st.lists(_draws(), max_size=10),
       after=st.lists(_draws(), min_size=1, max_size=10))
def test_copies_continue_the_same_sequence(seed, before, after):
    stream = party_stream(seed)
    for _, draw in before:
        draw(stream)
    copies = [
        copy.deepcopy(stream),
        copy.copy(stream),
        pickle.loads(pickle.dumps(stream)),
    ]
    expected = [draw(stream) for _, draw in after]
    for duplicate in copies:
        assert isinstance(duplicate, LazyRandom)
        assert [draw(duplicate) for _, draw in after] == expected


def test_an_untouched_stream_builds_no_generator():
    stream = LazyRandom(7)
    assert vars(stream) == {"_seed": 7}
    duplicate = copy.deepcopy(stream)
    assert vars(duplicate) == {"_seed": 7}
    assert vars(pickle.loads(pickle.dumps(stream))) == {"_seed": 7}
    assert duplicate.random() == random.Random(7).random()


def test_a_run_whose_parties_never_draw_seeds_only_the_chain(monkeypatch):
    """A tabular relay run builds one generator: the seed chain's master."""
    built = []

    def counting(seed: int) -> random.Random:
        built.append(seed)
        return random.Random(seed)

    monkeypatch.setattr(execution, "random", SimpleNamespace(Random=counting))
    symbols = tuple("abcd")
    execution_result = run_execution(
        relay_decoder_class(symbols)[0], coded_server_class(symbols)[0],
        relay_goal(symbols).world, max_rounds=30, seed=11,
    )
    assert execution_result.rounds_executed == 30
    assert built == [11]


def test_dunder_names_are_not_forwarded():
    stream = LazyRandom(3)
    for name in ("__deepcopy__", "__copy__", "__getnewargs_ex__", "__len__"):
        assert not hasattr(stream, name)
    assert vars(stream) == {"_seed": 3}  # Asking built no generator.
    stream.random()
    assert not hasattr(stream, "__deepcopy__")
    # Reduction carries the seed and the state, not the generator object.
    rebuild, args, state = stream.__reduce__()
    assert rebuild is LazyRandom and args == (3,)
    assert state == stream.getstate()
