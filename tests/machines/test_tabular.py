"""Tabular strategy adapters, the relay cast builders, and machine bridges.

The adapters must behave identically on both execution tiers (scalar
engine and vectorized kernel — compile parity is pinned in
``tests/core/test_batch.py``); here we pin their scalar semantics, the
builders' validation, the relay goal's "one achieving cell per matching
codec" shape, and the :class:`TabularStrategy` bridges grown onto
:class:`TransducerUser` and :class:`VMUser`.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.comm.messages import SILENCE, ServerInbox, UserInbox, WorldInbox
from repro.core.batch import (
    HAVE_NUMPY,
    TabularParty,
    TabularStrategy,
    compile_tabular_cast,
)
from repro.core.execution import run_execution
from repro.machines.tabular import (
    RELAY_LATENCY,
    StateFlagPredicate,
    TabularServer,
    TabularUser,
    TabularWorld,
    coded_server,
    coded_server_class,
    cycle_world,
    relay_decoder_class,
    relay_goal,
    relay_user,
)
from repro.machines.transducer import Transducer, TransducerUser
from repro.machines.vm import JMP, READ, WRITE, Program, VMUser

SYMBOLS = ("x", "y", "z")


def one_state_party(n_symbols):
    zero = tuple(
        tuple(tuple(0 for _ in range(n_symbols)) for _ in range(n_symbols))
        for _ in range(1)
    )
    return TabularParty(
        n_symbols=n_symbols, initial_state=0,
        next_state=zero, out_a=zero, out_b=zero,
    )


class TestAdapters:
    def test_alphabet_must_start_with_silence(self):
        with pytest.raises(ValueError, match="SILENCE"):
            TabularUser(one_state_party(3), ("x", "y", "z"), "bad")

    def test_alphabet_must_be_unique(self):
        with pytest.raises(ValueError, match="duplicate"):
            TabularUser(one_state_party(3), (SILENCE, "x", "x"), "bad")

    def test_table_width_must_match_alphabet(self):
        with pytest.raises(ValueError, match="width"):
            TabularUser(one_state_party(2), (SILENCE, "x", "y"), "bad")

    def test_adapters_satisfy_the_protocol(self):
        user = relay_user(SYMBOLS)
        assert isinstance(user, TabularStrategy)

    def test_foreign_symbols_read_as_silence(self):
        user = relay_user(SYMBOLS)
        rng = random.Random(0)
        state = user.initial_state(rng)
        from repro.comm.messages import UserInbox

        _, outbox = user.step(state, UserInbox(from_server="???",
                                               from_world="x"), rng)
        assert outbox.to_world == SILENCE  # "???" decoded as silence
        assert outbox.to_server == "x"

    def test_parties_are_rng_free(self):
        user = relay_user(SYMBOLS)
        assert user.initial_state(random.Random(0)) == user.initial_state(
            random.Random(99)
        )


class TestBuilders:
    def test_relay_user_rejects_unknown_decode_keys(self):
        with pytest.raises(ValueError, match="outside"):
            relay_user(SYMBOLS, {"nope": "x"})

    def test_coded_server_requires_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            coded_server(SYMBOLS, {"x": "x", "y": "x", "z": "z"})

    def test_coded_server_class_is_cyclic(self):
        servers = coded_server_class(SYMBOLS)
        assert [s.name for s in servers] == [
            "coded-shift0", "coded-shift1", "coded-shift2"
        ]

    def test_decoder_class_matches_server_class(self):
        assert [u.name for u in relay_decoder_class(SYMBOLS)] == [
            "relay-shift0", "relay-shift1", "relay-shift2"
        ]

    def test_cycle_world_validation(self):
        with pytest.raises(ValueError):
            cycle_world(())
        with pytest.raises(ValueError):
            cycle_world(SYMBOLS, latency=0)

    def test_state_flag_predicate_round_trips(self):
        predicate = StateFlagPredicate((True, False, True))
        assert predicate(0) and not predicate(1)
        clone = pickle.loads(pickle.dumps(predicate))
        assert clone == predicate
        assert hash(clone) == hash(predicate)


class TestRelayGoalSemantics:
    """The scalar reference for the cast the kernel vectorizes."""

    def run_point(self, user_shift, server_shift, max_rounds=60):
        goal = relay_goal(SYMBOLS)
        user = relay_decoder_class(SYMBOLS)[user_shift]
        server = coded_server_class(SYMBOLS)[server_shift]
        execution = run_execution(
            user, server, goal.world, max_rounds=max_rounds, seed=0
        )
        return goal.evaluate(execution)

    def test_matched_decoder_achieves(self):
        for k in range(len(SYMBOLS)):
            assert self.run_point(k, k).achieved

    def test_mismatched_decoder_fails(self):
        assert not self.run_point(0, 1).achieved
        assert not self.run_point(2, 0).achieved

    def test_goal_is_forgiving_within_latency(self):
        """Warmup rounds (< RELAY_LATENCY deep) never count as bad."""
        outcome = self.run_point(0, 0, max_rounds=RELAY_LATENCY)
        assert outcome.achieved

    def test_goal_name_carries_alphabet_size(self):
        assert relay_goal(SYMBOLS).name == "relay-echo[3]"


def echo_transducer():
    return Transducer(
        input_alphabet=("x", "y"),
        output_alphabet=("x", "y"),
        transitions=((0, 0),),
        outputs=((0, 1),),
    )


class TestMachineBridges:
    def test_transducer_tabular_symbols(self):
        user = TransducerUser(echo_transducer())
        assert user.tabular_symbols(frozenset()) == frozenset(("x", "y"))

    def test_transducer_custom_wiring_refuses(self):
        user = TransducerUser(
            echo_transducer(), observe=lambda inbox: inbox.from_world
        )
        with pytest.raises(ValueError, match="custom"):
            user.tabular_symbols(frozenset())

    def test_transducer_party_mirrors_step(self):
        user = TransducerUser(echo_transducer())
        alphabet = (SILENCE, "x", "y")
        party = user.tabular_party(alphabet)
        assert party.n_symbols == 3
        # Table(state 0, from_server="y") emits "y" to the server (out_a),
        # exactly like the scalar adapter's step.
        assert alphabet[party.out_a[0][2][0]] == "y"
        # Foreign/silence input reads as the machine's symbol index 0.
        assert alphabet[party.out_a[0][0][0]] == "x"
        # Transducers never talk to the world under default wiring.
        assert all(
            symbol == 0
            for plane in party.out_b for row in plane for symbol in row
        )

    def test_vm_user_tabular_replies(self):
        echo = Program(((READ, 0), (WRITE, 0), (JMP, 0)))
        user = VMUser(echo)
        symbols = user.tabular_symbols(frozenset(("x", "y")))
        assert symbols == frozenset(("x", "y"))
        party = user.tabular_party((SILENCE, "x", "y"))
        assert party.n_states == 1
        assert party.out_a[0][1][0] == 1  # echo "x" back

    @pytest.mark.skipif(not HAVE_NUMPY, reason="compile parity needs numpy")
    def test_machine_users_compile_into_relay_cast(self):
        """A transducer user that relays via identity decode compiles."""
        goal = relay_goal(("x", "y"))
        server = coded_server_class(("x", "y"))[0]
        user = relay_user(("x", "y"))
        cast = compile_tabular_cast(user, server, goal.world, goal)
        assert cast is not None
        assert SILENCE == cast.alphabet[0]


class TestOutboxTables:
    """Each adapter's step reads a table built once; it must match the
    party's ``next_state``/``out_a``/``out_b`` on every input."""

    FOREIGN = "not-a-symbol"

    @staticmethod
    def _parties():
        symbols = tuple("abcd")
        world, _ = cycle_world(symbols)
        return [
            *relay_decoder_class(symbols),
            relay_user(symbols),
            *coded_server_class(symbols),
            world,
            relay_goal(SYMBOLS).world,
        ]

    def test_every_entry_matches_the_reference(self):
        for strategy in self._parties():
            party, alphabet = strategy.party, strategy.alphabet
            if isinstance(strategy, TabularWorld):
                inbox, kind = WorldInbox, "world"
            elif isinstance(strategy, TabularServer):
                inbox, kind = ServerInbox, "server"
            else:
                inbox, kind = UserInbox, "user"
            messages = (*alphabet, self.FOREIGN)
            rng = random.Random(0)
            for state in range(party.n_states):
                for in_a in messages:
                    for in_b in messages:
                        a = alphabet.index(in_a) if in_a in alphabet else 0
                        b = alphabet.index(in_b) if in_b in alphabet else 0
                        nxt, out = strategy.step(state, inbox(in_a, in_b), rng)
                        assert nxt == party.next_state[state][a][b]
                        assert type(out).__name__.lower().startswith(kind)
                        assert tuple(out[:2]) == (
                            alphabet[party.out_a[state][a][b]],
                            alphabet[party.out_b[state][a][b]],
                        ), (strategy.name, state, in_a, in_b)

    def test_tables_are_interned(self):
        for strategy in self._parties():
            table = strategy._outboxes
            outboxes = {id(o) for plane in table for row in plane for o in row}
            party = strategy.party
            distinct = {
                (party.out_a[s][a][b], party.out_b[s][a][b])
                for s in range(party.n_states)
                for a in range(party.n_symbols)
                for b in range(party.n_symbols)
            }
            assert len(outboxes) == len(distinct), strategy.name
