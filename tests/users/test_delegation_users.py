"""Tests for the delegation (verifier) users."""

from __future__ import annotations

import random

import pytest

from repro.comm.codecs import IdentityCodec, ReverseCodec, codec_family
from repro.core.execution import run_execution
from repro.mathx.modular import Field
from repro.qbf.generators import random_qbf
from repro.servers.faulty import DroppingServer
from repro.servers.provers import (
    CheatingProverServer,
    HonestProverServer,
    LazyProverServer,
)
from repro.servers.wrappers import EncodedServer
from repro.users.delegation_users import DelegationUser, delegation_user_class
from repro.worlds.computation import delegation_goal, delegation_sensing

F = Field()
INSTANCES = [random_qbf(random.Random(s), 2) for s in (1, 4)]
GOAL = delegation_goal(INSTANCES)


def run_pair(user, server, max_rounds=300, seed=0):
    result = run_execution(user, server, GOAL.world, max_rounds=max_rounds, seed=seed)
    return GOAL.evaluate(result), result


class TestHonestInteraction:
    def test_matched_codec_answers_correctly(self):
        user = DelegationUser(IdentityCodec(), F)
        outcome, result = run_pair(user, HonestProverServer(F))
        assert outcome.achieved
        assert result.user_output.startswith("ANSWER:")

    def test_through_codec(self):
        user = DelegationUser(ReverseCodec(), F)
        server = EncodedServer(HonestProverServer(F), ReverseCodec())
        outcome, _ = run_pair(user, server)
        assert outcome.achieved

    def test_state_exposes_proof_accepted(self):
        user = DelegationUser(IdentityCodec(), F)
        _, result = run_pair(user, HonestProverServer(F))
        assert result.rounds[-1].user_state_after.proof_accepted

    def test_survives_reply_drops(self):
        """Request re-sending recovers from lost prover replies."""
        user = DelegationUser(IdentityCodec(), F, resend_every=4)
        server = DroppingServer(HonestProverServer(F), drop_probability=0.3)
        outcome, _ = run_pair(user, server, max_rounds=2000, seed=7)
        assert outcome.achieved


class TestMismatch:
    def test_wrong_codec_never_halts(self):
        user = DelegationUser(ReverseCodec(), F)
        outcome, result = run_pair(user, HonestProverServer(F))
        assert not result.halted
        assert not result.rounds[-1].user_state_after.proof_accepted


class TestMaliceResistance:
    @pytest.mark.parametrize("style", ["flip", "constant", "random"])
    def test_never_answers_wrong_against_cheaters(self, style):
        user = DelegationUser(IdentityCodec(), F)
        outcome, result = run_pair(user, CheatingProverServer(F, style))
        # Either it never halts, or (vanishing probability) it halts right;
        # it must never halt with a wrong answer.
        if result.halted:
            assert outcome.achieved
        assert not result.rounds[-1].user_state_after.proof_accepted

    def test_lazy_claim_never_trusted(self):
        user = DelegationUser(IdentityCodec(), F)
        _, result = run_pair(user, LazyProverServer(1))
        assert not result.halted


class TestStatesAreValues:
    """Each full-recording record holds the state of its own round."""

    def test_records_share_no_state_object(self):
        _, result = run_pair(DelegationUser(IdentityCodec(), F), HonestProverServer(F))
        records = result.user_view.records
        assert len({id(record.state_after) for record in records}) == len(records)
        assert all(record.state_before is not record.state_after for record in records)

    def test_replayed_sensing_turns_positive_on_the_accepting_round(self):
        _, result = run_pair(DelegationUser(IdentityCodec(), F), HonestProverServer(F))
        monitor = delegation_sensing().incremental()
        indications = [monitor.observe(record) for record in result.user_view]
        assert result.halted and len(indications) > 1
        assert indications == [False] * (len(indications) - 1) + [True]


class TestValidation:
    def test_resend_period_validated(self):
        with pytest.raises(ValueError):
            DelegationUser(IdentityCodec(), F, resend_every=0)

    def test_class_builder(self):
        codecs = codec_family(4)
        users = delegation_user_class(codecs, F)
        assert len(users) == 4
        assert users[2].name == f"delegate@{codecs[2].name}"
