"""The final-state fields that readers outside ``repro.universal`` rely on."""

from __future__ import annotations

from repro.core.execution import METRICS_RECORDING, run_execution
from repro.universal.compact import CompactUniversalState, CompactUniversalUser
from repro.universal.enumeration import ListEnumeration

from tests.universal.helpers import (
    KeywordServer,
    KeywordUser,
    NullWorld,
    keyword_sensing,
)


def test_compact_final_state_feeds_the_perfbench_probe():
    """``perfbench/layers.py`` (``Probe._note_execution``) isinstance-checks
    a run's ``final_user_state`` against this class and reads these three
    ints to report ``universal.switches`` and ``universal.useful_frac``.
    If they move, those metrics silently read 0; this test fails instead.
    """
    words = ["alpha", "beta", "gamma"]
    user = CompactUniversalUser(
        ListEnumeration([KeywordUser(w) for w in words]), keyword_sensing()
    )
    result = run_execution(
        user, KeywordServer("gamma"), NullWorld(), max_rounds=100, seed=0,
        recording=METRICS_RECORDING,
    )
    state = result.final_user_state
    assert isinstance(state, CompactUniversalState)
    for field in ("rounds_in_trial", "total_rounds", "switches"):
        assert type(getattr(state, field)) is int, field
    assert state.switches == 2
    assert state.total_rounds == result.rounds_executed == 100
    assert 0 < state.rounds_in_trial < state.total_rounds
