"""The trial kernel reaches a sensing only through ``incremental()`` and ``observe``.

The reader this protects is ``perfbench/spans.py``: its ``TimedSensing``
proxy offers a sensing's ``name`` and ``incremental()``, refuses a sensing
without a monitor, and times each monitor's ``observe``.  A kernel that
asked the sensing anything else — ``indicate`` on a kept view, a replay
wrapper — would slip past that probe and go untimed.  The proxy below
mirrors it without importing the harness, and is stricter: it forwards no
other attribute, so any other access fails loudly.
"""

from __future__ import annotations

import random

from repro.comm.codecs import codec_family
from repro.core.execution import run_execution
from repro.servers.advisors import AdvisorServer
from repro.servers.printer_servers import printer_server_class
from repro.servers.wrappers import EncodedServer
from repro.universal.compact import CompactUniversalUser
from repro.universal.enumeration import ListEnumeration
from repro.universal.finite import FiniteUniversalUser
from repro.users.control_users import follower_user_class
from repro.users.printer_users import printer_user_class
from repro.worlds.control import control_goal, control_sensing, random_law
from repro.worlds.printer import printing_goal, printing_sensing


class CountingSensing:
    """Duck-typed sensing: ``name``, ``incremental()``, counted ``observe``."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.observes = 0

    @property
    def name(self) -> str:
        return self._inner.name

    def incremental(self):
        monitor = self._inner.incremental()
        if monitor is None:
            raise TypeError(f"{self._inner!r} offers no incremental monitor")
        return _CountingMonitor(monitor, self)


class _CountingMonitor:
    __slots__ = ("_inner", "_owner")

    def __init__(self, inner, owner: CountingSensing) -> None:
        self._inner = inner
        self._owner = owner

    def observe(self, record) -> bool:
        self._owner.observes += 1
        return self._inner.observe(record)


def test_compact_control_cast_observes_every_round():
    codecs = codec_family(3)
    law = random_law(random.Random(5))
    goal = control_goal(law, deadline=20)
    sensing = CountingSensing(control_sensing())
    user = CompactUniversalUser(ListEnumeration(follower_user_class(codecs)), sensing)
    result = run_execution(
        user, EncodedServer(AdvisorServer(law), codecs[2]), goal.world,
        max_rounds=600, seed=0,
    )
    assert result.final_user_state.switches > 0
    assert sensing.observes == result.rounds_executed == 600


def test_finite_printing_cast_observes_every_round():
    codecs = codec_family(2)
    goal = printing_goal(["the doc"])
    sensing = CountingSensing(printing_sensing())
    user = FiniteUniversalUser(
        ListEnumeration(printer_user_class(["space", "tagged"], codecs)), sensing
    )
    result = run_execution(
        user, printer_server_class(["space", "tagged"], codecs)[2], goal.world,
        max_rounds=4000, seed=0,
    )
    assert result.halted and goal.evaluate(result).achieved
    assert result.final_user_state.trials_run > 1
    assert sensing.observes == result.rounds_executed
