"""The printer world — the paper's motivating non-delegation goal.

"The problem of using a printer to produce a document — which cannot be
cast as a problem of delegating computation in any reasonable sense — is
captured naturally by the simple model" (Section 1).  Here it is: the world
is the sheet of paper.  It hands the user a document to print, and it
appends to its ``printed`` record whatever the *server* (the printer) emits.
The goal is achieved when the document has appeared on paper — a condition
on **world states** only, exactly the paper's notion of a goal as an effect
on the environment rather than knowledge acquired by the user.

Forgivingness: the referee asks that the document occur as a *substring* of
the printed stream, so no amount of earlier garbage (from abandoned trials
of a universal user) is fatal — any finite history extends to success by
just printing the document afterwards.

Feedback: with ``feedback=True`` the world also tells the user what has
been printed so far, which yields safe *and* viable sensing ("the document
is on the paper" is ground truth).  With ``feedback=False`` the user is
blind; experiment E9 uses this variant to show that Theorem 1's sensing
hypothesis is not an artifact: without it, universality fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence, Tuple

from repro.comm.messages import WorldInbox, WorldOutbox, parse_tagged
from repro.core.execution import ExecutionResult
from repro.core.goals import FiniteGoal
from repro.core.referees import FiniteReferee
from repro.core.sensing import IncrementalSensing, Sensing
from repro.core.strategy import WorldStrategy
from repro.core.views import ViewRecord

#: Maximum printed-stream length retained in the state.  A runaway server
#: cannot bloat memory; the referee criterion (substring) only needs the
#: recent tail plus one document length, which this comfortably exceeds at
#: experiment scales.
_MAX_PRINTED = 65536


@dataclass(frozen=True)
class PrinterState:
    """World state: the job and what is physically on paper."""

    document: str
    printed: str


class PrinterWorld(WorldStrategy):
    """The environment of the printing goal.

    Each round it (re)announces the job to the user as ``JOB:<doc>`` —
    re-announcing keeps the goal forgiving and the world re-entrant — plus,
    in the feedback variant, ``;TAIL:<suffix>`` reporting the recently
    printed characters.  Messages from the server of the form ``OUT:<text>``
    are appended to the paper; anything else from the server is ignored
    (paper does not crash on gibberish).
    """

    def __init__(
        self,
        documents: Sequence[str],
        *,
        feedback: bool = True,
        tail_length: int = 64,
    ) -> None:
        if not documents:
            raise ValueError("PrinterWorld needs at least one document")
        for document in documents:
            if ";" in document or ":" in document:
                raise ValueError(
                    f"documents must not contain ':' or ';': {document!r}"
                )
        self._documents = list(documents)
        self._feedback = feedback
        self._tail_length = tail_length

    @property
    def name(self) -> str:
        suffix = "" if self._feedback else "-blind"
        return f"printer-world{suffix}"

    def initial_state(self, rng: random.Random) -> PrinterState:
        return PrinterState(document=rng.choice(self._documents), printed="")

    def step(
        self, state: PrinterState, inbox: WorldInbox, rng: random.Random
    ) -> Tuple[PrinterState, WorldOutbox]:
        parsed = parse_tagged(inbox.from_server)
        if parsed is not None and parsed[0] == "OUT":
            printed = (state.printed + parsed[1])[-_MAX_PRINTED:]
            state = replace(state, printed=printed)
        message = f"JOB:{state.document}"
        if self._feedback:
            message += f";TAIL:{state.printed[-self._tail_length:]}"
        return state, WorldOutbox(to_user=message)


class PrintedReferee(FiniteReferee):
    """Accepts iff the job document appears on the paper when the user halts."""

    def accepts(self, execution: ExecutionResult) -> bool:
        state = execution.final_world_state()
        if not isinstance(state, PrinterState):
            return False
        return state.document in state.printed


def printing_goal(
    documents: Sequence[str], *, feedback: bool = True
) -> FiniteGoal:
    """The finite goal "get the document onto the paper"."""
    return FiniteGoal(
        name="printing" + ("" if feedback else "-blind"),
        world=PrinterWorld(documents, feedback=feedback),
        referee=PrintedReferee(),
        forgiving=True,
    )


class PrintedTailSensing(Sensing):
    """Positive iff the world's feedback shows the job fully printed.

    Reads the latest ``JOB:<doc>;TAIL:<tail>`` message and checks that the
    document occurs in the reported tail.  *Safe* because the tail is ground
    truth straight from the world; *viable* because the adequate printer
    protocol gets the document printed and then sees it reported.  Returns a
    negative indication when no feedback has arrived (blind world), which is
    the honest reading: no evidence of success.
    """

    @property
    def name(self) -> str:
        return "printed-tail"

    def incremental(self) -> IncrementalSensing:
        return _PrintedTailIncremental()


class _PrintedTailIncremental(IncrementalSensing):
    """Judges each ``JOB:``-tagged report as it arrives; others are skipped."""

    __slots__ = ("_verdict",)
    empty = False

    def __init__(self) -> None:
        self._verdict = False

    def observe(self, record: ViewRecord) -> bool:
        message = record.inbox.from_world
        if message:
            job, _, rest = message.partition(";")
            parsed_job = parse_tagged(job)
            if parsed_job is not None and parsed_job[0] == "JOB":
                parsed_tail = parse_tagged(rest)
                # Blind world (no TAIL): no evidence, no endorsement.
                self._verdict = (
                    parsed_tail is not None
                    and parsed_tail[0] == "TAIL"
                    and parsed_job[1] in parsed_tail[1]
                )
        return self._verdict


def printing_sensing() -> Sensing:
    """The printing goal's sensing.

    Deliberately *not* wrapped in a grace period: the finite universal user
    consults sensing only when a candidate halts, and an early grace-period
    endorsement would let a trigger-happy candidate halt successfully on no
    evidence — an unsafe sensing.  (Grace periods belong to compact goals,
    where sensing is polled every round; see :mod:`repro.worlds.control`.)
    """
    return PrintedTailSensing()
