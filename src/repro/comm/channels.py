"""Party roles of the three-party model.

The execution engine (:mod:`repro.core.execution`) steps all three parties
simultaneously: messages emitted at round *t* are delivered at round *t+1*.
The six directed channels between the parties are not an object of their
own: :class:`~repro.core.execution.ExecutionStepper` holds the message in
flight on each as a plain string and replaces all six wholesale every
round.  This module names the parties, for transcripts and trace events.
"""

from __future__ import annotations


class Roles:
    """Symbolic names for the three parties of the model."""

    USER = "user"
    SERVER = "server"
    WORLD = "world"

    ALL = (USER, SERVER, WORLD)
