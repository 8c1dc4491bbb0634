"""Core model of goal-oriented communication (the paper's Section 2–3).

Strategies and the synchronous engine (:mod:`.strategy`, :mod:`.execution`),
goals and referees (:mod:`.goals`, :mod:`.referees`), the user's local view
and sensing (:mod:`.views`, :mod:`.sensing`), helpfulness of servers
(:mod:`.helpfulness`) and the empirical checkers for the paper's
definitional properties (:mod:`.properties`).
"""

from repro.core.strategy import (
    Strategy,
    UserStrategy,
    ServerStrategy,
    WorldStrategy,
    StatelessUser,
    SilentUser,
    SilentServer,
)
from repro.core.execution import (
    ExecutionResult,
    FULL_RECORDING,
    METRICS_RECORDING,
    RecordingPolicy,
    RoundRecord,
    run_execution,
)
from repro.core.views import BoundedUserView, UserView, ViewRecord
from repro.core.referees import (
    FiniteReferee,
    FunctionFiniteReferee,
    CompactReferee,
    LastStateCompactReferee,
    RefereeMonitor,
    CompactVerdict,
)
from repro.core.goals import FiniteGoal, CompactGoal, Goal, GoalOutcome
from repro.core.sensing import (
    Sensing,
    IncrementalSensing,
    ConstantSensing,
    LastWorldMessageSensing,
    GraceSensing,
    AllOfSensing,
    AnyOfSensing,
    NoRecentProgressSensing,
)
from repro.core.interfaces import (
    ChannelLike,
    ChannelRunLike,
    FaultScheduleLike,
    IncrementalSensingLike,
    RefereeLike,
    RefereeMonitorLike,
    ScheduleRunLike,
    SensingLike,
    StrategyLike,
    TracerProtocol,
)
from repro.core.helpfulness import HelpfulnessReport, is_helpful, helpful_subclass
from repro.core.properties import (
    PropertyReport,
    Violation,
    check_finite_safety,
    check_finite_viability,
    check_compact_safety,
    check_compact_viability,
    check_forgiving,
)

__all__ = [
    "Strategy",
    "UserStrategy",
    "ServerStrategy",
    "WorldStrategy",
    "StatelessUser",
    "SilentUser",
    "SilentServer",
    "ExecutionResult",
    "RecordingPolicy",
    "FULL_RECORDING",
    "METRICS_RECORDING",
    "RoundRecord",
    "run_execution",
    "UserView",
    "BoundedUserView",
    "ViewRecord",
    "FiniteReferee",
    "FunctionFiniteReferee",
    "CompactReferee",
    "LastStateCompactReferee",
    "RefereeMonitor",
    "CompactVerdict",
    "FiniteGoal",
    "CompactGoal",
    "Goal",
    "GoalOutcome",
    "Sensing",
    "IncrementalSensing",
    "ConstantSensing",
    "LastWorldMessageSensing",
    "GraceSensing",
    "AllOfSensing",
    "AnyOfSensing",
    "NoRecentProgressSensing",
    "ChannelLike",
    "ChannelRunLike",
    "FaultScheduleLike",
    "IncrementalSensingLike",
    "RefereeLike",
    "RefereeMonitorLike",
    "ScheduleRunLike",
    "SensingLike",
    "StrategyLike",
    "TracerProtocol",
    "HelpfulnessReport",
    "is_helpful",
    "helpful_subclass",
    "PropertyReport",
    "Violation",
    "check_finite_safety",
    "check_finite_viability",
    "check_compact_safety",
    "check_compact_viability",
    "check_forgiving",
]
