"""Sequential-consistency model checking for finite cache-coherence protocols.

Three layers:

- trace analysis: constraint graphs over unambiguous causal traces, whose
  acyclicity under the simple per-location write order certifies sequential
  consistency, with cycles reduced to canonical k-nice form;
- monitors: constant-size automata (one write-order constraint per location,
  one violation check per processor) whose product with a protocol turns
  cycle detection into reachability;
- checking: explicit-state search over the product, counterexample replay
  with fresh values, and an exhaustive oracle for short traces.
"""

from .analysis import (
    ORACLE_BOUND_DEFAULT,
    SerialWitness,
    check_sc_oracle,
    is_causal,
    is_serial,
    is_unambiguous,
    respects_program_order,
)
from .checker import (
    COUNTEREXAMPLE,
    DEFAULT_MAX_STATES,
    INCONCLUSIVE,
    NO_VIOLATION,
    AssumptionReport,
    Verdict,
    explore_protocol,
    extract_cycle,
    model_check,
    validate_assumptions,
)
from .errors import (
    DataIndependenceError,
    DisabledEventError,
    FormatError,
    OracleBoundError,
    ParameterError,
    PreconditionError,
    ReplayError,
    ScmcError,
    SoundnessError,
)
from .events import (
    READ,
    WRITE,
    InternalEvent,
    MemoryEvent,
    Params,
    Run,
    Trace,
    dumps_jsonl,
    loads_run_jsonl,
    project_trace,
)
from .monitors import (
    CheckAutomaton,
    ConstrainAutomaton,
    MONITOR_DATA_DOMAIN,
    accepts,
)
from .protocol import (
    DEFAULT_QUEUE_BOUND,
    PROTOCOL_NAMES,
    MemorySystem,
    PiranhaProtocol,
    PiranhaState,
    make_protocol,
    permute_run,
    replay,
    replay_unambiguous,
)
from .witness import (
    ConstraintGraph,
    NiceCycle,
    build_constraint_graph,
    find_cycle,
    find_minimal_nice_cycle,
    find_nice_cycle,
    verify_nice_cycle,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "CheckAutomaton",
    "ConstrainAutomaton",
    "ConstraintGraph",
    "COUNTEREXAMPLE",
    "DataIndependenceError",
    "DEFAULT_MAX_STATES",
    "DEFAULT_QUEUE_BOUND",
    "DisabledEventError",
    "FormatError",
    "INCONCLUSIVE",
    "InternalEvent",
    "MemoryEvent",
    "MemorySystem",
    "MONITOR_DATA_DOMAIN",
    "NO_VIOLATION",
    "NiceCycle",
    "ORACLE_BOUND_DEFAULT",
    "OracleBoundError",
    "Params",
    "ParameterError",
    "PiranhaProtocol",
    "PiranhaState",
    "PreconditionError",
    "PROTOCOL_NAMES",
    "READ",
    "ReplayError",
    "Run",
    "ScmcError",
    "SerialWitness",
    "SoundnessError",
    "Trace",
    "Verdict",
    "WRITE",
    "accepts",
    "build_constraint_graph",
    "check_sc_oracle",
    "dumps_jsonl",
    "explore_protocol",
    "extract_cycle",
    "find_cycle",
    "find_minimal_nice_cycle",
    "find_nice_cycle",
    "is_causal",
    "is_serial",
    "is_unambiguous",
    "loads_run_jsonl",
    "make_protocol",
    "model_check",
    "permute_run",
    "project_trace",
    "replay",
    "replay_unambiguous",
    "respects_program_order",
    "validate_assumptions",
    "verify_nice_cycle",
]
