"""Deterministic Wumpus-World benchmark environment and LLM-agent harness.

The names below are the public API, the ones the README lists under
"Public API". Every other name is internal to its module.
"""

from .agents import (
    Agent,
    CompletionLog,
    Completer,
    Decision,
    RandomLegalAgent,
    ScriptedAgent,
    legal_actions_from,
)
from .chat import ChatClient, ChatMessage, UsageRecord
from .errors import EpisodeProtocolFailure, WumpusBenchError
from .harness import (
    EpisodeRecord,
    TrialMatrix,
    default_matrix,
    matrix_from_dict,
    read_records,
    render_frames,
    run_episode,
    run_trials,
    verify_record,
    write_records,
)
from .llm import LlmAgent, MECHANISM_COS, MECHANISM_COT, MECHANISM_PLANNER_CRITIC
from .metrics import Price, price_table_from_dict, summarize
from .mockserver import MockChatServer, MockReply
from .observation import (
    Observation,
    build_observation,
    observation_to_json,
    parse_action,
)
from .oracle import OracleAgent, full_info_solvable
from .planner_critic import (
    ArbitrationConfig,
    CriticVerdict,
    PlannerCriticAgent,
    arbitrate,
)
from .world import (
    Action,
    ActionKind,
    Cell,
    Direction,
    Status,
    WorldConfig,
    WorldState,
    apply_action,
    generate_world,
    percepts_at,
    world_from_layout,
)

__version__ = "0.2.0"
