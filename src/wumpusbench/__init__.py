"""Deterministic Wumpus-World benchmark environment and LLM-agent harness."""

from .agents import (
    Agent,
    CompletionLog,
    Decision,
    RandomLegalAgent,
    ScriptedAgent,
    legal_actions_from,
)
from .chat import ChatClient, ChatMessage, UsageRecord
from .errors import (
    ActionParseError,
    ArbitrationError,
    ConfigurationError,
    EpisodeProtocolFailure,
    IllegalActionError,
    InconsistentPerceptsError,
    LogCorruptionError,
    ProtocolError,
    ReplayMismatchError,
    SummaryError,
    TransportError,
    WumpusBenchError,
)
from .harness import (
    Condition,
    DEFAULT_CONDITIONS,
    EpisodeRecord,
    RoundRecord,
    TrialMatrix,
    default_matrix,
    matrix_from_dict,
    persist_and_replay,
    read_records,
    render_board,
    render_frames,
    run_episode,
    run_trials,
    verify_record,
    write_records,
)
from .llm import (
    CosTurn,
    Guess,
    LlmAgent,
    MECHANISM_COS,
    MECHANISM_COT,
    MECHANISM_PLANNER_CRITIC,
    build_prompt,
    default_system_prompt,
    parse_cos_response,
)
from .metrics import MetricsSummary, Price, price_table_from_dict, summarize
from .mockserver import MockChatServer, MockReply, serve_mock
from .observation import (
    ArrowStatus,
    OBSERVATION_KEYS,
    Observation,
    Suggestions,
    build_observation,
    frontier_suggestions,
    observation_from_json,
    observation_to_dict,
    observation_to_json,
    parse_action,
)
from .oracle import (
    CandidateStatus,
    CellClassification,
    KnowledgeBase,
    OracleAgent,
    classify_cells,
    full_info_solvable,
    new_kb,
    oracle_policy,
    update_kb,
)
from .planner_critic import (
    ArbitrationConfig,
    CriticVerdict,
    PlannerCriticAgent,
    arbitrate,
    critique,
    parse_critic_verdict,
)
from .world import (
    Action,
    ActionKind,
    ArrowReport,
    Cell,
    Direction,
    DIRECTIONS,
    Percept,
    Status,
    TransitionResult,
    WorldConfig,
    WorldState,
    adjacent_cells,
    apply_action,
    episode_score,
    frontier,
    generate_world,
    grid_cells,
    legal_actions,
    percepts_at,
    safe_start_zone,
    shoot_trajectory,
    world_from_layout,
)

__version__ = "0.1.0"
