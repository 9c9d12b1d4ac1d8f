"""Learning argument-accepting program hierarchies from reward alone.

The library induces the Quicksort call hierarchy (partition_update,
partition, quicksort_update, quicksort) over a pointer/stack/registry list
world, by coupling a recurrent policy/value network with recursive Monte
Carlo tree search in exact or approximate (sampled-expansion) mode.
"""
from .env import (
    EnvState,
    EnvError,
    RangeFrame,
    TaskId,
    TASKS,
    env_from_record,
    env_to_record,
    make_env,
    observe,
    oracle_transform,
    reward,
    sample_task_env,
    step_cap,
)
from .programs import (
    ArgTuple,
    EMPTY_ARGS,
    LibraryError,
    ProgramLibrary,
    ProgramSpec,
    apply_atomic,
    args_decode,
    args_encode,
    atomic_feasible,
    build_library,
    feasible_pairs,
    program_precondition,
    valid_arg_tuples,
)
from .network import (
    AdamState,
    CheckpointError,
    HiddenState,
    NetworkDims,
    ParameterSet,
    PolicyOutput,
    checkpoint_load,
    checkpoint_save,
    dims_for_library,
    finite_diff_check,
    forward,
    forward_rows,
    greedy_select,
    init_optimizer,
    init_params,
    loss,
    loss_and_grads,
    masked_distributions,
    step_loss_terms,
    train_step,
    zero_hidden,
)
from .search import (
    MODE_APPROX,
    MODE_EXACT,
    NetworkEvaluator,
    NetworkGreedyPolicy,
    SearchConfig,
    SearchStats,
    UniformEvaluator,
    execute_greedy,
    expand,
    lockstep_episodes,
    puct_select,
    recurse_subprogram,
    run_search,
    search_episode,
)
from .trainer import (
    FailedEnvBuffer,
    ReplayBuffer,
    TaskStats,
    TraceRecord,
    TrainConfig,
    Trainer,
    accuracy_csv,
    curriculum_select,
    evaluate_generalization,
    replay_trace,
    run_episode,
    sample_initial_env,
)
from .expert import ExpertPolicy, ExpertUnavailable, expert_available, expert_script
from .config import ConfigError, RunConfig, load_config, parse_config

__version__ = "0.1.0"
