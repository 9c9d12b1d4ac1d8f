import pytest

from argsynth.config import ConfigError, RunConfig, _file_keys, parse_config
from argsynth.search import SearchConfig
from argsynth.trainer import TrainConfig

# Every file key, each set away from its default.
ALL_KEYS = """\
seed = 7
library = noargs
search = exact
n_expand = 3
simulations = 40
c_puct = 1.5
dirichlet_alpha = 0.5
dirichlet_weight = 0.1
temperature = 0.5
nested_simulations = 20
iterations = 12
episodes_per_iteration = 6
batch_size = 16
grad_steps = 4
learning_rate = 1e-3
epsilon_failed = 0.3
unlock_threshold = 0.8
ema_decay = 0.9
replay_capacity = 500
failed_capacity = 50
train_length_min = 3
train_length_max = 5
eval_lengths = 5,10,20
eval_trials = 9
checkpoint = run.ckpt
output_dir = out/run
"""


def test_every_key_parses_to_its_value():
    cfg = parse_config(ALL_KEYS)
    tc = cfg.to_train_config()
    assert tc.search == SearchConfig(
        mode="exact", n_expand=3, simulations=40, c_puct=1.5,
        dirichlet_alpha=0.5, dirichlet_weight=0.1, temperature=0.5,
        nested_simulations=20, training=True)
    assert (tc.seed, tc.library_mode, tc.n_episodes, tc.batch_size,
            tc.grad_steps, tc.learning_rate, tc.epsilon_failed,
            tc.unlock_threshold, tc.ema_decay, tc.replay_capacity,
            tc.failed_capacity, tc.train_length_min, tc.train_length_max) == (
        7, "noargs", 6, 16, 4, 1e-3, 0.3, 0.8, 0.9, 500, 50, 3, 5)
    assert (cfg.iterations, cfg.eval_lengths, cfg.eval_trials, cfg.checkpoint,
            cfg.output_dir) == (12, (5, 10, 20), 9, "run.ckpt", "out/run")
    assert type(tc.learning_rate) is float and type(tc.seed) is int


def test_empty_text_gives_the_defaults():
    assert parse_config("") == RunConfig()
    tc = RunConfig().to_train_config()
    assert tc.search == SearchConfig()
    assert tc.seed == 0 and tc.learning_rate == 1e-4 and tc.n_episodes == 20


def test_integer_text_for_a_float_key():
    assert parse_config("c_puct = 2").to_train_config().search.c_puct == 2.0


def test_comments_and_blank_lines_are_ignored():
    text = ("# a run\n\n   \nseed = 4  # trailing comment\n"
            "  # indented comment\nbatch_size=8\n")
    tc = parse_config(text).to_train_config()
    assert tc.seed == 4 and tc.batch_size == 8


def _rejects(text: str, *fragments: str) -> str:
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    message = str(info.value)
    for fragment in fragments:
        assert fragment in message
    return message


def test_unknown_key_names_its_line():
    _rejects("seed = 1\n\nbogus = 3\n", "line 3", "unknown key 'bogus'")


def test_all_keys_names_every_file_key_once():
    keys = [line.split("=")[0].strip() for line in ALL_KEYS.splitlines()]
    assert sorted(keys) == sorted(_file_keys()) and len(keys) == 26


@pytest.mark.parametrize("line", ["wall_clock = true", "value_from_failures = yes"])
def test_a_removed_switch_is_an_unknown_key(line):
    # Timing is measured outside the trainer, and failed episodes always
    # train the value head, so neither switch exists any more.
    key = line.split(" ")[0]
    _rejects(f"seed = 1\n{line}\n", "line 2", f"unknown key {key!r}")


@pytest.mark.parametrize("text,first,second", [
    ("simulations = 10\nsimulations = 20\n", 1, 2),
    ("search = exact\n# run\nseed = 1\nsearch = approx\n", 1, 4),
    ("library = args\n\nlibrary = args\n", 1, 3),
])
def test_a_key_set_twice_names_both_lines(text, first, second):
    key = text.split(" ")[0]
    _rejects(text, f"line {second}: key {key!r} already set on line {first}")


def test_missing_equals_names_its_line():
    _rejects("# header\nseed 1\n", "line 2", "expected `key = value`")


@pytest.mark.parametrize("key,text", [
    ("seed", "x"), ("batch_size", "2.5"), ("learning_rate", "fast"),
    ("eval_lengths", "5,x"), ("eval_lengths", ""),
])
def test_bad_value_names_its_line(key, text):
    _rejects(f"seed = 1\n{key} = {text}\n", "line 2", f"bad value for {key!r}")


# (file key, file text, class the key belongs to, field name, value)
OUT_OF_RANGE = [
    ("seed", "-1", TrainConfig, "seed", -1),
    ("library", "lisp", TrainConfig, "library_mode", "lisp"),
    ("search", "greedy", SearchConfig, "mode", "greedy"),
    ("n_expand", "0", SearchConfig, "n_expand", 0),
    ("simulations", "0", SearchConfig, "simulations", 0),
    ("c_puct", "-2", SearchConfig, "c_puct", -2.0),
    ("dirichlet_alpha", "0", SearchConfig, "dirichlet_alpha", 0.0),
    ("dirichlet_weight", "1.5", SearchConfig, "dirichlet_weight", 1.5),
    ("dirichlet_weight", "-0.1", SearchConfig, "dirichlet_weight", -0.1),
    ("temperature", "-1", SearchConfig, "temperature", -1.0),
    ("nested_simulations", "-1", SearchConfig, "nested_simulations", -1),
    ("iterations", "0", RunConfig, "iterations", 0),
    ("episodes_per_iteration", "0", TrainConfig, "n_episodes", 0),
    ("batch_size", "0", TrainConfig, "batch_size", 0),
    ("grad_steps", "-1", TrainConfig, "grad_steps", -1),
    ("learning_rate", "-1", TrainConfig, "learning_rate", -1.0),
    ("learning_rate", "0", TrainConfig, "learning_rate", 0.0),
    ("epsilon_failed", "1.1", TrainConfig, "epsilon_failed", 1.1),
    ("unlock_threshold", "-0.5", TrainConfig, "unlock_threshold", -0.5),
    ("ema_decay", "1", TrainConfig, "ema_decay", 1.0),
    ("replay_capacity", "0", TrainConfig, "replay_capacity", 0),
    ("failed_capacity", "0", TrainConfig, "failed_capacity", 0),
    ("train_length_min", "1", TrainConfig, "train_length_min", 1),
    ("train_length_max", "1", TrainConfig, "train_length_max", 1),
    ("eval_lengths", "5,1", RunConfig, "eval_lengths", (5, 1)),
    ("eval_trials", "0", RunConfig, "eval_trials", 0),
]


@pytest.mark.parametrize("key,text,cls,name,value", OUT_OF_RANGE,
                         ids=[f"{row[0]}={row[1]}" for row in OUT_OF_RANGE])
def test_out_of_range_file_value_names_its_line(key, text, cls, name, value):
    _rejects(f"# run\n{key} = {text}\n", "line 2", f"value for {key!r} out of range")


@pytest.mark.parametrize("key,text,cls,name,value", OUT_OF_RANGE,
                         ids=[f"{row[1]}->{row[2].__name__}.{row[3]}" for row in OUT_OF_RANGE])
def test_out_of_range_value_is_rejected_by_the_python_api(key, text, cls, name, value):
    cfg = cls(**{name: value})
    with pytest.raises(ValueError):
        cfg.validate()
    if cls is SearchConfig:
        with pytest.raises(ValueError):
            TrainConfig(search=cfg).validate()


def test_train_lengths_must_be_ordered():
    _rejects("train_length_min = 6\ntrain_length_max = 4\n",
             "train_length_min exceeds train_length_max")
    with pytest.raises(ValueError):
        TrainConfig(train_length_min=6, train_length_max=4).validate()
    assert parse_config("train_length_min = 4\ntrain_length_max = 4\n"
                        ).to_train_config().train_length_max == 4


# Every float file key; each names its field.
FLOAT_KEYS = sorted(k for k, (_, _, kind) in _file_keys().items() if kind is float)
NON_FINITE = ["inf", "-inf", "1e400"]


@pytest.mark.parametrize("text", NON_FINITE)
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_float_names_its_line(key, text):
    # An infinite Dirichlet alpha used to reach the search as NaN noise;
    # an infinite c_puct, temperature or learning rate ran on silently.
    _rejects(f"# run\n{key} = {text}\n", "line 2",
             f"value for {key!r} out of range (need a finite value")


@pytest.mark.parametrize("text", NON_FINITE)
@pytest.mark.parametrize("name", FLOAT_KEYS)
def test_non_finite_float_is_rejected_by_the_python_api(name, text):
    cls = SearchConfig if hasattr(SearchConfig, name) else TrainConfig
    cfg = cls(**{name: float(text)})
    with pytest.raises(ValueError, match=f"{name} out of range"):
        cfg.validate()
    if cls is SearchConfig:
        with pytest.raises(ValueError, match=f"{name} out of range"):
            RunConfig(search=cfg).validate()


def test_grad_clip_is_not_a_file_key():
    _rejects("grad_clip = 2\n", "line 1", "unknown key 'grad_clip'")
