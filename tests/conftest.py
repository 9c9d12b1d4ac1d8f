import numpy as np
import pytest

from argsynth.env import TASKS
from argsynth.expert import expert_script
from argsynth.network import HiddenState
from argsynth.programs import ARG_SPACE, args_encode


class RiggedEvaluator:
    """Concentrates the priors on the reference script's next action.

    The script is planned once per episode, at the first evaluation (the
    one made from `initial_hidden()`), and the hidden state then carries
    the steps taken in `h` and the plan id in `c`, as the network's LSTM
    carries the program's history. Planning again from the current state
    would be wrong: the entry conditions of partition_update and partition
    still hold partway through an episode, so a fresh plan starts a new
    episode instead of finishing this one.

    Plan ids count plans in the order the episodes first ask, which
    differs between episodes run in turn and in lockstep; `h`, which the
    episode records in its steps, does not depend on them. Each request
    of a wave is answered on its own.
    """

    def __init__(self, lib, boost=0.97):
        self.lib = lib
        self.boost = boost
        self._plans = []

    def evaluate_many(self, requests):
        return [self._evaluate(*request) for request in requests]

    def _evaluate(self, env, task_index, hidden):
        t, plan_id = int(hidden.h[0]), int(hidden.c[0])
        if plan_id < 0:
            plan_id = len(self._plans)
            self._plans.append(
                expert_script(TASKS[task_index], env, self.lib.mode))
        plan = self._plans[plan_id]
        pi_p = np.full(len(self.lib), (1 - self.boost) / len(self.lib))
        pi_a = np.full(ARG_SPACE, (1 - self.boost) / ARG_SPACE)
        if t < len(plan):
            name, args = plan[t]
            pi_p[self.lib.index(name)] += self.boost
            pi_a[args_encode(args)] += self.boost
        h_out = HiddenState(np.array([t + 1.0]), np.array([float(plan_id)]))
        return pi_p / pi_p.sum(), pi_a / pi_a.sum(), 0.5, h_out

    def initial_hidden(self):
        return HiddenState(np.zeros(1), np.array([-1.0]))  # no plan yet


@pytest.fixture
def rigged_evaluator():
    """Factory for the plan-following prior double: `rigged_evaluator(lib)`."""
    return RiggedEvaluator
