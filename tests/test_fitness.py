import math
import random

import pytest

from ecad.config import EvalTypeConfig, PopConfig
from ecad.dispatch import EvalResult
from ecad.fitness import ScoreCard, normalize


def et(type="hwDBJob", weight=1.0, min_value=0.0, max_value=1000.0, active=True,
       allow_overflow=False, minimize=False, metric=None):
    return EvalTypeConfig(type=type, weight=weight, min_value=min_value,
                          max_value=max_value, active=active,
                          allow_overflow=allow_overflow, minimize=minimize,
                          metric=metric)


def ok(e, metrics):
    return EvalResult(genome_id=0, eval_type=e.type, metrics=metrics)


def pop_with(eval_types):
    return PopConfig(initial_pop_size=2, max_pop_size=4, change_rate=0.5, max_generations=1,
                     fitness_score_goal=2.0, eval_types=tuple(eval_types))


ACCURACY = et(type="simJob", min_value=0.9, max_value=1.0)
GOPS = et(type="hwDBJob", min_value=0.0, max_value=1000.0)


class TestNormalize:
    def test_accuracy_above_floor(self):
        assert normalize(0.942, ACCURACY) == pytest.approx(0.42, abs=1e-12)

    def test_accuracy_below_floor_clamps_to_zero(self):
        assert normalize(0.85, ACCURACY) == 0.0

    def test_gops_linear(self):
        assert normalize(174.0, GOPS) == pytest.approx(0.174, abs=1e-12)

    def test_above_max_clamps(self):
        assert normalize(1500.0, GOPS) == 1.0

    def test_allow_overflow(self):
        assert normalize(1500.0, et(allow_overflow=True)) == pytest.approx(1.5)
        assert normalize(-10.0, et(allow_overflow=True)) == 0.0   # floor still applies

    def test_minimize(self):
        lat = et(minimize=True, min_value=0.0, max_value=10.0)
        assert normalize(2.0, lat) == pytest.approx(0.8)
        assert normalize(12.0, lat) == 0.0
        assert normalize(-1.0, lat) == 1.0

    def test_non_finite_scores_zero(self):
        assert normalize(float("nan"), GOPS) == 0.0
        assert normalize(float("inf"), GOPS) == 0.0

    def test_monotone(self):
        rng = random.Random(0)
        values = sorted(rng.uniform(-100, 2000) for _ in range(200))
        scores = [normalize(v, GOPS) for v in values]
        assert all(a <= b for a, b in zip(scores, scores[1:]))
        minimized = [normalize(v, et(minimize=True)) for v in values]
        assert all(a >= b for a, b in zip(minimized, minimized[1:]))


class TestCombine:
    def test_weighted_sum(self):
        pop = pop_with([ACCURACY, GOPS])
        card = ScoreCard()
        card.record(ACCURACY, ok(ACCURACY, {"accuracy": 0.942}))
        card.record(GOPS, ok(GOPS, {"effective_gops": 174.0}))
        assert card.combined(pop) == pytest.approx(0.594, abs=1e-12)

    def test_single_objective(self):
        pop = pop_with([GOPS])
        card = ScoreCard()
        card.record(GOPS, ok(GOPS, {"effective_gops": 250.0}))
        assert card.combined(pop) == pytest.approx(0.25)

    def test_incomplete_card_raises(self):
        pop = pop_with([ACCURACY, GOPS])
        card = ScoreCard()
        card.record(GOPS, ok(GOPS, {"effective_gops": 174.0}))
        with pytest.raises(ValueError, match="missing"):
            card.combined(pop)

    def test_floor_blocks_goal(self):
        # an objective at its floor keeps the combined score below the 2.0 goal
        pop = pop_with([ACCURACY, GOPS])
        card = ScoreCard()
        card.record(ACCURACY, ok(ACCURACY, {"accuracy": 0.80}))
        card.record(GOPS, ok(GOPS, {"effective_gops": 1e9}))
        assert card.combined(pop) < pop.fitness_score_goal

    def test_weight_scaling_preserves_ranking(self):
        rng = random.Random(1)
        base = [et(type="simJob", min_value=0, max_value=1),
                et(type="hwDBJob", min_value=0, max_value=1000)]
        scaled = [et(type="simJob", weight=3.5, min_value=0, max_value=1),
                  et(type="hwDBJob", weight=3.5, min_value=0, max_value=1000)]

        def scores(ets):
            pop = pop_with(ets)
            combos = []
            for gid in range(20):
                rng_local = random.Random(gid)
                card = ScoreCard()
                card.record(ets[0], ok(ets[0], {"accuracy": rng_local.uniform(0, 1)}))
                card.record(ets[1], ok(ets[1], {"effective_gops": rng_local.uniform(0, 1000)}))
                combos.append(card.combined(pop))
            return combos

        a, b = scores(base), scores(scaled)
        assert all(y == pytest.approx(3.5 * x) for x, y in zip(a, b))
        assert sorted(range(20), key=a.__getitem__) == sorted(range(20), key=b.__getitem__)

    def test_permutation_invariance(self):
        metrics = {"simJob": {"accuracy": 0.95}, "hwDBJob": {"effective_gops": 432.1}}
        combos = []
        for order in ([ACCURACY, GOPS], [GOPS, ACCURACY]):
            pop = pop_with(order)
            card = ScoreCard()
            for e in pop.eval_types:
                card.record(e, ok(e, metrics[e.type]))
            combos.append(card.combined(pop))
        assert combos[0] == combos[1] == pytest.approx(0.5 + 0.4321)

    def test_inactive_objectives_ignored(self):
        inactive = et(type="physJob", active=False)
        pop = pop_with([GOPS, inactive])
        card = ScoreCard()
        card.record(GOPS, ok(GOPS, {"effective_gops": 500.0}))
        assert card.is_complete(pop)
        assert card.combined(pop) == pytest.approx(0.5)


class TestScoreCard:
    def test_failure_recorded_as_zero(self):
        card = ScoreCard()
        card.record(GOPS, EvalResult(genome_id=0, eval_type="hwDBJob", metrics={"feasible": 0.0},
                                     ok=False, diagnostics="worker crashed"))
        assert card.scores["hwDBJob"] == 0.0
        assert "crashed" in card.failed["hwDBJob"]
        assert card.metrics["hwDBJob"] == {"feasible": 0.0}   # a failed result keeps its metrics

    def test_missing_metric_fails(self):
        card = ScoreCard()
        card.record(GOPS, ok(GOPS, {"wrong_key": 1.0}))
        assert card.scores["hwDBJob"] == 0.0
        assert "effective_gops" in card.failed["hwDBJob"]

    def test_metric_override_scored(self):
        # a non-default hwDBJob metric is scored, and combined, like the default one
        imgs = et(metric="img_per_s", min_value=0, max_value=400000)
        card = ScoreCard()
        card.record(imgs, ok(imgs, {"img_per_s": 129144.0, "effective_gops": 174.0}))
        assert card.scores["hwDBJob"] == pytest.approx(129144.0 / 400000)
        assert card.combined(pop_with([imgs])) == pytest.approx(129144.0 / 400000)

    def test_json_round_trip(self):
        card = ScoreCard()
        card.record(GOPS, ok(GOPS, {"effective_gops": 174.0, "img_per_s": 129144.0}))
        again = ScoreCard.from_json(card.to_json())
        assert again == card

    def test_phys_stub_flows_through_same_path(self):
        # physJob has no worker, but the scoring path is keyed on the eval type
        # alone: any type's metrics are normalized and combined the same way
        phys = et(type="physJob", min_value=0, max_value=1, metric="phys_metric")
        pop = pop_with([phys])
        card = ScoreCard()
        card.record(phys, ok(phys, {"phys_metric": 0.25}))
        assert card.combined(pop) == pytest.approx(0.25)

    def test_nan_metric_flagged(self):
        card = ScoreCard()
        card.record(GOPS, ok(GOPS, {"effective_gops": math.nan}))
        assert card.scores["hwDBJob"] == 0.0
        assert "hwDBJob" in card.failed
