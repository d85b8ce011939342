import hashlib
import math

import numpy as np
import pytest

from belltest import core, lhv, montecarlo as mc, qm
from belltest.core import BellTestError, Outcome, ValidationError
from belltest.inequalities import FORMS, SettingsQuad, quad_from_differences
from belltest.montecarlo import (
    CoincidenceCounters,
    InsufficientStatisticsError,
    LhvSource,
    RunPlan,
    chunk_counts,
    counters_csv,
    derive_seed,
    evaluate_symmetric_detection,
    merge_counters,
    run_experiment,
    run_manifest,
    sample_chunk,
    sample_pair_events,
)

GEOM_F1 = qm.CascadeGeometry(eta=0.2, phi_deg=30.0, f_override=1.0)
QUAD = quad_from_differences(120.0, 120.0, 120.0, 0.0)


def real_plan(pairs, seed):
    return RunPlan(quad=QUAD, pairs_per_setting=pairs, seed=seed,
                   source=qm.RealSource(GEOM_F1))


def point_mass_counters(n, cell="zz"):
    kwargs = {cell: n}
    return CoincidenceCounters(n_emitted=n, **kwargs)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)

    def test_distinct_streams(self):
        seeds = {derive_seed(42, pair, chunk) for pair in range(4) for chunk in range(10)}
        assert len(seeds) == 40


class TestChunking:
    def test_small_run_single_chunk(self):
        assert chunk_counts(1000) == (1000,)

    def test_layout(self):
        n = 3 * mc.CHUNK_EMISSIONS + 17
        sizes = chunk_counts(n)
        assert sizes == (mc.CHUNK_EMISSIONS,) * 3 + (17,)
        assert sum(sizes) == n

    def test_requires_positive(self):
        with pytest.raises(ValidationError):
            chunk_counts(0)

    def test_pairs_budget(self):
        most = mc.MAX_PAIRS_PER_SETTING
        assert len(chunk_counts(most)) == most // mc.CHUNK_EMISSIONS
        with pytest.raises(ValidationError):
            chunk_counts(most + 1)
        with pytest.raises(ValidationError):
            RunPlan(quad=QUAD, pairs_per_setting=most + 1, seed=0, source=qm.IdealSource())
        assert RunPlan(quad=QUAD, pairs_per_setting=most, seed=0, source=qm.IdealSource())


class TestSamplePairEvents:
    def test_point_mass(self):
        from belltest.core import PairProbabilities

        degenerate = PairProbabilities(pp=0, pm=0, mp=0, mm=0, zz=1.0)
        counters = sample_pair_events(degenerate, 1000, seed=1)
        assert counters.zz == 1000
        assert counters.n_emitted == 1000

    def test_same_seed_identical(self):
        dist = qm.ideal_pair_probabilities(120.0)
        a = sample_pair_events(dist, 50_000, seed=9)
        b = sample_pair_events(dist, 50_000, seed=9)
        assert a == b
        c = sample_pair_events(dist, 50_000, seed=10)
        assert c != a

    def test_rate_close_to_model(self):
        dist = qm.event_distribution(0.0, 120.0, GEOM_F1)
        n = 1_000_000
        counters = sample_pair_events(dist, n, seed=123)
        expected = 2.976070928890333e-5
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(counters.pp / n - expected) < 5 * sigma

    def test_partitioned_chunks_merge_to_full_run(self):
        dist = qm.event_distribution(0.0, 120.0, GEOM_F1)
        n = 2 * mc.CHUNK_EMISSIONS + 999
        sizes = chunk_counts(n)
        full = sample_pair_events(dist, n, seed=21)
        parts = [
            CoincidenceCounters(size, *(int(x) for x in sample_chunk(dist, 21, idx, size)))
            for idx, size in enumerate(sizes)
        ]
        assert merge_counters(parts[0], *parts[1:]) == full


PIN_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [derive_seed(7, i) for i in range(1000)]


def reference_pair_events(dist, n, seed):
    """One fresh default_rng per chunk, seeded with derive_seed(seed, chunk)."""
    p = np.asarray(dist.cells(), dtype=np.float64)
    p = p / p.sum()
    full, rest = divmod(n, mc.CHUNK_EMISSIONS)
    sizes = [mc.CHUNK_EMISSIONS] * full + ([rest] if rest else [])
    total = np.zeros(9, dtype=np.int64)
    for idx, size in enumerate(sizes):
        total += np.random.default_rng(derive_seed(seed, idx)).multinomial(size, p)
    return CoincidenceCounters(n, *(int(c) for c in total))


SOURCE_DISTS = {
    "qm-ideal": qm.ideal_pair_probabilities(120.0),
    "qm-real": qm.event_distribution(0.0, 120.0, GEOM_F1),
    "lhv": lhv.pair_probabilities(lhv.FourAxisModel.uniform(), "a", "b"),
}


class TestSeedingMatchesNumpy:
    def test_seed_words_match_seed_sequence(self):
        words = mc._pcg64_seed_words(np.array(PIN_SEEDS, dtype=np.uint64))
        for seed, row in zip(PIN_SEEDS, words):
            expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist(), seed

    def test_states_match_pcg64(self):
        words = mc._pcg64_seed_words(np.array(PIN_SEEDS, dtype=np.uint64))
        states = mc._pcg64_states(words).tolist()
        for seed, (state_lo, state_hi, inc_lo, inc_hi) in zip(PIN_SEEDS, states):
            derived = {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}
            assert derived == np.random.PCG64(seed).state["state"], seed

    def test_chunk_seeds_match_derive_seed(self):
        for pair_seed in (0, -5, 2**64 - 1, derive_seed(3, 1)):
            seeds = mc._chunk_seeds(pair_seed, 995, 1005).tolist()
            assert seeds == [derive_seed(pair_seed, idx) for idx in range(995, 1005)]

    @pytest.mark.parametrize("kind", sorted(SOURCE_DISTS))
    @pytest.mark.parametrize("n", [
        999,  # one short chunk
        3 * mc.CHUNK_EMISSIONS + 12345,  # full chunks and a remainder
        (mc._SEED_BLOCK + 1) * mc.CHUNK_EMISSIONS + 77,  # across a seed block
    ])
    def test_pair_events_match_fresh_generators(self, kind, n):
        dist = SOURCE_DISTS[kind]
        assert sample_pair_events(dist, n, seed=31) == reference_pair_events(dist, n, 31)

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_block_size_never_changes_counts(self, monkeypatch, block):
        dist = SOURCE_DISTS["qm-real"]
        n = 7 * mc.CHUNK_EMISSIONS + 5
        baseline = sample_pair_events(dist, n, seed=12)
        monkeypatch.setattr(mc, "_SEED_BLOCK", block)
        assert sample_pair_events(dist, n, seed=12) == baseline

    def test_sample_chunk_matches_fresh_generator(self):
        dist = SOURCE_DISTS["qm-real"]
        p = np.asarray(dist.cells(), dtype=np.float64)
        p = p / p.sum()
        for idx in (0, 1, 4096, 12345):
            expected = np.random.default_rng(derive_seed(21, idx)).multinomial(500, p)
            assert sample_chunk(dist, 21, idx, 500).tolist() == expected.tolist()

    def test_seeding_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(mc, "_PCG64_MULT", mc._PCG64_MULT + 2)
        with pytest.raises(BellTestError, match="numpy's seeding"):
            sample_pair_events(SOURCE_DISTS["qm-real"], 1000, seed=1)

    def test_golden_counters_digest(self):
        plan = real_plan(3 * mc.CHUNK_EMISSIONS + 12345, seed=2024)
        digest = hashlib.sha256(counters_csv(run_experiment(plan)).encode("utf-8")).hexdigest()
        assert digest == "e54f7c7ccc8842bb306992488e23fc6a269aaa0b439688646005b474c8398ae1"

    def test_golden_counters_digest_across_seed_block(self):
        plan = real_plan((mc._SEED_BLOCK + 1) * mc.CHUNK_EMISSIONS + 77, seed=2024)
        digest = hashlib.sha256(counters_csv(run_experiment(plan)).encode("utf-8")).hexdigest()
        assert digest == "6f24fdbe2b835f44d6ba712a235780f957c3aad8f5cf340e1b6b5b6e64f3ac10"

    @pytest.mark.parametrize("order", [
        (1, 0, 2, 3),  # state words swapped
        (0, 1, 3, 2),  # inc words swapped
        (1, 0, 3, 2),  # the other layout's order
        (2, 3, 0, 1),  # state and inc swapped
    ])
    def test_misordered_state_write_raises(self, monkeypatch, order):
        monkeypatch.setattr(mc, "_word_order", lambda memory, seeded: list(order))
        chunks = mc._draw_chunks(mc._cell_probabilities(SOURCE_DISTS["qm-real"]), 1, 0, (10, 10))
        with pytest.raises(BellTestError, match="numpy's seeding"):
            next(chunks)  # raises before the first chunk's counts are drawn

    def test_unknown_state_layout_raises(self, monkeypatch):
        monkeypatch.setattr(mc, "_WORD_ORDERS", ((1, 0, 2, 3), (0, 1, 3, 2)))
        chunks = mc._draw_chunks(mc._cell_probabilities(SOURCE_DISTS["qm-real"]), 1, 0, (10,))
        with pytest.raises(BellTestError, match="word order"):
            next(chunks)

    def test_state_write_outside_the_generator_raises(self, monkeypatch):
        # a copy of the generator's state bytes passes the layout check, but
        # writes to it never reach the generator
        real = mc._state_memory
        monkeypatch.setattr(mc, "_state_memory", lambda bg: memoryview(bytearray(real(bg))))
        with pytest.raises(BellTestError, match="numpy's seeding"):
            sample_pair_events(SOURCE_DISTS["qm-real"], 1000, seed=1)


class TestCounters:
    def test_validation(self):
        with pytest.raises(ValidationError):
            CoincidenceCounters(n_emitted=5, pp=4)
        with pytest.raises(ValidationError):
            CoincidenceCounters(n_emitted=1, pp=-1, pm=2)

    def test_numpy_counts_are_stored_as_ints(self):
        # 36 L U T^3 overflows int64 at these counts, which once gave std_error 1.2058.
        cells = {"cross": (400000, 100000, 100000, 400000), "primed": (450000, 50000, 50000, 450000)}
        as_ints = [CoincidenceCounters(sum(c), *c) for c in cells.values()]
        as_numpy = [CoincidenceCounters(np.int64(sum(c)), *np.array(c)) for c in cells.values()]
        assert all(type(n) is int for c in as_numpy for n in c._values())
        assert as_numpy == as_ints
        estimated = evaluate_symmetric_detection(*as_numpy)
        assert estimated == evaluate_symmetric_detection(*as_ints)
        assert estimated.std_error == pytest.approx(0.002474, abs=1e-6)

    @pytest.mark.parametrize("count", [1.5, 1.0, np.float64(1.0), "1"])
    def test_non_integer_count_is_rejected_by_name(self, count):
        with pytest.raises(ValidationError, match="pm must be an integer"):
            CoincidenceCounters(2, 1, count)

    def test_singles_rollups(self):
        counters = CoincidenceCounters(
            n_emitted=45, pp=1, pm=2, mp=3, mm=4, pz=5, zp=6, mz=7, zm=8, zz=9
        )
        assert counters.coincidences == 10


class TestMergeCounters:
    def test_halves_merge_to_whole(self):
        dist = qm.event_distribution(0.0, 120.0, GEOM_F1)
        n = 2 * mc.CHUNK_EMISSIONS
        full = sample_pair_events(dist, n, seed=77)
        sizes = chunk_counts(n)
        halves = [
            CoincidenceCounters(size, *(int(x) for x in sample_chunk(dist, 77, idx, size)))
            for idx, size in enumerate(sizes)
        ]
        assert merge_counters(*halves) == full


class TestPairOrder:
    def test_labels_are_core_pairs(self):
        assert mc.PAIR_LABELS == tuple(core.PAIRS)

    def test_run_and_csv_follow_pair_order(self):
        results = run_experiment(real_plan(1_000, seed=0))
        assert tuple(results) == tuple(core.PAIRS)
        rows = counters_csv(results).splitlines()[1:]
        assert [row.split(",")[0] for row in rows[::9]] == list(core.PAIRS)

    def test_ideal_distribution_reads_the_pair_axes(self):
        quad = SettingsQuad.of(-30.0, 400.0, 12.25, 179.99)
        for label, (x1, x2) in zip(core.PAIRS, quad.pair_axes()):
            dist = mc.distribution_for(qm.IdealSource(), quad, label)
            assert dist == qm.ideal_pair_probabilities(x1 - x2)


class TestRunExperiment:
    def test_four_counter_sets(self):
        results = run_experiment(real_plan(10_000, seed=0))
        assert tuple(results) == mc.PAIR_LABELS
        for counters in results.values():
            assert counters.n_emitted == 10_000

    def test_plan_validation(self):
        with pytest.raises(ValidationError):
            RunPlan(quad=QUAD, pairs_per_setting=0, seed=0, source=qm.IdealSource())

    def test_lhv_point_mass_is_deterministic(self):
        assignment = lhv.DeterministicAssignment(
            Outcome.PLUS, Outcome.PLUS, Outcome.MINUS, Outcome.MINUS
        )
        source = LhvSource(lhv.FourAxisModel.point_mass(assignment))
        plan = RunPlan(quad=QUAD, pairs_per_setting=500, seed=3, source=source)
        for counters in run_experiment(plan).values():
            assert counters.pm == 500

    def test_ideal_source_correlation(self):
        plan = RunPlan(quad=QUAD, pairs_per_setting=100_000, seed=5,
                       source=qm.IdealSource())
        counters = run_experiment(plan)["ab"]
        n = counters.n_emitted
        estimate = (counters.pp - counters.pm - counters.mp + counters.mm) / n
        sigma = math.sqrt((1 - 0.25) / n)
        assert abs(estimate - (-0.5)) < 5 * sigma


class TestEvaluateSymmetricDetection:
    def test_counts_scaling_keeps_lhs(self):
        results = run_experiment(real_plan(200_000, seed=11))
        cross = merge_counters(results["ab"], results["bpa"], results["bap"])
        primed = results["apbp"]
        base = evaluate_symmetric_detection(cross, primed)

        def scale(c):
            return CoincidenceCounters(c.n_emitted * 10, *(x * 10 for x in c.cells()))

        scaled = evaluate_symmetric_detection(scale(cross), scale(primed))
        assert scaled.report.lhs == base.report.lhs
        assert scaled.std_error < base.std_error

    def test_close_to_analytic(self):
        results = run_experiment(real_plan(1_000_000, seed=2))
        cross = merge_counters(results["ab"], results["bpa"], results["bap"])
        estimated = evaluate_symmetric_detection(cross, results["apbp"])
        assert abs(estimated.report.lhs - (-1.5)) < 5 * estimated.std_error

    def test_lhv_uniform_margin(self):
        source = LhvSource(lhv.FourAxisModel.uniform())
        plan = RunPlan(quad=QUAD, pairs_per_setting=1_000_000, seed=13, source=source)
        results = run_experiment(plan)
        cross = merge_counters(results["ab"], results["bpa"], results["bap"])
        estimated = evaluate_symmetric_detection(cross, results["apbp"])
        assert estimated.report.margin >= -3 * estimated.std_error

    def test_insufficient_statistics(self):
        with pytest.raises(InsufficientStatisticsError):
            evaluate_symmetric_detection(point_mass_counters(100), point_mass_counters(100))

    def test_zero_variance_tight_counts(self):
        # anticorrelated deterministic counts sit exactly on the bound
        tight = point_mass_counters(100, cell="pm")
        estimated = evaluate_symmetric_detection(tight, tight)
        assert estimated.report.lhs == -1.0
        assert estimated.std_error == 0.0
        assert estimated.sigma_distance == 0.0

    def test_zero_variance_far_from_bound(self):
        aligned = point_mass_counters(100, cell="pp")
        estimated = evaluate_symmetric_detection(aligned, aligned)
        assert estimated.report.lhs == 3.0
        assert estimated.std_error == 0.0
        assert estimated.sigma_distance == math.inf

    def test_two_vertex_local_model_fools_the_ratio_estimate(self):
        # A local model: its per-emission functional satisfies the -1 bound,
        # but it breaks the ratio estimate's assumptions (the merged cross
        # pairs differ, and detection depends on the settings), so the
        # estimate reads a "violation" at -3.
        weights = [0.0] * 81
        for key in ("++00", "+-0-"):
            weights[lhv.assignment_index(lhv.DeterministicAssignment.from_key(key))] = 0.5
        model = lhv.FourAxisModel(tuple(weights))
        assert lhv.mixture_functional(model) == 0.0
        plan = RunPlan(quad=QUAD, pairs_per_setting=100_000, seed=0, source=LhvSource(model))
        results = run_experiment(plan)
        cross = merge_counters(results["ab"], results["bpa"], results["bap"])
        estimated = evaluate_symmetric_detection(cross, results["apbp"])
        assert estimated.report.lhs == -3.0
        assert estimated.report.violated
        assert estimated.std_error == 0.0

    def test_error_bars_are_calibrated(self):
        # The default qm-real mc plan at n = 1e5 over seeds 0-999, fixed in
        # advance: the delta-method error must cover the closed-form lhs as
        # a standard error does.
        source = qm.RealSource(qm.CascadeGeometry(eta=0.2, phi_deg=30.0))
        exact = FORMS["detection-sym"].evaluate(QUAD, source).lhs
        z_scores = []
        for seed in range(1000):
            plan = RunPlan(quad=QUAD, pairs_per_setting=100_000, seed=seed, source=source)
            results = run_experiment(plan)
            cross = merge_counters(results["ab"], results["bpa"], results["bap"])
            estimated = evaluate_symmetric_detection(cross, results["apbp"])
            z_scores.append((estimated.report.lhs - exact) / estimated.std_error)
        z = np.asarray(z_scores)
        assert 0.93 <= float(np.mean(np.abs(z) <= 2.0)) <= 0.98
        assert 0.9 <= float(np.std(z, ddof=1)) <= 1.1

    def test_delta_error_matches_empirical_spread(self):
        values = []
        deltas = []
        for seed in range(100):
            results = run_experiment(real_plan(100_000, seed=seed))
            cross = merge_counters(results["ab"], results["bpa"], results["bap"])
            estimated = evaluate_symmetric_detection(cross, results["apbp"])
            values.append(estimated.report.lhs)
            deltas.append(estimated.std_error)
        empirical = float(np.std(np.asarray(values), ddof=1))
        typical_delta = float(np.mean(np.asarray(deltas)))
        assert typical_delta < 2 * empirical
        assert empirical < 2 * typical_delta

    def test_bootstrap_agrees_with_delta(self):
        results = run_experiment(real_plan(500_000, seed=17))
        cross = merge_counters(results["ab"], results["bpa"], results["bap"])
        primed = results["apbp"]
        estimated = evaluate_symmetric_detection(cross, primed)
        boot = mc.bootstrap_std_error(cross, primed, resamples=400, seed=17)
        assert boot < 2 * estimated.std_error
        assert estimated.std_error < 2 * boot

    def test_error_shrinks_like_root_n(self):
        previous_sigma = None
        for n in (10_000, 1_000_000, 100_000_000):
            results = run_experiment(real_plan(n, seed=29))
            cross = merge_counters(results["ab"], results["bpa"], results["bap"])
            estimated = evaluate_symmetric_detection(cross, results["apbp"])
            assert abs(estimated.report.lhs - (-1.5)) <= 3 * estimated.std_error
            if previous_sigma is not None:
                shrink = previous_sigma / estimated.std_error
                assert 10 / 3 < shrink < 30  # root-100 within a factor of 3
            previous_sigma = estimated.std_error


class TestDumps:
    def test_counters_csv_shape_and_stability(self):
        results = run_experiment(real_plan(50_000, seed=41))
        text = counters_csv(results)
        again = counters_csv(run_experiment(real_plan(50_000, seed=41)))
        assert text == again
        lines = text.strip().split("\n")
        assert lines[0] == "pair,cell,count"
        assert len(lines) == 1 + 4 * 9
        assert lines[1].startswith("ab,pp,")
        assert lines[9].startswith("ab,00,")

    def test_manifest_echoes_a_numpy_geometry_as_floats(self):
        counters = {label: point_mass_counters(10) for label in mc.PAIR_LABELS}

        def manifest(*geometry):
            source = qm.RealSource(qm.CascadeGeometry(*geometry))
            return run_manifest(RunPlan(QUAD, 10, 0, source), counters)

        text = manifest(0.2, 30.0, 1.0)
        assert manifest(np.float64(0.2), np.float64(30.0), np.float64(1.0)) == text
        assert "source=qm-real eta=0.2 phi_deg=30.0 f_override=1.0\n" in text

    def test_manifest_stability(self):
        plan = real_plan(50_000, seed=41)
        results = run_experiment(plan)
        text = run_manifest(plan, results)
        assert text == run_manifest(plan, run_experiment(plan))
        assert text.startswith("belltest run manifest\n")
        assert "pairs_per_setting=50000" in text
        assert "seed=41" in text
        assert f"chunk_emissions={mc.CHUNK_EMISSIONS}" in text
