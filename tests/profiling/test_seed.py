"""Deterministic sampling: explicit seeds, and jobs-independence."""

from repro.ir import parse_unit
from repro.pgo import profile_many
from repro.profiling.sampler import collect_samples, sample_phase_for
from repro.workloads.kernels import eon_loop, fig4_loop, hash_bench


class TestSamplePhase:
    def test_none_seed_keeps_the_historical_phase_zero(self):
        assert sample_phase_for(None, 1000) == 0

    def test_phase_is_a_pure_function_of_seed_and_period(self):
        assert sample_phase_for(7, 1000) == sample_phase_for(7, 1000)
        assert sample_phase_for(7, 1000) != sample_phase_for(8, 1000) \
            or sample_phase_for(7, 500) != sample_phase_for(8, 500)

    def test_phase_stays_inside_the_period(self):
        for seed in range(50):
            assert 0 <= sample_phase_for(seed, 97) < 97

    def test_period_one_always_phase_zero(self):
        assert sample_phase_for(12345, 1) == 0


class TestSeededCollection:
    def test_same_seed_reproduces_the_sample_stream(self):
        unit = parse_unit(fig4_loop())
        first = collect_samples(unit, 37, seed=11)
        second = collect_samples(parse_unit(fig4_loop()), 37, seed=11)
        assert first.steps == second.steps
        assert len(first) == len(second)
        assert [id_counts for id_counts in first.counts_by_entry().values()] \
            == [id_counts for id_counts in second.counts_by_entry().values()]

    def test_no_seed_matches_phase_zero_byte_for_byte(self):
        unit = parse_unit(fig4_loop())
        legacy = collect_samples(unit, 37)
        seeded_zero = collect_samples(parse_unit(fig4_loop()), 37, seed=None)
        assert len(legacy) == len(seeded_zero)
        assert legacy.steps == seeded_zero.steps

    def test_different_seeds_can_shift_the_phase(self):
        phases = {sample_phase_for(seed, 1000) for seed in range(20)}
        assert len(phases) > 1


class TestJobsDeterminism:
    def test_profiles_identical_at_jobs_1_and_4(self):
        """The satellite contract: a corpus profiled with one worker and
        with four workers yields byte-identical documents."""
        inputs = [("fig4", fig4_loop()), ("eon", eon_loop()),
                  ("hash", hash_bench()), ("fig4-2", fig4_loop())]
        serial = profile_many(inputs, period=73, seed=5, jobs=1)
        parallel = profile_many(inputs, period=73, seed=5, jobs=4)
        assert serial == parallel
        assert [name for name, _, _ in serial] \
            == [name for name, _ in inputs]
        assert all(error == "" for _, _, error in serial)

    def test_bad_input_reports_error_without_poisoning_the_rest(self):
        results = profile_many([("ok", fig4_loop()), ("bad", "not asm ((")],
                               period=73, jobs=2)
        assert results[0][1] is not None
        assert results[1][1] is None
        assert results[1][2] != ""
