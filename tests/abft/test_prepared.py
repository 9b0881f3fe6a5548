"""Prepared-execution engine tests.

The contract: for every scheme, ``prepare(a, b).inject(faults)`` must be
*bit-identical* to ``execute(a, b, faults=...)`` — same ``c``, same
``c_accumulator``, same verdict — across clean runs, original-path
faults, and checksum-path faults.  And the amortization must be real:
prepared state is built once, injections never re-run the clean GEMM or
the operand-side reductions.
"""

import numpy as np
import pytest

from repro.abft import (
    MultiChecksumGlobalABFT,
    PreparedCache,
    get_scheme,
    list_schemes,
    scheme_from_token,
)
from repro.abft.base import _digest
from repro.errors import ConfigurationError, FaultInjectionError, ShapeError
from repro.faults import (
    CampaignOptions,
    FaultCampaign,
    FaultKind,
    FaultPath,
    FaultSpec,
)
from repro.gemm import EXECUTION_STATS, TileConfig

ALL_SCHEMES = list_schemes() + ["global_multi"]

FAULT_CASES = {
    "clean": (),
    "original_add": (FaultSpec(row=3, col=5, kind=FaultKind.ADD, value=25.0),),
    "original_bitflip": (
        FaultSpec(row=0, col=0, kind=FaultKind.BITFLIP_FP32, bit=27),
    ),
    "checksum_add": (
        FaultSpec(row=2, col=2, kind=FaultKind.ADD, value=25.0,
                  path=FaultPath.CHECKSUM),
    ),
    "mixed": (
        FaultSpec(row=1, col=1, kind=FaultKind.ADD, value=30.0),
        FaultSpec(row=4, col=7, kind=FaultKind.ADD, value=-12.0,
                  path=FaultPath.CHECKSUM),
    ),
}


def make_scheme(name):
    if name == "global_multi":
        return MultiChecksumGlobalABFT(num_checksums=2)
    return get_scheme(name)


def assert_outcomes_identical(direct, prepared):
    assert direct.scheme == prepared.scheme
    assert np.array_equal(direct.c, prepared.c, equal_nan=True)
    assert np.array_equal(
        direct.c_accumulator, prepared.c_accumulator, equal_nan=True
    )
    assert direct.verdict == prepared.verdict
    assert direct.injected == prepared.injected


class TestPreparedVsDirect:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    @pytest.mark.parametrize("case", sorted(FAULT_CASES))
    def test_inject_bit_identical_to_execute(self, name, case, small_operands):
        a, b = small_operands
        faults = FAULT_CASES[case]
        scheme = make_scheme(name)
        direct = scheme.execute(a, b, faults=faults)
        via_prepare = make_scheme(name).prepare(a, b).inject(faults)
        assert_outcomes_identical(direct, via_prepare)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_repeated_injections_are_independent(self, name, small_operands):
        """A faulted trial must not leak into a later clean trial."""
        a, b = small_operands
        scheme = make_scheme(name)
        prepared = scheme.prepare(a, b)
        clean_before = prepared.inject()
        prepared.inject(FAULT_CASES["original_bitflip"])
        prepared.inject(FAULT_CASES["mixed"])
        clean_after = prepared.inject()
        assert_outcomes_identical(clean_before, clean_after)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_explicit_tile_respected(self, name, small_operands, small_tile):
        a, b = small_operands
        scheme = make_scheme(name)
        direct = scheme.execute(a, b, tile=small_tile,
                                faults=FAULT_CASES["original_add"])
        prepared = scheme.prepare(a, b, tile=small_tile)
        assert prepared.tile == small_tile
        assert_outcomes_identical(
            direct, prepared.inject(FAULT_CASES["original_add"])
        )

    def test_int8_outcome_ignores_later_padding_on_its_executor(
        self, small_operands
    ):
        # The outcome lowers lazily; padding another activation on the
        # same executor in between must not change the scale it uses.
        a, b = small_operands
        scheme = scheme_from_token("global@int8")
        prepared = scheme.prepare(a, b)
        outcome = prepared.inject(FAULT_CASES["original_add"])
        prepared.executor.pad_a(8 * a)
        fresh = scheme.prepare(a, b).inject(FAULT_CASES["original_add"])
        assert np.array_equal(outcome.c, fresh.c)


class TestInjectBatch:
    """The batched engine: one inject_batch call == N sequential injects."""

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_batch_matches_sequential(self, name, small_operands):
        a, b = small_operands
        prepared = make_scheme(name).prepare(a, b)
        trials = [FAULT_CASES[case] for case in sorted(FAULT_CASES)]
        batch = prepared.inject_batch(trials)
        for faults, outcome in zip(trials, batch):
            assert_outcomes_identical(prepared.inject(faults), outcome)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_batch_keeps_fault_invariant_work_amortized(self, name, small_operands):
        a, b = small_operands
        prepared = make_scheme(name).prepare(a, b)
        EXECUTION_STATS.reset()
        prepared.inject_batch([FAULT_CASES["original_add"]] * 20)
        assert EXECUTION_STATS.snapshot() == (0, 0, 0)

    def test_empty_batch(self, small_operands):
        a, b = small_operands
        assert get_scheme("global").prepare(a, b).inject_batch([]) == []

    def test_trials_are_independent(self, small_operands):
        """A fault in trial i must not leak into trial j's accumulator."""
        a, b = small_operands
        prepared = get_scheme("global").prepare(a, b)
        clean, faulty, clean_again = prepared.inject_batch(
            [(), FAULT_CASES["original_bitflip"], ()]
        )
        assert_outcomes_identical(clean, clean_again)
        assert not clean.detected
        assert faulty.detected

    def test_multiple_faults_per_trial_apply_in_order(self, small_operands):
        """SET-then-ADD differs from ADD-then-SET; the batched rounds
        must preserve each trial's sequential application order."""
        a, b = small_operands
        prepared = get_scheme("global").prepare(a, b)
        set_spec = FaultSpec(row=0, col=0, kind=FaultKind.SET, value=7.0)
        add_spec = FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0)
        set_then_add, add_then_set = prepared.inject_batch(
            [(set_spec, add_spec), (add_spec, set_spec)]
        )
        assert float(set_then_add.c_accumulator[0, 0]) == 107.0
        assert float(add_then_set.c_accumulator[0, 0]) == 7.0
        for faults in [(set_spec, add_spec), (add_spec, set_spec)]:
            sequential = prepared.inject(faults)
            batched = prepared.inject_batch([faults])[0]
            assert_outcomes_identical(sequential, batched)

    def test_out_of_bounds_site_rejected(self, small_operands):
        a, b = small_operands
        prepared = get_scheme("global").prepare(a, b)
        rows, _ = prepared.c_clean.shape
        with pytest.raises(FaultInjectionError):
            prepared.inject_batch(
                [(FaultSpec(row=rows + 5, col=0, kind=FaultKind.ADD, value=1.0),)]
            )


class TestChecksumPathBounds:
    """A checksum-path site selects the check it corrupts, so it is
    bounds-checked against the padded grid like an original-path one —
    never clamped onto the last check."""

    @pytest.mark.parametrize("dtype", ["fp16", "int8"])
    @pytest.mark.parametrize(
        "token",
        [
            "global",
            "thread_onesided",
            "thread_twosided",
            "replication_single",
            "replication_traditional",
            "global_multi:2",
        ],
    )
    @pytest.mark.parametrize("edge", ["row", "col"])
    def test_out_of_range_checksum_site_rejected(self, token, dtype, edge):
        rng = np.random.default_rng(0)
        a = (rng.standard_normal((30, 36)) * 0.5).astype(np.float16)
        b = (rng.standard_normal((36, 22)) * 0.5).astype(np.float16)
        suffix = "" if dtype == "fp16" else "@int8"
        prepared = scheme_from_token(token + suffix).prepare(a, b)
        m_full, n_full = prepared.c_clean.shape
        row, col = (m_full, 0) if edge == "row" else (0, n_full)
        spec = FaultSpec(
            row=row, col=col, kind=FaultKind.ADD, value=1.0,
            path=FaultPath.CHECKSUM,
        )
        with pytest.raises(FaultInjectionError, match="outside accumulator"):
            prepared.inject_batch([(spec,)])
        # The last in-range site still corrupts the last check.
        last = FaultSpec(
            row=m_full - 1, col=n_full - 1, kind=FaultKind.ADD, value=1e4,
            path=FaultPath.CHECKSUM,
        )
        assert prepared.inject((last,)).detected


class TestPreparedWeights:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    @pytest.mark.parametrize("case", ["clean", "original_add", "checksum_add"])
    def test_cached_weights_bit_identical(self, name, case, small_operands):
        a, b = small_operands
        faults = FAULT_CASES[case]
        scheme = make_scheme(name)
        direct = scheme.execute(a, b, faults=faults)
        weights = scheme.prepare_weights(b, m=a.shape[0])
        cached = scheme.execute(a, b, faults=faults, weights=weights)
        assert_outcomes_identical(direct, cached)

    def test_weights_skip_weight_side_reductions(self, small_operands):
        a, b = small_operands
        scheme = get_scheme("global")
        weights = scheme.prepare_weights(b, m=a.shape[0])
        EXECUTION_STATS.reset()
        scheme.execute(a, b, weights=weights)
        assert EXECUTION_STATS.weight_reductions == 0
        assert EXECUTION_STATS.activation_reductions == 1
        assert EXECUTION_STATS.gemms == 1

    def test_scheme_mismatch_rejected(self, small_operands):
        a, b = small_operands
        weights = get_scheme("global").prepare_weights(b, m=a.shape[0])
        with pytest.raises(ConfigurationError):
            get_scheme("thread_onesided").execute(a, b, weights=weights)

    def test_weight_shape_mismatch_rejected(self, small_operands):
        a, b = small_operands
        weights = get_scheme("global").prepare_weights(b[:, :-8], m=a.shape[0])
        with pytest.raises(ShapeError):
            get_scheme("global").execute(a, b, weights=weights)

    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_weights_are_m_independent(self, name, small_operands, rng):
        """One weight-side entry serves a different activation row count,
        bit-identically to uncached execution at the pinned tile."""
        a, b = small_operands
        scheme = make_scheme(name)
        weights = scheme.prepare_weights(b, m=a.shape[0])
        other_a = (rng.standard_normal((a.shape[0] + 24, a.shape[1])) * 0.5).astype(
            np.float16
        )
        cached = scheme.execute(
            other_a, b, faults=FAULT_CASES["original_add"], weights=weights
        )
        direct = make_scheme(name).execute(
            other_a, b, tile=weights.tile, faults=FAULT_CASES["original_add"]
        )
        assert_outcomes_identical(direct, cached)

    def test_weights_need_m_or_tile(self, small_operands):
        _, b = small_operands
        with pytest.raises(ConfigurationError):
            get_scheme("global").prepare_weights(b)

    def test_weights_from_explicit_tile_need_no_m(self, small_operands, small_tile):
        a, b = small_operands
        scheme = get_scheme("global")
        weights = scheme.prepare_weights(b, tile=small_tile)
        direct = scheme.execute(a, b, tile=small_tile)
        cached = scheme.execute(a, b, weights=weights)
        assert_outcomes_identical(direct, cached)

    def test_multi_checksum_count_mismatch_rejected(self, small_operands):
        a, b = small_operands
        weights = MultiChecksumGlobalABFT(2).prepare_weights(b, m=a.shape[0])
        with pytest.raises(ConfigurationError):
            MultiChecksumGlobalABFT(4).execute(a, b, weights=weights)
        with pytest.raises(ConfigurationError):
            MultiChecksumGlobalABFT(1).execute(a, b, weights=weights)

    def test_tile_override_mismatch_rejected(self, small_operands):
        a, b = small_operands
        scheme = get_scheme("global")
        weights = scheme.prepare_weights(b, m=a.shape[0])
        other = TileConfig(mb=64, nb=32, kb=32, mw=32, nw=16, mt=4, nt=4)
        assert weights.tile != other
        with pytest.raises(ConfigurationError):
            scheme.execute(a, b, tile=other, weights=weights)


class TestAmortization:
    """The acceptance criterion: N trials, one clean GEMM, one reduction."""

    def test_prepare_once_inject_many(self, small_operands):
        a, b = small_operands
        scheme = get_scheme("thread_onesided")
        EXECUTION_STATS.reset()
        prepared = scheme.prepare(a, b)
        assert EXECUTION_STATS.snapshot() == (1, 1, 1)
        for _ in range(10):
            prepared.inject(FAULT_CASES["original_add"])
        assert EXECUTION_STATS.snapshot() == (1, 1, 1)

    @pytest.mark.parametrize("name", ["global", "thread_twosided"])
    def test_campaign_amortizes_fault_invariant_work(self, name, rng):
        a = (rng.standard_normal((48, 32)) * 0.5).astype(np.float16)
        b = (rng.standard_normal((32, 40)) * 0.5).astype(np.float16)
        EXECUTION_STATS.reset()
        campaign = FaultCampaign(get_scheme(name), a, b, seed=5)
        result = campaign.run_batch(25)
        assert result.n_trials == 25
        # One clean GEMM and one operand-checksum build for the whole
        # campaign — construction included.
        assert EXECUTION_STATS.gemms == 1
        assert EXECUTION_STATS.weight_reductions == 1
        assert EXECUTION_STATS.activation_reductions == 1


class TestDigest:
    """The operand key ``PreparedCache`` looks entries up by."""

    @pytest.fixture
    def a(self):
        return (
            np.random.default_rng(5).standard_normal((12, 10))
        ).astype(np.float16)

    def test_equal_bytes_give_equal_keys(self, a):
        key = _digest(a)
        assert len(key) == 16
        assert _digest(a.copy()) == key
        changed = a.copy()
        changed[3, 4] += 1
        assert _digest(changed) != key

    def test_view_keys_like_its_contiguous_copy(self, a):
        view = a[::2, 1::3]
        assert not view.flags.c_contiguous
        assert _digest(view) == _digest(np.ascontiguousarray(view))
        assert _digest(a.T) == _digest(np.ascontiguousarray(a.T))

    def test_dtype_and_shape_are_part_of_the_key(self, a):
        key = _digest(a)
        assert _digest(a.view(np.uint16)) != key
        assert _digest(a.reshape(-1)) != key
        assert _digest(a.reshape(10, 12)) != key


class TestPreparedCache:
    """Cross-campaign amortization: one prepared state per sweep."""

    def test_campaign_sweep_runs_one_clean_gemm(self, small_operands):
        """The acceptance criterion: >= 3 campaigns over one problem
        through a shared cache prepare exactly once."""
        a, b = small_operands
        cache = PreparedCache()
        EXECUTION_STATS.reset()
        for significance in (2.0, 4.0, 8.0):
            campaign = FaultCampaign(
                get_scheme("global"), a, b,
                significance_factor=significance,
                options=CampaignOptions(cache=cache),
            )
            result = campaign.run_batch(10)
            assert result.n_trials == 10
        assert EXECUTION_STATS.gemms == 1
        assert EXECUTION_STATS.weight_reductions == 1
        assert EXECUTION_STATS.activation_reductions == 1
        assert cache.misses == 1 and cache.hits == 2 and len(cache) == 1

    def test_cached_campaign_bit_identical_to_private_prepare(
        self, small_operands
    ):
        a, b = small_operands
        specs = [
            FaultSpec(row=0, col=0, kind=FaultKind.ADD, value=100.0),
            FaultSpec(row=2, col=2, kind=FaultKind.BITFLIP_FP32, bit=27),
        ]
        private = FaultCampaign(get_scheme("thread_onesided"), a, b).run(
            0, specs=specs
        )
        cache = PreparedCache()
        FaultCampaign(
            get_scheme("thread_onesided"), a, b,
            options=CampaignOptions(cache=cache),
        )
        cached = FaultCampaign(
            get_scheme("thread_onesided"), a, b,
            options=CampaignOptions(cache=cache),
        ).run(0, specs=specs)
        assert cache.hits == 1
        assert private.trials == cached.trials

    def test_distinct_problems_get_distinct_entries(self, small_operands, rng):
        a, b = small_operands
        other_a = (rng.standard_normal(a.shape) * 0.5).astype(np.float16)
        cache = PreparedCache()
        scheme = get_scheme("global")
        first = cache.get(scheme, a, b)
        assert cache.get(scheme, a, b) is first
        assert cache.get(scheme, other_a, b) is not first
        assert cache.get(get_scheme("thread_onesided"), a, b) is not first
        assert len(cache) == 3

    def test_multi_checksum_count_distinguishes_entries(self, small_operands):
        """global_multi's prepared state depends on r; the cache must
        not hand an r=2 state to an r=4 scheme."""
        a, b = small_operands
        cache = PreparedCache()
        two = cache.get(MultiChecksumGlobalABFT(2), a, b)
        four = cache.get(MultiChecksumGlobalABFT(4), a, b)
        assert two is not four
        # Equal r from a different instance hits.
        assert cache.get(MultiChecksumGlobalABFT(2), a, b) is two

    def test_default_tile_and_explicit_selected_tile_share_an_entry(
        self, small_operands
    ):
        """The key carries the *resolved* tile, so passing the tile
        select_tile would pick anyway deduplicates with the default."""
        a, b = small_operands
        cache = PreparedCache()
        scheme = get_scheme("global")
        implicit = cache.get(scheme, a, b)
        assert cache.get(scheme, a, b, tile=implicit.tile) is implicit
        assert len(cache) == 1

    def test_lru_eviction(self, small_operands, rng):
        a, b = small_operands
        other_a = (rng.standard_normal(a.shape) * 0.5).astype(np.float16)
        third_a = (rng.standard_normal(a.shape) * 0.5).astype(np.float16)
        cache = PreparedCache(maxsize=2)
        scheme = get_scheme("global")
        first = cache.get(scheme, a, b)
        cache.get(scheme, other_a, b)
        cache.get(scheme, a, b)  # refresh: other_a is now LRU
        cache.get(scheme, third_a, b)
        assert len(cache) == 2
        assert cache.get(scheme, a, b) is first  # survived
        with pytest.raises(ConfigurationError):
            PreparedCache(maxsize=0)

    def test_prepared_weights_resolve_to_the_plain_entry(self, small_operands):
        """get(..., weights=...) pins the weight state's tile for the
        key and skips the weight-side reductions on a miss — and the
        entry is shared with plain gets over the same operands."""
        a, b = small_operands
        cache = PreparedCache()
        scheme = get_scheme("global")
        weights = scheme.prepare_weights(b, m=a.shape[0])

        EXECUTION_STATS.reset()
        through_weights = cache.get(scheme, a, b, weights=weights)
        assert EXECUTION_STATS.weight_reductions == 0
        assert cache.get(scheme, a, b) is through_weights
        assert len(cache) == 1 and cache.hits == 1

    def test_get_through_weights_digests_only_the_activations(
        self, small_operands, monkeypatch
    ):
        """The weights are hashed once, when their prepared state is
        built; a get passed that state hashes ``a`` alone, hit or miss."""
        import repro.abft.base as base

        a, b = small_operands
        scheme = get_scheme("global")
        weights = scheme.prepare_weights(b, m=a.shape[0])
        digested = []
        real_digest = base._digest

        def spy(arr):
            digested.append(arr)
            return real_digest(arr)

        monkeypatch.setattr(base, "_digest", spy)
        cache = PreparedCache()
        cache.get(scheme, a, b, weights=weights)
        cache.get(scheme, a, b, weights=weights)
        assert len(digested) == 2
        assert all(arr is a for arr in digested)
        assert cache.hits == 1 and cache.misses == 1

    def test_mutated_operands_miss(self, small_operands):
        """Content digests, not identities: mutating an operand after a
        cached hit must produce a fresh entry, never stale state."""
        a, b = small_operands
        cache = PreparedCache()
        scheme = get_scheme("global")
        first = cache.get(scheme, a, b)
        a2 = a.copy()
        a2[0, 0] += np.float16(1.0)
        assert cache.get(scheme, a2, b) is not first
        assert cache.misses == 2


class TestPreparedCacheThreadSafety:
    """The lock-guarded cache under concurrent getters (DESIGN.md §3).

    Racing getters of one key must resolve to one shared entry with the
    clean GEMM run exactly once, and mixed-key storms must neither lose
    entries nor corrupt the hit/miss accounting.
    """

    def test_racing_getters_share_one_entry(self, small_operands):
        import threading

        a, b = small_operands
        cache = PreparedCache()
        scheme = get_scheme("global")
        n_threads = 16
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def worker(i):
            try:
                barrier.wait()
                results[i] = cache.get(scheme, a, b)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        EXECUTION_STATS.reset()
        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        first = results[0]
        assert first is not None
        assert all(r is first for r in results)
        assert len(cache) == 1
        assert cache.misses == 1 and cache.hits == n_threads - 1
        # Exactly-once: one clean GEMM across the whole stampede.
        assert EXECUTION_STATS.gemms == 1

    def test_mixed_key_storm_keeps_every_entry_distinct(self, rng):
        from concurrent.futures import ThreadPoolExecutor

        operand_sets = [
            (
                (rng.standard_normal((24, 16)) * 0.5).astype(np.float16),
                (rng.standard_normal((16, 20)) * 0.5).astype(np.float16),
            )
            for _ in range(4)
        ]
        cache = PreparedCache()
        scheme = get_scheme("thread_onesided")
        rounds = 8

        def fetch(idx):
            a, b = operand_sets[idx % len(operand_sets)]
            return idx % len(operand_sets), cache.get(scheme, a, b)

        with ThreadPoolExecutor(max_workers=8) as pool:
            fetched = list(pool.map(fetch, range(len(operand_sets) * rounds)))

        by_key = {}
        for idx, prepared in fetched:
            by_key.setdefault(idx, prepared)
            assert prepared is by_key[idx]
        assert len(by_key) == len(operand_sets)
        assert len(cache) == len(operand_sets)
        assert cache.misses == len(operand_sets)
        assert cache.hits == len(operand_sets) * (rounds - 1)
