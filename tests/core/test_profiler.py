"""Tests for the pre-deployment profiler."""

import hashlib

import pytest

import repro
from repro.core import PredeploymentProfiler
from repro.errors import ProfilingError
from repro.gemm import DEFAULT_TILE_CONFIGS, GemmProblem, TileConfig
from repro.gpu import A100, T4, compute_occupancy

#: 64 warps (2048 threads) per block: more than any SM holds.
UNSCHEDULABLE_TILE = TileConfig(mb=256, nb=256, kb=32, mw=32, nw=32, mt=4, nt=8)

#: SHA-256 over every model's ``DeploymentPlan.to_json()``, in
#: ``repro.list_models()`` order, per (device, policy) cell of the plan
#: benchmark's grid, plus uniform ``fixed:`` policies on T4.  Recorded
#: before the profiler memoized anything (the fixed rows before fixed
#: plans shared the guided selection's code); a tile choice or modeled
#: time that moves by one ULP changes a digest.
PLAN_GRID_DIGESTS = {
    ("A100", "guided"): "dcd5600b39bfd026f0158cc279ddc33298518684adeb6ee5a4ba1c9b6c1aba5e",
    ("Jetson-AGX-Xavier", "guided"): "ad037701c5981edcf64bee2a56dc62279f35b0abb49a39b2091680544bf93e84",
    ("P4", "guided"): "3da88f5e9e345eb1331e5e3d6f61b1135d8586e2eff6f7fbdf00d9362cd7af3d",
    ("T4", "guided"): "a324cfae6bd65519c1c2902fa9f2d84961c100a3d0e3671a8e87fa644c2e78ab",
    ("V100", "guided"): "e01d505861dabc4b31cfca1f7a78fd6cec834906cd273e057bc5819ed2c7955b",
    ("T4", "guided@int8"): "29939396c69c4da4bf7f03f3694982bb753b4418ba4090ce66bb2d0aec0beb1a",
    ("A100", "guided@int8"): "246f098ad55aab0dcc19af2f195211ad7dcaea08e86e58b9b78b1ab460a0dc1d",
    ("Jetson-AGX-Xavier", "guided@int8"): "103562d1e58624c3f3e69b0bf1843f381ef0ab96153dad262915d6d9f72a3e64",
    ("T4", "fixed:global"): "5f44af4132a868fe0314c0fa0eed49042fa6e92db7a7b863f0a83d0a5264057a",
    ("T4", "fixed:thread_onesided"): "e8f8aef08b19554145c29b91dc782e6942fedb7bacd0317efb19d3d456ad4b3e",
    ("T4", "fixed:global_multi:2"): "daac7b54c1d1a91fcf8020af104c54df212c73b98759c38ec0934e6f09ff428d",
    ("T4", "fixed:replication_traditional"): "7eb7722b2a47099d9e66a1649133dc29caaca920f0f40fad97c0e415dcc55a16",
    ("T4", "fixed:global@int8"): "6e96759917bd04428f766afe0151ef7dc16a372fd4e73f3ad8aba78a551e8e0e",
}


@pytest.fixture
def profiler():
    return PredeploymentProfiler(T4)


class TestProfiling:
    def test_profiles_baseline_plus_schemes(self, profiler):
        entries = profiler.profile(GemmProblem(256, 256, 256))
        assert set(entries) == {"none", "global", "thread_onesided"}

    def test_baseline_is_fastest(self, profiler):
        # Redundant execution can never be faster than no protection
        # under the same enumeration.
        entries = profiler.profile(GemmProblem(256, 256, 256))
        assert all(
            entries["none"].time_s <= e.time_s
            for name, e in entries.items() if name != "none"
        )

    def test_best_tile_minimizes_time(self, profiler):
        p = GemmProblem(512, 512, 512)
        best = profiler.profile(p)["none"]
        for tile in DEFAULT_TILE_CONFIGS:
            from repro.abft import get_scheme

            plan = get_scheme("none").plan(p, tile)
            assert best.time_s <= plan.modeled_time(T4) + 1e-15

    def test_baseline_can_differ_in_tile_from_scheme(self, profiler):
        # The enumeration is per-scheme; at minimum the entries carry
        # their own tile choices.
        entries = profiler.profile(GemmProblem(64, 2048, 64))
        assert entries["none"].tile is not None
        assert entries["thread_onesided"].tile is not None

    def test_cache_by_shape(self, profiler):
        a = profiler.profile(GemmProblem(128, 128, 128, label="x"))
        b = profiler.profile(GemmProblem(128, 128, 128, label="y"))
        assert a is b  # same dict object: cached by (M, N, K)

    def test_scheme_time_accessor(self, profiler):
        p = GemmProblem(128, 128, 128)
        assert profiler.scheme_time(p, "global") == profiler.profile(p)["global"].time_s

    def test_unknown_scheme_time_raises(self, profiler):
        with pytest.raises(ProfilingError):
            profiler.scheme_time(GemmProblem(8, 8, 8), "nonexistent")

    def test_empty_schemes_rejected(self):
        with pytest.raises(ProfilingError):
            PredeploymentProfiler(T4, schemes=())

    def test_empty_tiles_rejected(self):
        with pytest.raises(ProfilingError):
            PredeploymentProfiler(T4, tiles=())

    def test_scheme_instances_accepted(self):
        from repro.abft import GlobalABFT

        prof = PredeploymentProfiler(T4, schemes=[GlobalABFT()])
        entries = prof.profile(GemmProblem(64, 64, 64))
        assert "global" in entries


class TestPlanGridGolden:
    def test_grid_covers_every_device(self):
        fp16 = {gpu for gpu, policy in PLAN_GRID_DIGESTS if policy == "guided"}
        assert fp16 == set(repro.list_gpus())
        assert len(repro.list_models()) == 16

    @pytest.mark.parametrize("gpu, policy", sorted(PLAN_GRID_DIGESTS))
    def test_plans_are_bit_identical(self, gpu, policy):
        digest = hashlib.sha256()
        for model in repro.list_models():
            digest.update(repro.deploy(model, gpu, policy=policy).plan.to_json().encode())
        assert digest.hexdigest() == PLAN_GRID_DIGESTS[(gpu, policy)]


class TestDeviceTable:
    def test_unschedulable_tile_raises_every_time(self):
        prof = PredeploymentProfiler(T4, tiles=[UNSCHEDULABLE_TILE])
        for _ in range(2):
            with pytest.raises(ProfilingError, match="no tile configuration"):
                prof.profile(GemmProblem(512, 512, 512))
        assert prof._device._occupancy == {}

    def test_unschedulable_tile_is_skipped_not_chosen(self):
        tiles = [UNSCHEDULABLE_TILE, *DEFAULT_TILE_CONFIGS]
        p = GemmProblem(512, 512, 512)
        entries = PredeploymentProfiler(T4, tiles=tiles).profile(p)
        reference = PredeploymentProfiler(T4).profile(p)
        assert {k: e.time_s for k, e in entries.items()} == {
            k: e.time_s for k, e in reference.items()
        }

    def test_profilers_share_no_entries(self):
        p = GemmProblem(256, 512, 1024)
        t4, a100, t4_again = (PredeploymentProfiler(s) for s in (T4, A100, T4))
        for prof in (t4, a100, t4_again):
            prof.profile(p)
        tables = [prof._device for prof in (t4, a100, t4_again)]
        assert len({id(t._occupancy) for t in tables}) == 3
        for table in tables:
            assert table._occupancy
            for (threads, regs, smem), occ in table._occupancy.items():
                assert occ == compute_occupancy(
                    table.spec,
                    threads_per_block=threads,
                    registers_per_thread=regs,
                    smem_per_block=smem,
                )

    def test_entries_match_unmemoized_pricing(self):
        from repro.abft import get_scheme

        prof = PredeploymentProfiler(T4)
        p = GemmProblem(96, 4096, 1024)
        for name, entry in prof.profile(p).items():
            plan = get_scheme(name).plan(p, entry.tile)
            assert entry.plan == plan
            assert entry.time_s == plan.modeled_time(T4)
