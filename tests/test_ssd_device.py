"""Unit tests for device profiles and the block SSD."""

import dataclasses

import pytest

from repro.sim import Engine, RngStreams
from repro.sim.units import MiB, USEC
from repro.ssd import DC_SSD, BlockSSD, DeviceProfile, TWOB_BASE, ULL_SSD


def make_ssd(profile=ULL_SSD):
    engine = Engine()
    return engine, BlockSSD(engine, profile, RngStreams(11))


class TestProfiles:
    def test_4k_read_latency_calibration(self):
        # Fig. 7(a): ULL ~13.2 us, DC ~6-7x slower.
        assert ULL_SSD.read_latency(4096) == pytest.approx(13.2 * USEC, rel=0.05)
        ratio = DC_SSD.read_latency(4096) / ULL_SSD.read_latency(4096)
        assert 5.5 <= ratio <= 7.5

    def test_4k_write_latency_calibration(self):
        # Fig. 7(b): ULL ~10 us, DC ~17 us (ULL "70% lower").
        assert ULL_SSD.write_latency(4096) == pytest.approx(10 * USEC, rel=0.05)
        assert DC_SSD.write_latency(4096) == pytest.approx(17 * USEC, rel=0.05)

    def test_streaming_bandwidths(self):
        # Fig. 8: ULL saturates PCIe Gen3 x4 (~3.2 GB/s) even at QD1.
        size = 16 * MiB
        ull_read_bw = size / ULL_SSD.read_latency(size)
        assert ull_read_bw == pytest.approx(3.2e9, rel=0.01)
        dc_write_bw = size / DC_SSD.write_latency(size)
        assert dc_write_bw == pytest.approx(1.5e9, rel=0.01)

    def test_twob_block_path_identical_to_ull(self):
        # §V-A: 2B-SSD piggybacks on the ULL-SSD.
        for size in (512, 4096, 65536):
            assert TWOB_BASE.read_latency(size) == ULL_SSD.read_latency(size)
            assert TWOB_BASE.write_latency(size) == ULL_SSD.write_latency(size)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile(
                name="bad", description="", read_base=0, read_bandwidth=1,
                write_base=1, write_bandwidth=1, flush_latency=1,
                fs_sync_overhead=0, cache_bytes=4096, plp_cache=True,
                nand_timing=ULL_SSD.nand_timing, geometry=ULL_SSD.geometry,
            )


class TestBlockSSD:
    def test_write_read_roundtrip(self):
        engine, ssd = make_ssd()

        def scenario():
            yield engine.process(ssd.write(10, b"block-data"))
            return (yield engine.process(ssd.read(10, 10)))

        assert engine.run_process(scenario()) == b"block-data"

    def test_write_latency_matches_profile(self):
        engine, ssd = make_ssd()
        engine.run_process(ssd.write(0, b"x" * 4096))
        assert engine.now == pytest.approx(ULL_SSD.write_latency(4096), rel=0.01)

    def test_multi_page_write_roundtrip(self):
        engine, ssd = make_ssd()
        payload = bytes(range(256)) * 48  # 3 pages

        def scenario():
            yield engine.process(ssd.write(5, payload))
            return (yield engine.process(ssd.read(5, len(payload))))

        assert engine.run_process(scenario()) == payload

    def test_write_larger_than_cache_is_admitted_in_chunks(self):
        page = ULL_SSD.geometry.page_size
        profile = dataclasses.replace(ULL_SSD, cache_bytes=8 * page)
        engine, ssd = make_ssd(profile)
        data = b"".join(bytes([i]) * page for i in range(16))  # 2x the cache
        peak = []

        def scenario():
            writer = engine.process(ssd.write(0, data))
            for _ in range(10_000):
                if writer.processed:
                    break
                peak.append(ssd.dirty_cache_pages)
                yield engine.timeout(USEC)
            assert writer.processed, "write larger than the cache never completed"
            return (yield engine.process(ssd.read(0, len(data))))

        assert engine.run_process(scenario()) == data
        assert max(peak) <= 8
        engine.run_process(ssd.drain())
        assert engine.run_process(ssd.read(0, len(data))) == data

    def test_unwritten_reads_zero(self):
        engine, ssd = make_ssd()
        assert engine.run_process(ssd.read(3, 16)) == bytes(16)

    def test_data_destages_to_nand(self):
        engine, ssd = make_ssd()

        def scenario():
            yield engine.process(ssd.write(7, b"to-nand"))
            yield engine.process(ssd.drain())

        engine.run_process(scenario())
        assert ssd.dirty_cache_pages == 0
        assert ssd.ftl.peek(7)[:7] == b"to-nand"

    def test_read_sees_cache_before_destage(self):
        engine, ssd = make_ssd()

        def scenario():
            yield engine.process(ssd.write(7, b"fresh"))
            # Immediately read back: destage may not have finished.
            return (yield engine.process(ssd.read(7, 5)))

        assert engine.run_process(scenario()) == b"fresh"

    def test_flush_with_plp_is_fast(self):
        engine, ssd = make_ssd()

        def scenario():
            yield engine.process(ssd.write(0, b"x" * 4096))
            start = engine.now
            yield engine.process(ssd.flush())
            return engine.now - start

        flush_time = engine.run_process(scenario())
        assert flush_time == pytest.approx(ULL_SSD.flush_latency, rel=0.01)

    def test_plp_cache_survives_power_loss(self):
        engine, ssd = make_ssd()
        engine.run_process(ssd.write(4, b"acknowledged"))
        ssd.power_loss()
        assert ssd.persisted_page(4)[:12] == b"acknowledged"

    def test_non_plp_cache_lost_on_power_loss(self):
        profile = DeviceProfile(
            name="no-plp", description="consumer drive", read_base=ULL_SSD.read_base,
            read_bandwidth=ULL_SSD.read_bandwidth, write_base=ULL_SSD.write_base,
            write_bandwidth=ULL_SSD.write_bandwidth, flush_latency=ULL_SSD.flush_latency,
            fs_sync_overhead=ULL_SSD.fs_sync_overhead, cache_bytes=ULL_SSD.cache_bytes,
            plp_cache=False, nand_timing=ULL_SSD.nand_timing, geometry=ULL_SSD.geometry,
        )
        engine, ssd = make_ssd(profile)
        engine.run_process(ssd.write(4, b"volatile"))
        ssd.power_loss()
        assert ssd.persisted_page(4) == bytes(4096)

    def test_non_plp_flush_waits_for_destage(self):
        profile = DeviceProfile(
            name="no-plp", description="", read_base=ULL_SSD.read_base,
            read_bandwidth=ULL_SSD.read_bandwidth, write_base=ULL_SSD.write_base,
            write_bandwidth=ULL_SSD.write_bandwidth, flush_latency=ULL_SSD.flush_latency,
            fs_sync_overhead=ULL_SSD.fs_sync_overhead, cache_bytes=ULL_SSD.cache_bytes,
            plp_cache=False, nand_timing=ULL_SSD.nand_timing, geometry=ULL_SSD.geometry,
        )
        engine, ssd = make_ssd(profile)

        def scenario():
            yield engine.process(ssd.write(0, b"x" * 4096))
            yield engine.process(ssd.flush())

        engine.run_process(scenario())
        assert ssd.dirty_cache_pages == 0
        # Flush had to cover the NAND program (~100 us for Z-NAND).
        assert engine.now > 100 * USEC

    def test_trim_discards_data(self):
        engine, ssd = make_ssd()

        def scenario():
            yield engine.process(ssd.write(9, b"junk"))
            yield engine.process(ssd.drain())
            ssd.trim(9, 1)
            return (yield engine.process(ssd.read(9, 4)))

        assert engine.run_process(scenario()) == bytes(4)

    def test_out_of_range_rejected(self):
        engine, ssd = make_ssd()
        with pytest.raises(ValueError, match="outside device"):
            engine.run_process(ssd.write(ssd.logical_pages, b"x"))

    def test_zero_size_io_rejected(self):
        engine, ssd = make_ssd()
        with pytest.raises(ValueError, match="positive"):
            engine.run_process(ssd.read(0, 0))

    def test_fsync_adds_fs_overhead(self):
        engine, ssd = make_ssd()

        def scenario():
            start = engine.now
            yield engine.process(ssd.fsync())
            return engine.now - start

        cost = engine.run_process(scenario())
        expected = ULL_SSD.flush_latency + ULL_SSD.fs_sync_overhead
        assert cost == pytest.approx(expected, rel=0.01)

    def test_stats_track_commands(self):
        engine, ssd = make_ssd()

        def scenario():
            yield engine.process(ssd.write(0, b"abc"))
            yield engine.process(ssd.read(0, 3))
            yield engine.process(ssd.flush())

        engine.run_process(scenario())
        assert ssd.stats.writes == 1
        assert ssd.stats.reads == 1
        assert ssd.stats.flushes == 1
        assert ssd.stats.bytes_written == 3
