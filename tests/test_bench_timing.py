"""The shared perf-bench timing protocol (``benchmarks/timing.py``).

Fake contenders report their own samples, so nothing here reads a real
clock: the checks cover the round order, the sample count per contender
and the statistics computed from exactly the reported samples.
"""

from __future__ import annotations

import itertools

import pytest

from benchmarks import timing


def _contenders(calls, cpu, wall=None):
    """Contenders that log each call and report the next scripted sample."""
    cpu = {name: list(values) for name, values in cpu.items()}
    wall = {name: list(values) for name, values in (wall or cpu).items()}

    def make(name):
        def run(region):
            calls.append(name)
            region.report(cpu[name].pop(0), wall[name].pop(0))
            return f"{name}-{len(calls)}"

        return run

    return {name: make(name) for name in cpu}


class TestInterleave:
    def test_order_flips_every_round(self):
        calls = []
        timing.interleave(
            _contenders(calls, {name: [1.0] * 4 for name in "abc"}),
            repeats=4,
            warmup=False,
        )
        assert calls == list("abc" "cba" "abc" "cba")

    def test_each_contender_gets_exactly_repeats_samples(self):
        calls = []
        series = timing.interleave(
            _contenders(calls, {"a": range(1, 7), "b": range(11, 17)}), repeats=5
        )
        # The warm-up round runs every contender once and records nothing.
        assert calls[:2] == ["a", "b"] and len(calls) == 2 + 2 * 5
        assert series["a"].cpu.samples == (2, 3, 4, 5, 6)
        assert series["b"].cpu.samples == (12, 13, 14, 15, 16)
        assert all(len(s.results) == len(s.wall.samples) == 5 for s in series.values())
        assert series["a"].results == ("a-3", "a-6", "a-7", "a-10", "a-11")

    def test_stats_come_from_the_reported_samples(self):
        series = timing.interleave(
            _contenders(
                [],
                cpu={"x": [3.0, 1.0, 4.0, 1.5, 5.0]},
                wall={"x": [9.0, 7.0, 8.0, 6.0, 10.0]},
            ),
            repeats=5,
            warmup=False,
        )["x"]
        assert series.cpu.samples == (3.0, 1.0, 4.0, 1.5, 5.0)
        assert (series.cpu.min, series.cpu.q1, series.cpu.median, series.cpu.q3) == (
            1.0, 1.5, 3.0, 4.0,
        )
        assert (series.wall.min, series.wall.median) == (6.0, 8.0)
        assert series.to_json()["cpu_s"] == {
            "min": 1.0, "q1": 1.5, "median": 3.0, "q3": 4.0,
            "samples": [3.0, 1.0, 4.0, 1.5, 5.0],
        }

    def test_single_sample_is_its_own_spread(self):
        stats = timing.Stats.of([0.25])
        assert (stats.min, stats.q1, stats.median, stats.q3) == (0.25,) * 4

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            timing.interleave({"a": lambda region: None}, repeats=0)


class TestRegion:
    def test_with_block_reads_cpu_and_wall_clocks(self, monkeypatch):
        cpu = itertools.count(100.0, 2.0)
        wall = itertools.count(50.0, 3.0)
        monkeypatch.setattr(timing, "process_time", lambda: next(cpu))
        monkeypatch.setattr(timing, "perf_counter", lambda: next(wall))
        region = timing.Region()
        with region:
            pass
        assert region.sample == (2.0, 3.0)

    def test_an_untimed_contender_is_an_error(self):
        with pytest.raises(RuntimeError, match="never timed"):
            timing.interleave({"a": lambda region: None}, repeats=1, warmup=False)

    def test_a_region_is_timed_once(self):
        region = timing.Region()
        region.report(1.0, 1.0)
        with pytest.raises(RuntimeError, match="once per sample"):
            region.report(2.0, 2.0)


def test_write_result_names_the_file(tmp_path, monkeypatch):
    monkeypatch.setattr(timing, "RESULTS_DIR", tmp_path / "results")
    path = timing.write_result("demo", {"benchmark": "demo"})
    assert path == tmp_path / "results" / "BENCH_demo.json"
    assert path.read_text(encoding="utf-8") == '{\n  "benchmark": "demo"\n}\n'
