"""Tests for the simulated morsel scheduler and execution traces."""

import pytest

from repro.execution import ExecutionTrace, SimulatedScheduler
from repro.execution.scheduler import SPLIT_OVERHEAD
from repro.execution.trace import Span


def _chain_region(scheduler, items, steps):
    """Run a chain region whose item ``i`` reports ``items[i]`` as its
    steps' ``(step, duration)``, marked back to back from time 0."""

    def item(durations):
        marks, clock = [], 0.0
        for step, duration in durations:
            marks.append((step, clock, clock + duration))
            clock += duration
        return None, marks

    return scheduler.run_region("chain", "p0", items, item, steps=steps)


def _one_step_region(scheduler, name, durations, splittable=False):
    """Run a region of one ``name`` step whose items take ``durations``."""
    return _chain_region(scheduler, [[(0, d)] for d in durations], [(name, splittable)])


class TestScheduling:
    def test_results_in_item_order(self):
        sched = SimulatedScheduler(4)
        out = sched.run_region("op", "p0", [3, 1, 2], lambda x: x * 10)
        assert out == [30, 10, 20]

    def test_serial_time_accumulates(self):
        sched = SimulatedScheduler(2)
        _one_step_region(sched, "op", [0.5, 0.5])
        assert sched.serial_time == pytest.approx(1.0)

    def test_parallel_makespan_lpt(self):
        sched = SimulatedScheduler(2)
        _one_step_region(sched, "op", [4.0, 3.0, 2.0, 1.0])
        # LPT on 2 workers: {4,1} and {3,2} -> makespan 5
        assert sched.sim_time == pytest.approx(5.0)

    def test_single_thread_equals_serial(self):
        sched = SimulatedScheduler(1)
        _one_step_region(sched, "op", [1.0, 2.0, 3.0])
        assert sched.sim_time == pytest.approx(sched.serial_time)

    def test_regions_are_barriers(self):
        sched = SimulatedScheduler(2)
        _one_step_region(sched, "a", [2.0])  # one thread busy until t=2
        _one_step_region(sched, "b", [1.0])  # must start after the barrier
        assert sched.sim_time == pytest.approx(3.0)

    def test_nonsplittable_large_item_dominates(self):
        sched = SimulatedScheduler(8)
        _one_step_region(sched, "sort", [8.0], splittable=False)
        assert sched.sim_time == pytest.approx(8.0)

    def test_splittable_item_parallelizes_with_overhead(self):
        sched = SimulatedScheduler(8)
        _one_step_region(sched, "sort", [8.0], splittable=True)
        assert sched.sim_time == pytest.approx(8.0 * (1 + SPLIT_OVERHEAD) / 8)

    def test_tiny_splittable_item_not_split(self):
        sched = SimulatedScheduler(8)
        _one_step_region(sched, "sort", [0.0001], splittable=True)
        assert sched.sim_time == pytest.approx(0.0001)

    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            SimulatedScheduler(0)


class TestChainScheduling:
    STEPS = [("sort", True), ("window", True), ("scan", False)]
    #: One skewed partition and three small ones, sort → window → scan.
    ITEMS = [
        [(0, 0.004), (1, 0.004), (2, 0.001)],
        [(0, 0.001), (1, 0.001), (2, 0.001)],
        [(0, 0.001), (1, 0.001), (2, 0.001)],
        [(1, 0.001), (2, 0.001)],  # one row: no sort
    ]

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_never_slower_than_a_region_per_step(self, threads):
        chain = SimulatedScheduler(threads)
        _chain_region(chain, self.ITEMS, self.STEPS)
        regions = SimulatedScheduler(threads)
        for index, (name, splittable) in enumerate(self.STEPS):
            durations = [d for item in self.ITEMS for step, d in item if step == index]
            _one_step_region(regions, name, durations, splittable)
        assert chain.sim_time <= regions.sim_time + 1e-12
        assert chain.serial_time == pytest.approx(regions.serial_time)
        if threads == 1:
            assert chain.sim_time == pytest.approx(chain.serial_time)

    def test_units_are_the_steps_named_by_operator(self):
        trace = ExecutionTrace()
        scheduler = SimulatedScheduler(1, trace)
        _chain_region(scheduler, self.ITEMS, self.STEPS)
        (region,) = trace.regions
        assert region.name == "chain" and region.attrs["items"] == 4
        names = [item.name for item in region.children]
        assert sorted(names) == ["scan"] * 4 + ["sort"] * 3 + ["window"] * 4
        assert all(item.attrs is region.attrs for item in region.children)
        assert sum(i.duration for i in region.children) == pytest.approx(scheduler.serial_time)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_units_carry_their_item_index(self, threads):
        """Every unit, a split SORT's pieces included, names the item it
        came from: what morsel skew sums per item."""
        trace = ExecutionTrace()
        _chain_region(SimulatedScheduler(threads, trace), self.ITEMS, self.STEPS)
        (region,) = trace.regions
        per_item = {}
        for unit in region.children:
            per_item[unit.item] = per_item.get(unit.item, 0.0) + unit.duration
        assert sorted(per_item) == [0, 1, 2, 3]
        if threads == 1:
            for index, item in enumerate(self.ITEMS):
                assert per_item[index] == pytest.approx(sum(d for _, d in item))

    def test_a_splittable_step_is_split_like_its_region_was(self):
        trace = ExecutionTrace()
        scheduler = SimulatedScheduler(4, trace)
        _chain_region(scheduler, [[(0, 0.008), (1, 0.0001), (2, 0.0001)]], self.STEPS)
        sorts = [item for item in trace.records if item.name == "sort"]
        assert len(sorts) == 4
        assert sum(i.duration for i in sorts) == pytest.approx(0.008 * (1 + SPLIT_OVERHEAD))

    def test_a_step_waits_for_its_item_not_for_a_barrier(self):
        """Item by item, the small partition's long scan need not wait for
        the big partition's sort: 11 ms, where a barrier after the sorts
        gives 10 + 9 ms."""
        steps = [("sort", False), ("scan", False)]
        items = [[(0, 0.010), (1, 0.001)], [(0, 0.001), (1, 0.009)]]
        chain = SimulatedScheduler(2)
        _chain_region(chain, items, steps)
        assert chain.sim_time == pytest.approx(0.011)
        regions = SimulatedScheduler(2)
        _one_step_region(regions, "sort", [0.010, 0.001])
        _one_step_region(regions, "scan", [0.001, 0.009])
        assert regions.sim_time == pytest.approx(0.019)


class TestTrace:
    def make_trace(self):
        trace = ExecutionTrace()
        sched = SimulatedScheduler(2, trace)
        _one_step_region(sched, "partition", [1.0, 1.0])
        _one_step_region(sched, "sort", [2.0])
        return trace

    def test_records_collected(self):
        trace = self.make_trace()
        assert len(trace.records) == 3
        assert trace.operators() == ["partition", "sort"]

    def test_makespan(self):
        trace = self.make_trace()
        assert trace.makespan == pytest.approx(3.0)

    def test_total_work_per_operator(self):
        trace = self.make_trace()
        assert trace.total_work("partition") == pytest.approx(2.0)
        assert trace.total_work() == pytest.approx(4.0)

    def test_by_thread(self):
        trace = self.make_trace()
        threads = trace.by_thread()
        assert set(threads) == {0, 1}

    def test_render_gantt(self):
        text = self.make_trace().render(width=40)
        assert "makespan" in text
        assert "T0 |" in text and "T1 |" in text

    def test_render_empty(self):
        assert ExecutionTrace().render() == "(empty trace)"

    def test_record_duration(self):
        record = Span("item", "op", 1.0, 2.5)
        assert record.duration == pytest.approx(1.5)
