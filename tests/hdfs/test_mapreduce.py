"""JobTracker scheduling: slots, locality preference, core-rack pinning."""

import random

import pytest

from repro.cluster.topology import ClusterTopology
from repro.hdfs.mapreduce import JobTracker, MapReduceJob, MapTask, TaskFailed
from repro.sim.engine import Simulator


@pytest.fixture
def topo():
    return ClusterTopology(nodes_per_rack=2, num_racks=3)


def make_task(sim, task_id, duration, ran, **kw):
    def work(node):
        yield sim.timeout(duration)
        ran.append((task_id, node, sim.now))
        return node

    return MapTask(task_id=task_id, work=work, **kw)


class TestScheduling:
    def test_all_tasks_complete(self, topo):
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=1, rng=random.Random(1))
        ran = []
        job = MapReduceJob(
            job_id=jt.new_job_id(),
            tasks=[make_task(sim, i, 1.0, ran) for i in range(10)],
        )
        results = []

        def run():
            out = yield from jt.run_job(job)
            results.extend(out)

        sim.process(run())
        sim.run()
        assert len(ran) == 10
        assert len(results) == 10

    def test_slots_bound_parallelism(self, topo):
        # 6 nodes x 1 slot, 12 unit tasks: exactly two waves.
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=1, rng=random.Random(1))
        ran = []
        job = MapReduceJob(
            job_id=0, tasks=[make_task(sim, i, 1.0, ran) for i in range(12)]
        )
        sim.process(jt.run_job(job))
        sim.run()
        assert sim.now == pytest.approx(2.0)
        first_wave = [t for __, __n, t in ran if t == pytest.approx(1.0)]
        assert len(first_wave) == 6

    def test_more_slots_more_parallelism(self, topo):
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=2, rng=random.Random(1))
        ran = []
        job = MapReduceJob(
            job_id=0, tasks=[make_task(sim, i, 1.0, ran) for i in range(12)]
        )
        sim.process(jt.run_job(job))
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_preferred_node_honoured_when_free(self, topo):
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=1, rng=random.Random(1))
        ran = []
        job = MapReduceJob(
            job_id=0,
            tasks=[make_task(sim, 0, 1.0, ran, preferred_nodes=(4,))],
        )
        sim.process(jt.run_job(job))
        sim.run()
        assert ran[0][1] == 4

    def test_unrestricted_task_falls_back(self, topo):
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=1, rng=random.Random(1))
        ran = []
        blocker = make_task(sim, 0, 5.0, ran, preferred_nodes=(4,))
        fallback = make_task(sim, 1, 1.0, ran, preferred_nodes=(4,))
        sim.process(jt.run_job(MapReduceJob(job_id=0, tasks=[blocker, fallback])))
        sim.run()
        by_id = {tid: (node, t) for tid, node, t in ran}
        assert by_id[0][0] == 4
        assert by_id[1][0] != 4       # fell back to another node
        assert by_id[1][1] == 1.0     # and did not wait for node 4

    def test_restricted_task_waits_for_preferred(self, topo):
        """The paper's encoding-job flag: maps never leave the core rack."""
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=1, rng=random.Random(1))
        ran = []
        blocker = make_task(sim, 0, 5.0, ran, preferred_nodes=(4,))
        pinned = make_task(
            sim, 1, 1.0, ran, preferred_nodes=(4,), restrict_to_preferred=True
        )
        sim.process(jt.run_job(MapReduceJob(job_id=0, tasks=[blocker, pinned])))
        sim.run()
        by_id = {tid: (node, t) for tid, node, t in ran}
        assert by_id[1][0] == 4
        assert by_id[1][1] == pytest.approx(6.0)  # waited for the slot

    def test_encoding_job_flag_restricts_all_tasks(self, topo):
        sim = Simulator()
        job = MapReduceJob(
            job_id=0,
            tasks=[
                MapTask(task_id=0, work=lambda n: iter(()), preferred_nodes=(1,))
            ],
            is_encoding_job=True,
        )
        assert job.tasks[0].restrict_to_preferred

    def test_restricted_task_requires_preference(self):
        with pytest.raises(ValueError):
            MapTask(task_id=0, work=lambda n: iter(()), restrict_to_preferred=True)

    def test_submit_returns_event(self, topo):
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=1, rng=random.Random(1))
        ran = []
        ev = jt.submit(
            MapReduceJob(job_id=0, tasks=[make_task(sim, 0, 1.0, ran)])
        )
        sim.run()
        assert ev.processed
        assert len(ran) == 1

    def test_two_jobs_share_cluster(self, topo):
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=1, rng=random.Random(1))
        ran = []
        a = MapReduceJob(job_id=0, tasks=[make_task(sim, i, 1.0, ran) for i in range(6)])
        b = MapReduceJob(job_id=1, tasks=[make_task(sim, 10 + i, 1.0, ran) for i in range(6)])
        jt.submit(a)
        jt.submit(b)
        sim.run()
        assert len(ran) == 12
        assert sim.now == pytest.approx(2.0)

    def test_crashing_task_propagates(self, topo):
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=1, rng=random.Random(1))

        def bad(node):
            yield sim.timeout(1.0)
            raise RuntimeError("task died")

        job = MapReduceJob(job_id=0, tasks=[MapTask(task_id=0, work=bad)])
        caught = []

        def run():
            try:
                yield from jt.run_job(job)
            except RuntimeError:
                caught.append(True)

        sim.process(run())
        sim.run()
        assert caught == [True]
        # The slot must have been returned despite the crash.
        assert all(t.busy == 0 for t in jt.trackers.values())


class TestFaultTolerance:
    """Re-execution of crashed maps and liveness-aware placement."""

    def test_max_task_attempts_validated(self, topo):
        with pytest.raises(ValueError):
            JobTracker(Simulator(), topo, max_task_attempts=0)

    def test_crashed_task_reexecuted_until_success(self, topo):
        sim = Simulator()
        jt = JobTracker(
            sim, topo, slots_per_node=1, rng=random.Random(1),
            max_task_attempts=3,
        )
        attempts = []

        def flaky(node):
            attempts.append(node)
            yield sim.timeout(1.0)
            if len(attempts) < 3:
                raise RuntimeError("crash")
            return "ok"

        results = []

        def run():
            out = yield from jt.run_job(
                MapReduceJob(job_id=0, tasks=[MapTask(task_id=0, work=flaky)])
            )
            results.extend(out)

        sim.process(run())
        sim.run()
        assert results == ["ok"]
        assert len(attempts) == 3
        assert all(t.busy == 0 for t in jt.trackers.values())

    def test_exhausted_reexecution_raises_task_failed(self, topo):
        sim = Simulator()
        jt = JobTracker(
            sim, topo, slots_per_node=1, rng=random.Random(1),
            max_task_attempts=2,
        )
        attempts = []

        def doomed(node):
            attempts.append(node)
            yield sim.timeout(1.0)
            raise OSError("disk on fire")

        caught = []

        def run():
            try:
                yield from jt.run_job(
                    MapReduceJob(job_id=0, tasks=[MapTask(task_id=9, work=doomed)])
                )
            except TaskFailed as exc:
                caught.append(exc)

        sim.process(run())
        sim.run()
        assert len(attempts) == 2
        assert caught[0].task_id == 9
        assert caught[0].attempts == 2
        assert isinstance(caught[0].cause, OSError)

    def test_scheduler_skips_down_nodes(self, topo):
        sim = Simulator()
        down = {4}
        jt = JobTracker(
            sim, topo, slots_per_node=1, rng=random.Random(1),
            health=lambda n: n not in down,
        )
        ran = []
        task = make_task(sim, 0, 1.0, ran, preferred_nodes=(4, 5))
        sim.process(jt.run_job(MapReduceJob(job_id=0, tasks=[task])))
        sim.run()
        # The preferred-but-dead node 4 was passed over for live node 5.
        assert ran[0][1] == 5

    def test_restriction_relaxed_only_when_all_preferred_down(self, topo):
        sim = Simulator()
        down = {4, 5}
        jt = JobTracker(
            sim, topo, slots_per_node=1, rng=random.Random(1),
            health=lambda n: n not in down,
        )
        ran = []
        pinned = make_task(
            sim, 0, 1.0, ran, preferred_nodes=(4, 5),
            restrict_to_preferred=True,
        )
        sim.process(jt.run_job(MapReduceJob(job_id=0, tasks=[pinned])))
        sim.run()
        # Every preferred node is dead: the task degrades to a live node
        # instead of queueing forever.
        assert ran[0][1] not in down

    def test_restriction_holds_while_any_preferred_alive(self, topo):
        sim = Simulator()
        down = {4}
        jt = JobTracker(
            sim, topo, slots_per_node=1, rng=random.Random(1),
            health=lambda n: n not in down,
        )
        ran = []
        blocker = make_task(sim, 0, 5.0, ran, preferred_nodes=(5,))
        pinned = make_task(
            sim, 1, 1.0, ran, preferred_nodes=(4, 5),
            restrict_to_preferred=True,
        )
        sim.process(
            jt.run_job(MapReduceJob(job_id=0, tasks=[blocker, pinned]))
        )
        sim.run()
        by_id = {tid: (node, t) for tid, node, t in ran}
        # Node 5 is alive but busy: the pinned task must wait for it, not
        # drift off its preference set.
        assert by_id[1][0] == 5
        assert by_id[1][1] == pytest.approx(6.0)

    def test_watch_network_redispatches_on_restore(self, topo):
        from repro.sim.netsim import Network

        sim = Simulator()
        network = Network(sim, topo)
        jt = JobTracker(
            sim, topo, slots_per_node=1, rng=random.Random(1),
            health=network.is_up,
        )
        jt.watch_network(network)
        for node in topo.node_ids():
            network.fail_endpoint(node)
        ran = []
        jt.submit(MapReduceJob(job_id=0, tasks=[make_task(sim, 0, 1.0, ran)]))

        def heal():
            yield sim.timeout(10.0)
            network.restore_endpoint(2)

        sim.process(heal())
        sim.run()
        # Nothing could run until node 2 returned; the restore listener
        # re-triggered the dispatcher.
        assert ran == [(0, 2, pytest.approx(11.0))]


class TestSlotTotal:
    """The running free-slot total that lets a dispatch return at once."""

    @staticmethod
    def total_is_exact(jt):
        return jt._free_slots == sum(
            t.free_slots for t in jt.trackers.values()
        )

    def test_free_slots_only_on_down_nodes_dispatch_nothing_and_draw_nothing(
        self, topo
    ):
        from repro.sim.netsim import Network

        sim = Simulator()
        network = Network(sim, topo)
        rng = random.Random(1)
        jt = JobTracker(
            sim, topo, slots_per_node=1, rng=rng, health=network.is_up
        )
        jt.watch_network(network)
        ran = []
        # Nodes 0-3 busy until t=50; the only free slots (4, 5) are down.
        blockers = [
            make_task(sim, i, 50.0, ran, preferred_nodes=(i,))
            for i in range(4)
        ]
        network.fail_endpoint(4)
        network.fail_endpoint(5)
        jt.submit(MapReduceJob(job_id=0, tasks=blockers))
        sim.run(until=1.0)
        drawn = rng.getstate()
        jt.submit(MapReduceJob(job_id=1, tasks=[make_task(sim, 9, 1.0, ran)]))
        sim.run(until=5.0)
        # The total counts down nodes' slots too, so the scan does run —
        # and finds no live node, without touching the rng.
        assert jt._free_slots == 2 and self.total_is_exact(jt)
        assert len(jt._pending) == 1
        assert rng.getstate() == drawn
        network.restore_endpoint(5)
        sim.run()
        assert (9, 5, pytest.approx(6.0)) in ran
        assert self.total_is_exact(jt) and jt._free_slots == 6

    def test_crashed_tasks_retry_finds_the_slot_it_gave_back(self):
        # One slot in the whole cluster: the retry can only start if the
        # crash returned the slot to the total before re-dispatching.
        sim = Simulator()
        jt = JobTracker(
            sim, ClusterTopology(nodes_per_rack=1, num_racks=1),
            slots_per_node=1, rng=random.Random(1), max_task_attempts=2,
        )
        attempts = []

        def flaky(node):
            attempts.append(sim.now)
            assert jt._free_slots == 0
            yield sim.timeout(1.0)
            if len(attempts) == 1:
                raise RuntimeError("crash")
            return "ok"

        done = jt.submit(
            MapReduceJob(job_id=0, tasks=[MapTask(task_id=0, work=flaky)])
        )
        sim.run()
        assert attempts == [0.0, 1.0]
        assert done.value == ["ok"]
        assert self.total_is_exact(jt) and jt._free_slots == 1

    def test_dispatch_with_no_free_slot_looks_at_no_task(self, topo):
        sim = Simulator()
        jt = JobTracker(sim, topo, slots_per_node=1, rng=random.Random(1))
        ran = []
        looked = []
        pick = jt._pick_node
        jt._pick_node = lambda task: looked.append(task.task_id) or pick(task)
        tasks = [make_task(sim, i, 1.0, ran) for i in range(10)]
        sim.process(jt.run_job(MapReduceJob(job_id=0, tasks=tasks)))
        sim.run(until=0.5)
        # Six slots: six picks, then the scan stops — tasks 6-9 unseen.
        assert looked == [0, 1, 2, 3, 4, 5]
        sim.run()
        # One pick per placement from then on: a freed slot goes to the
        # head of the queue and the scan ends with the total back at zero.
        assert looked == list(range(10))
        assert len(ran) == 10 and self.total_is_exact(jt)
