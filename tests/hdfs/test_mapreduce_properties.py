"""Property tests for the JobTracker: random task mixes never break slots,
locality, or completion guarantees."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.topology import ClusterTopology
from repro.hdfs.mapreduce import JobTracker, MapReduceJob, MapTask
from repro.sim.engine import Simulator


@given(
    seed=st.integers(0, 2**16),
    num_tasks=st.integers(1, 30),
    slots=st.integers(1, 3),
)
@settings(max_examples=25, deadline=None)
def test_property_random_jobs_complete_within_slot_limits(seed, num_tasks, slots):
    rng = random.Random(seed)
    topo = ClusterTopology(
        nodes_per_rack=rng.randrange(1, 4), num_racks=rng.randrange(2, 5)
    )
    sim = Simulator()
    jt = JobTracker(sim, topo, slots_per_node=slots, rng=rng)
    running = [0]
    peak = [0]
    ran_on = {}

    def body(task_id, duration):
        def work(node):
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            yield sim.timeout(duration)
            running[0] -= 1
            ran_on[task_id] = node
            return node

        return work

    tasks = []
    for task_id in range(num_tasks):
        preferred = ()
        restrict = False
        if rng.random() < 0.4:
            preferred = tuple(
                rng.sample(range(topo.num_nodes), rng.randrange(1, 3))
            )
            restrict = rng.random() < 0.5
        tasks.append(
            MapTask(
                task_id=task_id,
                work=body(task_id, rng.uniform(0.1, 3.0)),
                preferred_nodes=preferred,
                restrict_to_preferred=restrict,
            )
        )
    job = MapReduceJob(job_id=0, tasks=tasks)
    sim.process(jt.run_job(job))
    sim.run()

    # Every task ran exactly once.
    assert len(ran_on) == num_tasks
    # Global concurrency never exceeded the cluster's slot supply.
    assert peak[0] <= topo.num_nodes * slots
    # Restricted tasks stayed on their preferred nodes.
    for task in tasks:
        if task.restrict_to_preferred:
            assert ran_on[task.task_id] in task.preferred_nodes
    # All slots returned.
    assert all(t.busy == 0 for t in jt.trackers.values())


class RestartScanJobTracker(JobTracker):
    """The dispatcher as it was before the slot total (test oracle only):
    every dispatch walks the whole queue, builds the all-tracker free list
    per task, and restarts from the head after each placement."""

    def _dispatch(self):
        scheduled_any = True
        while scheduled_any:
            scheduled_any = False
            for index, (task, done, attempt) in enumerate(self._pending):
                node = self._pick_node(task)
                if node is None:
                    continue
                del self._pending[index]
                self._start(task, node, done, attempt)
                scheduled_any = True
                break

    def _pick_node(self, task):
        for node in task.preferred_nodes:
            if self._is_healthy(node) and self.trackers[node].free_slots > 0:
                return node
        if task.restrict_to_preferred:
            if any(self._is_healthy(n) for n in task.preferred_nodes):
                return None
        free = [
            tracker.node_id
            for tracker in self.trackers.values()
            if tracker.free_slots > 0 and self._is_healthy(tracker.node_id)
        ]
        if not free:
            return None
        most = max(self.trackers[n].free_slots for n in free)
        return self.rng.choice(
            [n for n in free if self.trackers[n].free_slots == most]
        )


def _run_mix(tracker_class, seed, num_tasks, slots):
    """A seeded mix of jobs, crashes and node outages; returns what ran
    where and when, plus the scheduler rng's next draw."""
    rng = random.Random(seed)
    topo = ClusterTopology(
        nodes_per_rack=rng.randrange(1, 4), num_racks=rng.randrange(2, 5)
    )
    sim = Simulator()
    down = set()
    scheduler_rng = random.Random(seed + 1)
    jt = tracker_class(
        sim, topo, slots_per_node=slots, rng=scheduler_rng,
        health=lambda node: node not in down, max_task_attempts=2,
    )
    log = []

    def body(task_id, duration, crashes):
        def work(node):
            log.append((task_id, node, sim.now))
            first_attempt = sum(1 for t, __, ___ in log if t == task_id) == 1
            yield sim.timeout(duration)
            if crashes and first_attempt:
                raise RuntimeError("first attempt dies")
            return node

        return work

    def job(job_id, first_task):
        tasks = []
        for task_id in range(first_task, first_task + rng.randrange(1, 8)):
            preferred = ()
            if rng.random() < 0.5:
                preferred = tuple(
                    rng.sample(range(topo.num_nodes), rng.randrange(1, 3))
                )
            tasks.append(MapTask(
                task_id=task_id,
                work=body(task_id, rng.choice((0.5, 1.0, 2.0)),
                          rng.random() < 0.2),
                preferred_nodes=preferred,
                restrict_to_preferred=bool(preferred) and rng.random() < 0.5,
            ))
        return MapReduceJob(job_id=job_id, tasks=tasks)

    def submitter():
        next_task = 0
        job_id = 0
        while next_task < num_tasks:
            batch = job(job_id, next_task)
            next_task += len(batch.tasks)
            job_id += 1
            jt.submit(batch)
            yield sim.timeout(rng.choice((0.0, 0.5, 1.5)))

    def outages():
        for __ in range(6):
            yield sim.timeout(rng.choice((0.5, 1.0)))
            node = rng.randrange(topo.num_nodes)
            if node in down:
                down.discard(node)
                jt._dispatch()  # what watch_network does on a restore
            else:
                down.add(node)
        down.clear()
        jt._dispatch()

    sim.process(submitter())
    sim.process(outages())
    sim.run()
    assert all(t.busy == 0 for t in jt.trackers.values())
    return log, scheduler_rng.random()


@given(
    seed=st.integers(0, 2**16),
    num_tasks=st.integers(1, 40),
    slots=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_property_one_pass_dispatch_places_what_the_restarting_scan_placed(
    seed, num_tasks, slots
):
    assert _run_mix(JobTracker, seed, num_tasks, slots) == _run_mix(
        RestartScanJobTracker, seed, num_tasks, slots
    )
