"""MapReduce control path: JobTracker, TaskTrackers, slots, locality.

Models the scheduling behaviour the paper relies on (Section IV):

* every DataNode runs a TaskTracker with a fixed number of map slots;
* the JobTracker dispatches queued tasks to free slots, honouring each
  task's *preferred nodes* (MapReduce locality);
* jobs flagged as *encoding jobs* are pinned: their tasks run **only** on
  preferred nodes (the paper's third HDFS modification, which stops the
  JobTracker from pushing an encode map outside the core rack).

Task bodies are simulation generators parameterised by the node they were
scheduled on, so the same machinery runs encoding work, SWIM map tasks, and
shuffle/reduce work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.cluster.topology import ClusterTopology, NodeId
from repro.sim.engine import Event, Simulator


class TaskFailed(RuntimeError):
    """A map task crashed on every allowed attempt; carries the last error."""

    def __init__(self, task_id: int, attempts: int, cause: BaseException) -> None:
        super().__init__(
            f"task {task_id} failed after {attempts} attempt(s): {cause!r}"
        )
        self.task_id = task_id
        self.attempts = attempts
        self.cause = cause

#: A task body: given the node the task landed on, yield simulation events.
TaskBody = Callable[[NodeId], Generator]


@dataclass
class MapTask:
    """One schedulable unit of work.

    Attributes:
        task_id: Identifier unique within the job.
        work: The task body, invoked with the scheduled node.
        preferred_nodes: Locality hints, most preferred first.
        restrict_to_preferred: When True the task may *only* run on a
            preferred node (set for encoding jobs).
    """

    task_id: int
    work: TaskBody
    preferred_nodes: Tuple[NodeId, ...] = ()
    restrict_to_preferred: bool = False

    def __post_init__(self) -> None:
        if self.restrict_to_preferred and not self.preferred_nodes:
            raise ValueError("a restricted task needs preferred nodes")


@dataclass
class MapReduceJob:
    """A bag of tasks submitted together.

    Attributes:
        job_id: Unique identifier.
        tasks: The job's tasks.
        is_encoding_job: The paper's Boolean flag: encoding jobs schedule
            tasks only onto their preferred (core-rack) nodes.
    """

    job_id: int
    tasks: List[MapTask]
    is_encoding_job: bool = False

    def __post_init__(self) -> None:
        if self.is_encoding_job:
            for task in self.tasks:
                task.restrict_to_preferred = True


class TaskTracker:
    """Per-node task executor with a fixed slot count."""

    def __init__(self, node_id: NodeId, slots: int) -> None:
        if slots < 1:
            raise ValueError("a TaskTracker needs at least one slot")
        self.node_id = node_id
        self.slots = slots
        self.busy = 0

    @property
    def free_slots(self) -> int:
        """Slots available right now."""
        return self.slots - self.busy


class JobTracker:
    """Dispatches job tasks onto TaskTracker slots.

    Args:
        sim: Simulation kernel.
        topology: Cluster layout (one TaskTracker per node).
        slots_per_node: Map slots per TaskTracker (the paper's Experiment
            A.3 uses 4).
        rng: Random source for tie-breaking among equally good nodes.
        health: Optional liveness oracle (usually ``network.is_up``): the
            scheduler never dispatches onto a node reported down.  When a
            *restricted* task's preferred nodes are all down, the
            restriction is relaxed and the task degrades to any live node
            (the encoder then pays cross-rack downloads instead of the map
            failing outright).
        max_task_attempts: Times a crashed task is re-executed before its
            completion event fails with :class:`TaskFailed` (1 = the
            original fail-fast behaviour).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: ClusterTopology,
        slots_per_node: int = 4,
        rng: Optional[random.Random] = None,
        health: Optional[Callable[[NodeId], bool]] = None,
        max_task_attempts: int = 1,
    ) -> None:
        if max_task_attempts < 1:
            raise ValueError("max_task_attempts must be at least 1")
        self.sim = sim
        self.topology = topology
        self.rng = rng if rng is not None else random.Random(0)
        self.health = health
        self.max_task_attempts = max_task_attempts
        self.trackers: Dict[NodeId, TaskTracker] = {
            node_id: TaskTracker(node_id, slots_per_node)
            for node_id in topology.node_ids()
        }
        self._pending: List[Tuple[MapTask, Event, int]] = []
        #: Free slots over all trackers, live or not: zero means no task
        #: can start, so a dispatch has nothing to scan.
        self._free_slots = slots_per_node * len(self.trackers)
        self._job_ids = itertools.count()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def new_job_id(self) -> int:
        """Allocate a job id."""
        return next(self._job_ids)

    def run_job(self, job: MapReduceJob) -> Generator:
        """Submit a job and wait for every task to finish (generator).

        Returns:
            List of per-task results, in task order (generator return
            value).
        """
        completions: List[Event] = []
        for task in job.tasks:
            done = self.sim.event()
            completions.append(done)
            self._pending.append((task, done, 1))
        self._dispatch()
        results = yield self.sim.all_of(completions)
        return results

    def submit(self, job: MapReduceJob) -> Event:
        """Submit without waiting; returns the job's completion event."""
        return self.sim.process(self.run_job(job))

    def watch_network(self, network) -> None:
        """Re-dispatch queued tasks whenever an endpoint comes back up.

        Without this, a job whose only eligible nodes are transiently down
        would sit queued forever: slot state never changes, so nothing
        re-triggers the scheduler.
        """
        network.on_endpoint_change(
            lambda __, is_up: self._dispatch() if is_up else None
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Start every queued task that fits, in queue order.

        One pass is enough: placing a task only takes a slot away and
        liveness cannot change inside a dispatch, so a task that found no
        node earlier in the pass would find none on a rescan either (and
        ``_pick_node`` draws from the rng only when it returns a node).
        """
        pending = self._pending
        index = 0
        while self._free_slots and index < len(pending):
            task, done, attempt = pending[index]
            node = self._pick_node(task)
            if node is None:
                index += 1
            else:
                del pending[index]
                self._start(task, node, done, attempt)

    def _is_healthy(self, node: NodeId) -> bool:
        return self.health is None or self.health(node)

    def _pick_node(self, task: MapTask) -> Optional[NodeId]:
        trackers = self.trackers
        is_healthy = self._is_healthy
        for node in task.preferred_nodes:
            if is_healthy(node) and trackers[node].free_slots > 0:
                return node
        if task.restrict_to_preferred:
            # Graceful degradation: only when every preferred node is DOWN
            # (not merely busy) may a restricted task drift off-rack.
            if any(is_healthy(n) for n in task.preferred_nodes):
                return None
        # The live trackers with the most free slots, in tracker order
        # (starting the bar at one slot skips the full ones).
        most = 1
        emptiest: List[NodeId] = []
        for tracker in trackers.values():
            free = tracker.free_slots
            if free < most or not is_healthy(tracker.node_id):
                continue
            if free > most:
                most = free
                emptiest.clear()
            emptiest.append(tracker.node_id)
        if not emptiest:
            return None
        return self.rng.choice(emptiest)

    def _start(self, task: MapTask, node: NodeId, done: Event, attempt: int) -> None:
        self.trackers[node].busy += 1
        self._free_slots -= 1
        self.sim.process(self._run(task, node, done, attempt))

    def _finish(self, node: NodeId) -> None:
        self.trackers[node].busy -= 1
        self._free_slots += 1

    def _run(
        self, task: MapTask, node: NodeId, done: Event, attempt: int
    ) -> Generator:
        try:
            result = yield from task.work(node)
        except Exception as exc:  # the task crashed on this node
            self._finish(node)
            if attempt < self.max_task_attempts:
                # Re-execute: back into the queue for a fresh placement.
                self._pending.append((task, done, attempt + 1))
                self._dispatch()
                return
            self._dispatch()
            done.fail(TaskFailed(task.task_id, attempt, exc))
            return
        self._finish(node)
        self._dispatch()
        done.succeed(result)
