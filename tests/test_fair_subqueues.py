"""The fair queue's kept per-tenant subqueues, held to a regroup of the queue.

:class:`~repro.service.fairness.FairShareQueue` keeps each tenant's waiting
jobs in scheduling order as jobs are admitted, placed and drained, and a
scheduling cycle copies those lists instead of regrouping the whole queue.
The state machine below mixes offers (quota-rejected ones included),
removes of arbitrary queued jobs, placements, finishes and drains, with
priorities, deadlines and even sequence numbers drawn so that sort keys
tie often.  After every step the kept subqueues must equal ``ordered()``
regrouped by tenant, and the scheduling order (with its DRR counters) must
equal the one-pass regroup the queue used before it kept them, copied here
as :func:`regrouped_scheduling_order`.
"""

import math
import types
from collections import deque
from typing import Deque, Dict, List, Optional

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.core.types import problem_from_string
from repro.obs.metrics import plain_sum
from repro.service import AdmissionPolicy, FairShareQueue, JobState, ReconstructionJob
from repro.service.job import job_sort_key
from repro.service.queue import QUOTA_REJECTION_PREFIX

pytestmark = pytest.mark.fairness

PROBLEM = problem_from_string("48x48x24->32x32x32")
TENANTS = ("a", "b", "c", "d")
NOWS = (0.0, 3.0, 50.0)


def regrouped_scheduling_order(queue: FairShareQueue, now: float, running=()):
    """The fair order as built from one regroup of ``queue._ordered``.

    The body of ``FairShareQueue.scheduling_order`` before the subqueues were
    kept, with its DRR counters returned instead of added to the queue's.
    """
    quantum = queue.policy.quantum_seconds
    rounds = aged_count = 0
    order: List[ReconstructionJob] = []

    per_tenant: Dict[str, Deque[ReconstructionJob]] = {}
    for job in queue._ordered:
        per_tenant.setdefault(job.tenant, deque()).append(job)

    inflight: Dict[str, int] = {}
    for placement in running:
        tenant = placement.job.tenant
        inflight[tenant] = inflight.get(tenant, 0) + 1
    budget: Dict[str, Optional[int]] = {}
    for tenant in per_tenant:
        cap = queue.inflight_cap_of(tenant)
        budget[tenant] = None if cap is None else max(0, cap - inflight.get(tenant, 0))

    visit = sorted(per_tenant, key=lambda t: (queue._attained.get(t, 0.0), t))
    grant = {tenant: quantum * queue.weight_of(tenant) for tenant in visit}

    def within_budget(job: ReconstructionJob) -> bool:
        remaining = budget[job.tenant]
        if remaining is not None:
            if remaining == 0:
                return False
            budget[job.tenant] = remaining - 1
        return True

    aging = queue.policy.aging_seconds
    if aging is not None:
        aged: List[ReconstructionJob] = []
        for tenant in sorted(per_tenant):
            head = per_tenant[tenant][0]
            if now - head.arrival_seconds >= aging:
                aged.append(head)
        for job in sorted(aged, key=job_sort_key):
            if within_budget(job):
                per_tenant[job.tenant].popleft()
                aged_count += 1
                order.append(job)

    active = [tenant for tenant in visit if per_tenant[tenant] and budget[tenant] != 0]
    deficits = dict.fromkeys(active, 0.0)
    while active:
        idle = min(
            math.ceil(
                ((per_tenant[tenant][0].estimated_seconds or quantum)
                 - deficits[tenant]) / grant[tenant]
            )
            for tenant in active
        ) - 1
        walked = 1
        if idle > 0:
            walked += idle
            for tenant in active:
                deficits[tenant] += idle * grant[tenant]
        rounds += walked
        drained = False
        for tenant in active:
            deficit = deficits[tenant] + grant[tenant]
            subqueue = per_tenant[tenant]
            while subqueue:
                head = subqueue[0]
                cost = head.estimated_seconds or quantum
                if deficit < cost:
                    break
                if not within_budget(head):
                    subqueue.clear()
                    break
                subqueue.popleft()
                deficit -= cost
                order.append(head)
            deficits[tenant] = deficit
            drained = drained or not subqueue
        if drained:
            active = [tenant for tenant in active if per_tenant[tenant]]
    return order, rounds, aged_count


class KeptSubqueues(RuleBasedStateMachine):
    """Random offer / remove / place / finish / drain histories of one queue."""

    @initialize(
        max_depth=st.integers(3, 12),
        tenant_cap=st.integers(1, 3),
        inflight_cap=st.sampled_from([None, 1, 2]),
        aging=st.sampled_from([None, 2.0, 20.0]),
        weight=st.sampled_from([0.5, 1.0, 3.0]),
    )
    def open(self, max_depth, tenant_cap, inflight_cap, aging, weight):
        self.queue = FairShareQueue(AdmissionPolicy(
            max_depth=max_depth, tenant_weights={"a": weight},
            max_queue_depth_per_tenant=tenant_cap,
            max_inflight_per_tenant=inflight_cap, aging_seconds=aging,
            quantum_seconds=2.0,
        ))
        self.admitted: List[ReconstructionJob] = []  # admission order
        self.running: List[types.SimpleNamespace] = []
        self.minted = 0

    @rule(
        tenant=st.sampled_from(TENANTS),
        priority=st.integers(0, 1),
        slo=st.sampled_from([None, 5.0, 30.0]),
        arrival=st.sampled_from([0.0, 1.0, 2.0]),
        # 1.1 + 3.3 + 2.2 and 1.1 + 2.2 + 3.3 differ in the last bit.
        cost=st.sampled_from([None, 0.5, 1.1, 2.2, 3.3, 9.0]),
        twin=st.booleans(),
    )
    def offer(self, tenant, priority, slo, arrival, cost, twin):
        own = [j for j in self.admitted if j.tenant == tenant]
        if twin and own:  # the whole sort key ties with a waiting job's
            priority, slo, arrival = own[-1].priority, own[-1].slo_seconds, own[-1].arrival_seconds
        self.minted += 1
        job = ReconstructionJob(
            problem=PROBLEM, tenant=tenant, priority=priority, slo_seconds=slo,
            arrival_seconds=arrival, job_id=f"k{self.minted:03d}",
        )
        job.estimated_seconds = cost
        if twin and own:
            job.sequence = own[-1].sequence
        cap = self.queue.policy.max_queue_depth_per_tenant
        admitted = self.queue.offer(job)
        quota = (job.rejection_reason or "").startswith(QUOTA_REJECTION_PREFIX)
        assert quota == (len(own) >= cap)
        if quota:
            backlog = plain_sum(j.estimated_seconds or 0.0 for j in own)
            assert job.retry_after_seconds == max(1.0, backlog)
        if admitted:
            self.admitted.append(job)

    def _forget(self, job):
        self.admitted = [j for j in self.admitted if j is not job]

    @rule(pick=st.integers(0, 10**6))
    def remove(self, pick):
        if self.admitted:
            job = self.queue.ordered()[pick % len(self.queue)]
            self.queue.remove(job)
            self._forget(job)

    @rule(now=st.sampled_from(NOWS), pick=st.integers(0, 10**6))
    def place(self, now, pick):
        order = list(self.queue.scheduling_order(now, self.running))
        if order:
            job = order[pick % len(order)]
            self.queue.remove(job)
            self._forget(job)
            self.running.append(types.SimpleNamespace(job=job))

    @rule(pick=st.integers(0, 10**6))
    def finish(self, pick):
        if self.running:
            self.running.pop(pick % len(self.running))

    @rule()
    def drain(self):
        drained = self.queue.drain()
        assert all(job.state is JobState.QUEUED for job in drained)
        self.admitted.clear()

    # ------------------------------------------------------------------ #
    @invariant()
    def subqueues_are_the_queue_regrouped(self):
        expected: Dict[str, List[ReconstructionJob]] = {}
        for job in self.queue.ordered():
            expected.setdefault(job.tenant, []).append(job)
        kept = self.queue._subqueues
        assert all(jobs for jobs, _ in kept.values())  # no empty tenant entry
        assert {t: [id(j) for j in jobs] for t, (jobs, _) in kept.items()} == {
            t: [id(j) for j in jobs] for t, jobs in expected.items()
        }
        for jobs, keys in kept.values():
            assert keys == [job_sort_key(job) for job in jobs]

    @invariant()
    def scheduling_order_is_the_regrouped_one(self):
        queue = self.queue
        for now in NOWS:
            expected, rounds, aged = regrouped_scheduling_order(queue, now, self.running)
            before = (queue.deficit_rounds, queue.aged_promotions)
            order = list(queue.scheduling_order(now, self.running))
            assert [id(j) for j in order] == [id(j) for j in expected]
            assert (queue.deficit_rounds, queue.aged_promotions) == (
                before[0] + rounds, before[1] + aged)


def test_kept_subqueues_equal_the_regrouped_queue():
    run_state_machine_as_test(
        KeptSubqueues,
        settings=settings(max_examples=100, stateful_step_count=30, deadline=None),
    )
