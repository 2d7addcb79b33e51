"""Tests for the replication contract of :func:`run_plan`.

Replicate ``i`` of a method runs one session on ``child_rng(seed, i)``
and advances it through the whole checkpoint schedule, so runs are
reproducible, independent of each other, and unchanged by adding more
replicates — in process and through the session pool alike.
"""

import pytest

from repro.experiments.engine import ExperimentPlan, run_plan
from repro.generators.ba import barabasi_albert
from repro.sampling import FrontierSampler, SingleRandomWalk
from repro.sampling.sharded import ShardedSessionPool


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(400, 2, rng=3)


def _plan(graph, **kwargs):
    return ExperimentPlan(
        title="t",
        graph=graph,
        samplers={"FS": FrontierSampler(4), "SRW": SingleRandomWalk()},
        budgets=kwargs.pop("budgets", [50, 120]),
        **kwargs,
    )


def _edges(result, method):
    return [[t.edges for t in row] for row in result.run(method).rows]


class TestReplicate:
    def test_count(self, graph):
        result = run_plan(_plan(graph), 5)
        assert result.replicates == 5
        for method in ("FS", "SRW"):
            run = result.run(method)
            assert run.replicates == run.sessions_started == 5
            assert len(run.steps_taken) == 5

    def test_runs_independent_and_reproducible(self, graph):
        plan = _plan(graph)
        first, again = run_plan(plan, 4), run_plan(plan, 4)
        for method in ("FS", "SRW"):
            rows = _edges(first, method)
            assert rows == _edges(again, method)
            assert len({tuple(row[-1]) for row in rows}) == 4

    def test_prefix_stability(self, graph):
        """Adding replicates never changes earlier replicates' rows,
        in process (``procs=None``) or through the pool (``procs=1``)."""
        plan = _plan(graph)
        for procs in (None, 1):
            short = run_plan(plan, 3, procs=procs)
            long = run_plan(plan, 6, procs=procs)
            for method in ("FS", "SRW"):
                assert _edges(long, method)[:3] == _edges(short, method)
                assert (
                    long.run(method).steps_taken[:3]
                    == short.run(method).steps_taken
                )

    def test_zero_runs_rejected(self, graph):
        for procs in (None, 1):
            with pytest.raises(ValueError, match="replicates"):
                run_plan(_plan(graph), 0, procs=procs)
        with ShardedSessionPool(graph, procs=1) as pool:
            with pytest.raises(ValueError, match="runs"):
                pool.run_anytime(SingleRandomWalk(), [100], 0)


class _CountingSession:
    """A stand-in session that records how it is advanced."""

    def __init__(self):
        self.budget = 0.0
        self.advances = 0
        self.steps_taken = 0
        self.closed = False

    def advance_into(self, accumulator, budget=None, steps=None):
        assert budget >= self.budget  # never rewound
        self.budget = budget
        self.advances += 1
        accumulator.append((self.advances, budget))

    def close(self):
        self.closed = True


class _CountingStarter:
    """Opens one :class:`_CountingSession` per replicate."""

    def __init__(self):
        self.sessions = []

    def __call__(self, sampler, graph, seed, index):
        self.sessions.append(_CountingSession())
        return self.sessions[-1]


class TestReplicateIncremental:
    def test_one_session_per_run_advanced_through_checkpoints(self, graph):
        starter = _CountingStarter()
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"counter": object()},
            budgets=[10, 20, 50],
            accumulator=lambda method: [],
            snapshot=lambda method, accumulator, checkpoint: accumulator[-1],
            starter=starter,
        )
        result = run_plan(plan, 3)
        assert result.run("counter").rows == [
            [(1, 10.0), (2, 20.0), (3, 50.0)]
        ] * 3
        assert len(starter.sessions) == 3
        assert all(session.closed for session in starter.sessions)

    def test_sessions_resume_not_rewalk(self, graph):
        """Each budget checkpoint only pays the incremental steps."""
        plan = ExperimentPlan(
            title="t",
            graph=graph,
            samplers={"FS": FrontierSampler(8, backend="csr")},
            budgets=[100, 300, 600],
            snapshot=lambda method, collector, checkpoint: sum(
                t.num_steps for t in collector.increments
            ),
        )
        for procs in (None, 1):
            run = run_plan(plan, 2, procs=procs).run("FS")
            for row in run.rows:
                assert row == [92, 292, 592]  # 8 seed units once, ever
            assert run.steps_taken == [592, 592]

    def test_reproducible_and_prefix_stable(self):
        plan = ExperimentPlan(
            title="t",
            graph=barabasi_albert(300, 2, rng=3),
            samplers={"SRW": SingleRandomWalk()},
            budgets=[50, 120],
            snapshot=lambda method, collector, checkpoint: tuple(
                collector.trace().edges[-3:]
            ),
            root_seed=9,
        )
        a = run_plan(plan, 3).run("SRW").rows
        b = run_plan(plan, 3).run("SRW").rows
        assert a == b
        assert run_plan(plan, 5).run("SRW").rows[:3] == a

    def test_invalid_budgets_rejected(self, graph):
        for budgets in ([], [50, 20]):
            with pytest.raises(ValueError, match="ascending"):
                run_plan(_plan(graph, budgets=budgets), 2)
        with pytest.raises(ValueError, match="replicates"):
            run_plan(_plan(graph, budgets=[10]), 0)
        with ShardedSessionPool(graph, procs=1) as pool:
            with pytest.raises(ValueError, match="ascending"):
                pool.run_anytime(SingleRandomWalk(), [50, 20], 2)
