"""The benchmark's four workloads.

Each workload builds its inputs from the run seed (:meth:`Workload.build`,
timed as set-up), runs units of work (:meth:`Workload.unit`, timed),
and checks every unit's outputs afterwards (:meth:`Workload.check`).
Unit ``k`` replicates from :func:`unit_seed` ``(seed, k)``, so units
are independent samples and any unit can be rerun exactly.

- ``table4-mc``: table 4's Monte Carlo loop through ``run_plan`` on the
  three miniature LCCs as ``CSRGraph``s; ~20-step walks, so per-call
  overhead dominates.
- ``fig4-sweep``: the fig-4 budget sweep (``degree_error_budget_sweep``)
  on the flickr-like LCC passed as a ``Graph``, on the default backend.
- ``fs-wide-fused``: BA n=10^5 as a ``CSRGraph``, FS(m=1000)/SRW/MHRW,
  degree CCDF + average degree + size, in-process ``run_plan`` (fused).
- ``fs-wide-suite``: the same scenario through ``run_suite`` with two
  thread workers and checkpoints in a temporary ``out_dir`` (drained).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.registry import flickr_like
from repro.experiments.degree_errors import degree_error_budget_sweep
from repro.experiments.engine import ExperimentPlan, default_budget_schedule, run_plan
from repro.experiments.figures import _lcc_with_labels
from repro.experiments.suite import _ESTIMATORS, Scenario, SuiteSpec, _budget_key, run_suite
from repro.experiments.tables import _final_edge_snapshot, _table4_graphs
from repro.generators.ba import barabasi_albert
from repro.graph.components import largest_connected_component
from repro.graph.csr import CSRGraph, get_csr
from repro.markov.transient import single_rw_edge_probabilities
from repro.metrics.errors import nmse, nmse_curve, relative_bias
from repro.sampling import FrontierSampler, MultipleRandomWalk, SingleRandomWalk, _native
from repro.sampling.base import get_default_backend, steps_within_budget
from repro.util.stats import ccdf_from_pmf

clock = time.perf_counter

#: Largest |z| a Monte Carlo mean may sit from its exact value (two-sided
#: false-alarm rate about 2e-9 per test).
Z_LIMIT = 6.0


#: MHRW's CCDF is checked where its limit is at least this large ...
MH_CCDF_FLOOR = 0.01
#: ... to this relative error of the mean over replicates.
MH_CCDF_TOLERANCE = 0.1


def unit_seed(seed: int, index: int) -> int:
    """Replicate root seed of unit ``index`` in a run seeded ``seed``."""
    digest = hashlib.sha256(f"perfbench\x1f{seed}\x1f{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _finite(value: Any) -> bool:
    if isinstance(value, dict):
        return bool(value) and all(_finite(v) for v in value.values())
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclasses.dataclass
class Unit:
    """One timed unit of work and what the program reported for it."""

    index: int
    seconds: float
    sessions: int
    #: Walker steps from the program's receipts.
    steps: int
    #: Steps planned by ``steps_within_budget`` for the same schedule.
    planned_steps: int
    output: Any
    failed: int = 0
    #: Check failures found when the unit was settled.
    errors: List[str] = dataclasses.field(default_factory=list)


def _planned(sampler: Any, budget: float) -> Tuple[int, int]:
    """``(receipt, walker steps)`` one session walks to ``budget``.

    The receipt is per walker for MultipleRW (split budget), total
    otherwise — the ``MethodRun.steps_taken`` convention.
    """
    split = isinstance(sampler, MultipleRandomWalk)
    walkers = int(
        getattr(sampler, "num_walkers", None) or getattr(sampler, "dimension", 1)
    )
    receipt = steps_within_budget(budget, walkers, sampler.seed_cost, split=split)
    return receipt, receipt * (walkers if split else 1)


def _walker_multiplier(sampler: Any) -> int:
    return int(sampler.num_walkers) if isinstance(sampler, MultipleRandomWalk) else 1


def _load_kernels() -> float:
    """Time loading the kernel library from its (warm) on-disk cache:
    source digest, declaration check, ``dlopen`` and ``argtypes`` —
    what a fresh process pays (``load()`` itself is memoized)."""
    start = clock()
    library = _native._compile_and_load()
    elapsed = clock() - start
    if library is None:
        raise RuntimeError("native kernels did not load")
    return elapsed


class Workload:
    name = ""
    #: Set-up repetitions per run; ``setup_s`` is their median.
    setup_reps = 3

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.graph_seed = unit_seed(seed, -1)
        #: Set by the traced run: wraps hot callables that get no span.
        self.tracer: Any = None

    def build(self) -> Dict[str, float]:
        """Build the inputs; returns ``{"build_s", "csr_s", "kernel_s"}``."""
        raise NotImplementedError

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def sessions_per_unit(self) -> int:
        raise NotImplementedError

    def settle(self, unit: Unit) -> List[str]:
        """Untimed, right after ``unit`` ran: count its failed sessions,
        check work conservation and its outputs, then let the workload
        shrink the output (retained outputs must not inflate the peak
        RSS the program is measured by).  Returns error messages."""
        unit.failed += self.failures(unit)
        errors = []
        if unit.steps != unit.planned_steps:
            errors.append(
                f"unit {unit.index}: walked {unit.steps} steps, planned {unit.planned_steps}"
            )
        return errors + self.check_unit(unit)

    def failures(self, unit: Unit) -> int:
        """Sessions of ``unit`` whose snapshot is missing or not finite."""
        return 0

    def check_unit(self, unit: Unit) -> List[str]:
        return []

    def check(self, units: Sequence[Unit]) -> List[str]:
        """Checks over all settled units; returns error messages."""
        return []

    def equivalence(self, first: Unit) -> List[str]:
        """Cross-mode checks run once, after timing."""
        return []

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# table4-mc
# ----------------------------------------------------------------------
class Table4MC(Workload):
    name = "table4-mc"
    setup_reps = 25
    replicates = 300
    graph_size = 150
    num_walkers = 10

    def build(self) -> Dict[str, float]:
        start = clock()
        graphs = _table4_graphs(self.graph_size, self.graph_seed)
        self.lccs = {
            name: largest_connected_component(graph)[0]
            for name, graph in graphs.items()
        }
        built = clock()
        self.csrs = {name: CSRGraph.from_graph(lcc) for name, lcc in self.lccs.items()}
        converted = clock()
        kernel_s = _load_kernels()
        # Table 4's budgets: B = 3K on the tree-like graph, 2K elsewhere.
        self.budgets = {
            "internet-rlt-mini": 3 * self.num_walkers,
            "youtube-mini": 2 * self.num_walkers,
            "hepth-mini": 2 * self.num_walkers,
        }
        return {"build_s": built - start, "csr_s": converted - built, "kernel_s": kernel_s}

    def sessions_per_unit(self) -> int:
        return len(self.budgets) * len(self.samplers()) * self.replicates

    def samplers(self) -> Dict[str, Any]:
        return {
            "FS": FrontierSampler(self.num_walkers),
            "MRW": MultipleRandomWalk(self.num_walkers),
            "SRW": SingleRandomWalk(),
        }

    def unit(self, index: int) -> Unit:
        root = unit_seed(self.seed, index)
        samplers = self.samplers()
        method_seed = {method: root + 31 * i for i, method in enumerate(samplers)}
        output: Dict[str, Dict[str, List[Any]]] = {}
        sessions = steps = planned = 0
        for name, budget in self.budgets.items():
            plan = ExperimentPlan(
                title=f"table4-mc ({name})",
                graph=self.csrs[name],
                samplers=samplers,
                budgets=[float(budget)],
                snapshot=_final_edge_snapshot,
                method_seed=method_seed,
            )
            outcome = run_plan(plan, self.replicates)
            output[name] = {}
            for method, run in outcome.methods.items():
                output[name][method] = [row[0] for row in run.rows]
                sampler = samplers[method]
                sessions += run.sessions_started
                steps += run.total_steps() * _walker_multiplier(sampler)
                planned += _planned(sampler, budget)[1] * self.replicates
        return Unit(index, 0.0, sessions, steps, planned, output)

    def failures(self, unit: Unit) -> int:
        failed = 0
        for name, methods in unit.output.items():
            csr = self.csrs[name]
            for edges in methods.values():
                failed += sum(
                    1 for edge in edges
                    if edge is None or not csr.has_edge(int(edge[0]), int(edge[1]))
                )
        return failed

    def check(self, units: Sequence[Unit]) -> List[str]:
        """SRW's and MultipleRW's final edge follows the exact transient
        law ``p^(t)`` (Appendix B): the mean endpoint degrees of the
        Monte Carlo final edges sit within ``Z_LIMIT`` standard errors
        of their exact expectations."""
        errors = []
        samplers = self.samplers()
        for name, budget in self.budgets.items():
            lcc = self.lccs[name]
            for method in ("SRW", "MRW"):
                sampler = samplers[method]
                steps = _planned(sampler, budget)[0]
                law = single_rw_edge_probabilities(lcc, steps)
                edges = [
                    edge for unit in units for edge in unit.output[name][method]
                    if edge is not None
                ]
                for end in (0, 1):
                    z = _z_score(
                        [lcc.degree(edge[end]) for edge in edges],
                        {edge: lcc.degree(edge[end]) for edge in law},
                        law,
                    )
                    if not abs(z) <= Z_LIMIT:
                        errors.append(
                            f"{name}/{method}: final-edge endpoint {end} degree"
                            f" is {z:+.1f} standard errors from the exact law"
                        )
        return errors


def _z_score(
    samples: Sequence[float], f: Dict[Any, float], law: Dict[Any, float]
) -> float:
    """Standard score of ``mean(samples)`` against ``E_law[f]``."""
    if not samples:
        return math.inf
    mean = sum(law[k] * f[k] for k in law)
    variance = sum(law[k] * (f[k] - mean) ** 2 for k in law)
    error = sum(samples) / len(samples) - mean
    standard = math.sqrt(variance / len(samples))
    if standard == 0:
        return 0.0 if error == 0 else math.inf
    return error / standard


# ----------------------------------------------------------------------
# fig4-sweep
# ----------------------------------------------------------------------
class Fig4Sweep(Workload):
    name = "fig4-sweep"
    setup_reps = 3
    runs = 100
    dimension = 100
    checkpoints = 8
    #: Upper bound on each method's mean CNMSE over the degree support
    #: at the final budget (|V|/2.5); measured 0.10-0.18 across seeds.
    final_error_limit = 0.5

    def build(self) -> Dict[str, float]:
        start = clock()
        dataset = flickr_like(1.0, seed=self.graph_seed)
        self.lcc, self.degree_of = _lcc_with_labels(dataset, dataset.in_degree_of)
        built = clock()
        # The sweep walks whatever the default backend is; on csr the
        # conversion is cached on the graph, so pay it here.
        if get_default_backend() == "csr":
            get_csr(self.lcc)
        converted = clock()
        kernel_s = _load_kernels()
        self.schedule = default_budget_schedule(
            self.lcc.num_vertices / 2.5, self.checkpoints
        )
        return {"build_s": built - start, "csr_s": converted - built, "kernel_s": kernel_s}

    def sessions_per_unit(self) -> int:
        return len(self.samplers()) * self.runs

    def samplers(self) -> Dict[str, Any]:
        return {
            f"FS(m={self.dimension})": FrontierSampler(self.dimension),
            "SingleRW": SingleRandomWalk(),
            f"MultipleRW(m={self.dimension})": MultipleRandomWalk(self.dimension),
        }

    def unit(self, index: int) -> Unit:
        degree_of = self.degree_of
        if self.tracer is not None:
            degree_of = self.tracer.counting("estimators.degree_of", degree_of)
        samplers = self.samplers()
        sweep = degree_error_budget_sweep(
            self.lcc,
            samplers,
            self.schedule,
            self.runs,
            root_seed=unit_seed(self.seed, index),
            degree_of=degree_of,
            metric="ccdf",
        )
        steps = sum(
            walked * _walker_multiplier(samplers[method])
            for method, walked in sweep.steps_walked.items()
        )
        planned = sum(
            _planned(sampler, self.schedule[-1])[1] * self.runs
            for sampler in samplers.values()
        )
        output = {
            "curves": {b: dict(sweep.results[b].curves) for b in sweep.budgets},
            "steps_walked": dict(sweep.steps_walked),
        }
        return Unit(index, 0.0, self.runs * len(samplers), steps, planned, output)

    def failures(self, unit: Unit) -> int:
        """The sweep reports per-method curves, so a missing or
        non-finite curve fails all of that method's replicates."""
        bad = {
            method
            for curves in unit.output["curves"].values()
            for method, curve in curves.items()
            if not _finite(curve)
        }
        missing = set(self.samplers()) - set(unit.output["curves"][self.schedule[-1]])
        return self.runs * len(bad | missing)

    def check_unit(self, unit: Unit) -> List[str]:
        """Mean CNMSE at the final budget stays under a per-method limit
        and falls from the first budget to the last."""
        errors = []
        curves = unit.output["curves"]
        first, last = curves[self.schedule[0]], curves[self.schedule[-1]]
        for method, curve in last.items():
            final = sum(curve.values()) / len(curve)
            start = sum(first[method].values()) / len(first[method])
            if not final <= self.final_error_limit:
                errors.append(
                    f"unit {unit.index} {method}: final mean CNMSE {final:.3f}"
                    f" > {self.final_error_limit}"
                )
            if not final < start:
                errors.append(
                    f"unit {unit.index} {method}: error did not fall with budget"
                    f" ({start:.3f} -> {final:.3f})"
                )
        return errors


# ----------------------------------------------------------------------
# fs-wide-fused / fs-wide-suite
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PrebuiltScenario(Scenario):
    """A suite scenario whose graph the benchmark built in set-up."""

    graph: Any = None

    def build_graph(self) -> Any:
        return self.graph


class FsWide(Workload):
    """BA n=10^5 (3 edges per new vertex) as a ``CSRGraph``; FS(m=1000),
    SRW and MHRW; degree CCDF, average degree and size estimated at an
    8-point schedule to B = 10^5."""

    setup_reps = 3
    num_vertices = 100_000
    edges_per_vertex = 3
    dimension = 1000
    final_budget = 100_000.0
    replicates = 12
    estimators = ("degree_ccdf", "average_degree", "num_vertices")
    #: Largest |mean estimate / target - 1| at the final budget.
    average_degree_tolerance = 0.02
    #: The walk-based collision count undercounts |V| at this budget
    #: (measured ~10% low for FS and SRW across seeds); 0.25 allows it.
    size_tolerance = 0.25
    #: Largest mean NRMSE over the degree support of the CCDF.
    ccdf_tolerance = 0.25

    def build(self) -> Dict[str, float]:
        self.csr = self._truths = self._mh_targets = None
        start = clock()
        graph = barabasi_albert(self.num_vertices, self.edges_per_vertex, rng=self.graph_seed)
        built = clock()
        self.csr = CSRGraph.from_graph(graph)
        converted = clock()
        del graph
        kernel_s = _load_kernels()
        self.schedule = default_budget_schedule(self.final_budget, 8)
        return {"build_s": built - start, "csr_s": converted - built, "kernel_s": kernel_s}

    def scenario(self, index: int) -> Any:
        return PrebuiltScenario(
            id="fs-wide",
            family="ba",
            size=self.num_vertices,
            graph_kwargs={"edges_per_vertex": self.edges_per_vertex},
            graph_seed=self.graph_seed,
            samplers={
                "fs": {"kind": "fs", "dimension": self.dimension},
                "srw": {"kind": "srw"},
                "mhrw": {"kind": "mhrw"},
            },
            estimators=list(self.estimators),
            budgets=list(self.schedule),
            replicates=self.replicates,
            seed=unit_seed(self.seed, index),
            graph=self.csr,
        )

    def sessions_per_unit(self) -> int:
        return 3 * self.replicates

    def planned_steps(self, scenario: Any) -> int:
        return sum(
            _planned(sampler, self.schedule[-1])[1] * self.replicates
            for sampler in scenario.build_samplers().values()
        )

    def run_fused(self, index: int) -> Tuple[Any, Dict[str, Any]]:
        """In-process ``run_plan`` (the fused path); returns the
        scenario and ``{"rows", "steps"}`` by method."""
        scenario = self.scenario(index)
        outcome = run_plan(scenario.build_plan(self.csr), scenario.replicates)
        return scenario, {
            "rows": {m: run.rows for m, run in outcome.methods.items()},
            "steps": {m: list(run.steps_taken) for m, run in outcome.methods.items()},
        }

    def truths(self) -> Dict[str, Any]:
        if self._truths is None:
            self._truths = {name: _ESTIMATORS[name].truth(self.csr) for name in self.estimators}
        return self._truths

    def score(self, rows: Dict[str, List[List[Dict[str, Any]]]]) -> Dict[str, Any]:
        """Score replicate rows exactly as ``run_scenario`` does (eq. 1
        NRMSE, Table 2 bias), so the fused rows can be compared with a
        suite report bit for bit."""
        truths = self.truths()
        methods: Dict[str, Any] = {}
        for method in sorted(rows):
            per_budget: Dict[str, Any] = {}
            for position, budget in enumerate(self.schedule):
                column = [row[position] for row in rows[method]]
                per_estimator: Dict[str, Any] = {}
                for name in self.estimators:
                    measurements = [row[name] for row in column]
                    if _ESTIMATORS[name].kind == "curve":
                        curve = nmse_curve(measurements, truths[name])
                        per_estimator[name] = {
                            "nrmse": sum(curve.values()) / len(curve) if curve else 0.0
                        }
                    else:
                        truth = float(truths[name])
                        per_estimator[name] = {
                            "nrmse": nmse(measurements, truth),
                            "bias": relative_bias(measurements, truth),
                        }
                per_budget[_budget_key(budget)] = per_estimator
            methods[method] = per_budget
        return methods

    def mh_targets(self) -> Dict[str, Any]:
        if self._mh_targets is None:
            self._mh_targets = self._mh_limits()
        return self._mh_targets

    def _mh_limits(self) -> Dict[str, Any]:
        """What MHRW's estimates converge to.

        The scenario feeds MHRW's accepted moves to the eq. (7)/(9)
        estimators, which reweight by 1/degree as for a random walk.
        MHRW's stationary law is uniform, so an accepted move lands on
        ``v`` with probability ``q(v) ∝ sum_{u~v} min(1/d_u, 1/d_v)``,
        and the estimators converge to the q-weighted values below
        rather than to the graph's (about 19% low for the average
        degree on these graphs).
        """
        indptr, indices = self.csr.indptr, self.csr.indices
        degrees = np.diff(indptr).astype(np.float64)
        sources = np.repeat(np.arange(degrees.size), np.diff(indptr))
        weights = np.minimum(1.0 / degrees[sources], 1.0 / degrees[indices])
        q = np.bincount(indices, weights=weights, minlength=degrees.size)
        inverse = q / degrees
        pmf = np.bincount(degrees.astype(np.int64), weights=inverse) / inverse.sum()
        return {
            "average_degree": float(q.sum() / inverse.sum()),
            "degree_ccdf": dict(ccdf_from_pmf({k: float(p) for k, p in enumerate(pmf)})),
        }

    def check_scores(self, index: int, methods: Dict[str, Any]) -> List[str]:
        """Final-budget scores against the exact graph values (FS, SRW)
        or the MHRW limits; the suite's bias statistic recovers the
        mean estimate as ``truth * (1 - bias)``."""
        errors = []
        truth = float(self.truths()["average_degree"])
        for method, per_budget in methods.items():
            final = per_budget[_budget_key(self.schedule[-1])]
            mean = truth * (1.0 - final["average_degree"]["bias"])
            target = self.mh_targets()["average_degree"] if method == "mhrw" else truth
            checks = [("average_degree", abs(mean / target - 1.0), self.average_degree_tolerance)]
            if method != "mhrw":
                checks += [
                    ("num_vertices", abs(final["num_vertices"]["bias"]), self.size_tolerance),
                    ("degree_ccdf", final["degree_ccdf"]["nrmse"], self.ccdf_tolerance),
                ]
            for name, error, tolerance in checks:
                if not error <= tolerance:
                    errors.append(
                        f"unit {index} {method}: {name} off by {error:.4f} > {tolerance}"
                    )
        return errors

    def check_mh_ccdf(self, index: int, rows: Dict[str, Any]) -> List[str]:
        """MHRW's mean CCDF estimate against its exact limit, on the
        degrees the limit gives at least ``MH_CCDF_FLOOR`` mass (the
        rarer tail is too noisy at this budget for a fixed tolerance)."""
        estimates = [row[-1]["degree_ccdf"] for row in rows["mhrw"]]
        worst = 0.0
        for degree, limit in self.mh_targets()["degree_ccdf"].items():
            if limit >= MH_CCDF_FLOOR:
                mean = sum(estimate.get(degree, 0.0) for estimate in estimates) / len(estimates)
                worst = max(worst, abs(mean / limit - 1.0))
        if not worst <= MH_CCDF_TOLERANCE:
            return [f"unit {index} mhrw: degree_ccdf off its limit by {worst:.4f}"]
        return []


class FsWideFused(FsWide):
    name = "fs-wide-fused"

    def unit(self, index: int) -> Unit:
        scenario, output = self.run_fused(index)
        steps = sum(sum(steps) for steps in output["steps"].values())
        sessions = sum(len(rows) for rows in output["rows"].values())
        return Unit(index, 0.0, sessions, steps, self.planned_steps(scenario), output)

    def failures(self, unit: Unit) -> int:
        return sum(
            1
            for rows in unit.output["rows"].values()
            for row in rows
            if len(row) != len(self.schedule)
            or not all(_finite(value) for snapshot in row for value in snapshot.values())
        )

    def check_unit(self, unit: Unit) -> List[str]:
        rows = unit.output["rows"]
        errors = self.check_scores(unit.index, self.score(rows))
        errors += self.check_mh_ccdf(unit.index, rows)
        # Keep a digest of the rows: float reprs are exact, so equal
        # digests mean bit-identical estimates.
        unit.output = {
            "rows_sha256": hashlib.sha256(repr(rows).encode()).hexdigest(),
            "steps": unit.output["steps"],
        }
        return errors


class FsWideSuite(FsWide):
    name = "fs-wide-suite"
    procs = 2

    def __init__(self, seed: int, work_dir: Path) -> None:
        super().__init__(seed, work_dir)
        work_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir = Path(tempfile.mkdtemp(prefix="suite-", dir=work_dir))

    def unit(self, index: int) -> Unit:
        scenario = self.scenario(index)
        spec = SuiteSpec(name="perfbench", description="", seed=self.seed, scenarios=[scenario])
        result = run_suite(spec, procs=self.procs, executor="thread", out_dir=self.out_dir)
        report = result.outcome(scenario.id).result
        written = self.out_dir / "scenarios" / f"{scenario.id}.json"
        payload = json.loads(written.read_text(encoding="utf-8"))
        output = {
            "report": report,
            "checkpoint_ok": payload["result"] == json.loads(json.dumps(report)),
        }
        planned = self.planned_steps(scenario)
        # run_suite reports scores, not step receipts: the walk it did is
        # pinned by equivalence() — bit-identical scores to the fused
        # run, whose receipt equals the plan.
        sessions = len(scenario.samplers) * scenario.replicates
        return Unit(index, 0.0, sessions, planned, planned, output)

    def failures(self, unit: Unit) -> int:
        bad = [
            method for method, per_budget in unit.output["report"]["methods"].items()
            if not all(_finite(stats) for budget in per_budget.values() for stats in budget.values())
        ]
        return len(bad) * self.replicates

    def check_unit(self, unit: Unit) -> List[str]:
        errors = self.check_scores(unit.index, unit.output["report"]["methods"])
        if not unit.output["checkpoint_ok"]:
            errors.append(f"unit {unit.index}: suite checkpoint differs from its report")
        return errors

    def equivalence(self, first: Unit) -> List[str]:
        """fs-wide-fused and fs-wide-suite agree bit for bit."""
        _, fused = self.run_fused(first.index)
        errors = []
        planned = self.planned_steps(self.scenario(first.index))
        walked = sum(sum(steps) for steps in fused["steps"].values())
        if walked != planned:
            errors.append(f"fused reference walked {walked} steps, planned {planned}")
        if self.score(fused["rows"]) != first.output["report"]["methods"]:
            errors.append("fs-wide-suite scores differ from the fused in-process run")
        return errors + self.check_mh_ccdf(first.index, fused["rows"])

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    cls.name: cls for cls in (Table4MC, Fig4Sweep, FsWideFused, FsWideSuite)
}
