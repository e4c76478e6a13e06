"""The traced run: per-layer metrics from spans around the benchmark's own
calls into each layer's public functions.

Nothing is instrumented inside the program.  Instead, each traced product
also resolves and runs itself step by step through the public dispatch
pieces (``tuner.get_plan`` -> ``tuner.workspace_for`` ->
``tuner.execute_plan``) before the real ``repro`` call on the same
operands, so ``dispatch.overhead_us`` is the real call minus its parts.
Probes after the loop time the remaining layers on the workload's own
shapes: codegen and C compilation (cold, before set-up), arena builds,
the leaf/addition split of each executor, the cost model's shortlist
through ``tuner.tune_shape``, the plan cache's save/load/get/nearest,
``WorkerPool.submit`` round trips, the guard and batched tails, dgemm
rates and stream bandwidth.

Spans hold a name, start, end, parent span and call id; they stay in
memory and are written to ``perfbench/out/trace-<workload>-<seed>.json``
when the run ends, with per-shape detail and the machine context.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time

import numpy as np
import repro
from repro import tuner
from repro.algorithms import get_algorithm
from repro.codegen import cbackend, compile_algorithm
from repro.core.cost import (addition_rw_counts, classical_flops,
                             estimate_recursive_flops, plan_cost)
from repro.obs import telemetry
from repro.parallel import blas
from repro.parallel.add import stream_triad
from repro.parallel.pool import WorkerPool

import workloads
from stats import geomean, median, spearman

#: auto-policy sweep parameters (``repro.tuner.policy.AutoTunePolicy``)
SHORTLIST = 4
TUNE_TRIALS = 1
#: wall-clock cap of one shortlist sweep
TUNE_BUDGET_S = 4.0

#: per-array size of the stream probe
STREAM_MB = 64.0

UNITS = {
    "dispatch.overhead_us": "us",
    "dispatch.get_plan_us": "us",
    "dispatch.source_share.trivial": "share",
    "dispatch.source_share.cache": "share",
    "dispatch.source_share.nearest": "share",
    "dispatch.source_share.model": "share",
    "dispatch.fast_plan_share": "share",
    "dispatch.backend_share.compiled": "share",
    "workspace.lookup_us": "us",
    "workspace.hit_ratio": "share",
    "workspace.build_ms": "ms",
    "workspace.arena_mb": "MB",
    "workspace.overflows": "count",
    "exec.ms": "ms",
    "exec.leaf_gemm_share": "share",
    "exec.additions_ms": "ms",
    "exec.additions_gbs": "GB/s",
    "exec.leaf_gflops": "GFLOP/s",
    "exec.leaf_flops": "flop",
    "exec.addition_bytes": "B",
    "exec.leaf_estimated_share": "share",
    "codegen.compile_ms": "ms",
    "cbackend.compile_ms": "ms",
    "parallel.speedup": "x",
    "pool.roundtrip_us": "us",
    "model.chosen_over_best": "x",
    "model.rank_corr": "corr",
    "model.enumerate_ms": "ms",
    "tune.sweep_s": "s",
    "tune.candidates": "count",
    "tune.fast_winner_share": "share",
    "cache.load_ms": "ms",
    "cache.save_ms": "ms",
    "cache.get_us": "us",
    "cache.nearest_us": "us",
    "guard.overhead_us": "us",
    "guard.fallbacks": "count",
    "batched.per_element_us": "us",
    "batched.per_element_over_call": "x",
    "blas.dgemm_gflops_1t": "GFLOP/s",
    "blas.dgemm_gflops_2t": "GFLOP/s",
    "mem.stream_gbs": "GB/s",
    "trace.overhead": "x",
}


class Tracer:
    """In-memory spans: ``{id, name, parent, call, start_ns, end_ns}``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, call: int | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if call is None and parent is not None:
            call = self.spans[parent]["call"]
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "call": call, "start_ns": time.perf_counter_ns(),
               "end_ns": None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    @staticmethod
    def seconds(rec: dict) -> float:
        return (rec["end_ns"] - rec["start_ns"]) * 1e-9

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children
        cover (children of one span never overlap: one caller thread)."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end_ns"] - s["start_ns"]
        out: dict[str, float] = {}
        for s in self.spans:
            dur = s["end_ns"] - s["start_ns"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + dur * 1e-9
        return out


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def _gflops(shape, seconds: float) -> float:
    p, q, r = shape
    return 2.0 * p * q * r / seconds / 1e9


def _leaf_shape(alg, shape, steps):
    m, k, n = alg.base_case
    p, q, r = shape
    return (max(1, p // m**steps), max(1, q // k**steps),
            max(1, r // n**steps))


def addition_bytes(alg, plan, shape) -> float:
    """Computed bytes the S/T/C additions move: per level, the Section 3.2
    read/write block counts of ``core.cost.addition_rw_counts`` times the
    mean block size, over every subproblem of that level."""
    reads, writes = addition_rw_counts(alg, plan.strategy)
    m, k, n = alg.base_case
    p, q, r = shape
    total = 0.0
    for lvl in range(plan.steps):
        bp, bq, br = p / m**(lvl + 1), q / k**(lvl + 1), r / n**(lvl + 1)
        block = (bp * bq + bq * br + bp * br) / 3
        total += alg.rank**lvl * (reads + writes) * block * 8
    return total


class TracedRun:
    def __init__(self, wl, work):
        self.wl = wl
        self.work = work
        self.tr = Tracer()
        self.ids = itertools.count()
        self.detail: dict = {"shapes": {}}
        #: per traced call: (matmul s, get_plan s, workspace_for s, execute s)
        self.decomposed: list[tuple] = []
        self.sources: list[str] = []
        self.fast: list[bool] = []
        self.compiled: list[bool] = []
        self.lookups: list[tuple[float, bool]] = []
        self.arenas: dict[int, int] = {}
        self.overflows = 0
        self.exec_times: dict = {}
        self.guard_pairs: list[float] = []
        self.batched_pairs: list[tuple[float, float]] = []

    # ------------------------------------------------------------ helpers
    @property
    def cache(self):
        return self.wl.kwargs.get("cache")

    def served_plan(self, shape):
        return tuner.get_plan(*shape, threads=self.wl.threads,
                              cache=self.cache)

    def out_cells(self):
        """One 2-D cell per distinct shape (every workload has an ``out``
        cell for each of its shapes)."""
        return [c for c in self.wl.cells if c.entry == "out"]

    def probe_cell(self):
        """The cheapest non-trivial ``out`` cell, for probes of layers the
        workload itself does not call."""
        cells = [c for c in self.out_cells()
                 if not self.served_plan(c.shape)[0].is_dgemm] \
            or self.out_cells()
        return min(cells, key=lambda c: np.prod(c.shape))

    # ------------------------------------------------------- traced call
    def traced_call(self, wl, cell):
        """One product: the decomposed dispatch, then the real call, then
        the guard/batched comparison call, all under one call id."""
        call = next(self.ids)
        p, q, r = cell.shape
        with self.tr.span("product", call=call, cell=cell.key):
            if cell.entry == "batched":
                with self.tr.span("tuner.get_batch_plan"):
                    bplan, source = tuner.get_batch_plan(
                        p, q, r, workloads.BATCH, threads=wl.threads,
                        cache=self.cache)
                plan = bplan.plan
                parts = None
            else:
                with self.tr.span("tuner.get_plan") as s_plan:
                    plan, source = tuner.get_plan(p, q, r,
                                                  threads=wl.threads,
                                                  cache=self.cache)
                parts = self._decompose(cell, plan, s_plan) \
                    if cell.entry == "out" else None
            self.sources.append(source)
            self.fast.append(not plan.is_dgemm)
            self.compiled.append(plan.backend == "compiled")
            with self.tr.span("repro." + cell.entry) as s_call:
                try:
                    result = wl.call(cell)
                except Exception:
                    result = None
            dt = Tracer.seconds(s_call)
            if parts is not None:
                self.decomposed.append((dt,) + parts)
            if cell.entry == "guard":
                with self.tr.span("repro.out.unguarded") as s_plain:
                    _plain_call(wl, cell)
                self.guard_pairs.append(dt - Tracer.seconds(s_plain))
            elif cell.entry == "batched":
                with self.tr.span("repro.out.element") as s_one:
                    _plain_call(wl, cell, element=0)
                self.batched_pairs.append((dt / workloads.BATCH,
                                           Tracer.seconds(s_one)))
        return result, dt

    def _decompose(self, cell, plan, s_plan):
        p, q, r = cell.shape
        A, B = cell.A, cell.B
        with self.tr.span("tuner.workspace_for") as s_ws:
            ws = tuner.workspace_for(plan, p, q, r, A.dtype, B.dtype)
        if ws is not None:
            self.lookups.append((Tracer.seconds(s_ws), ws.uses > 1))
            self.arenas[id(ws)] = ws.stats()["nbytes"]
            before = ws.overflow_allocations
        with self.tr.span("tuner.execute_plan") as s_ex:
            tuner.execute_plan(plan, A, B, out=cell.np_out, workspace=ws)
        if ws is not None:
            self.overflows += ws.overflow_allocations - before
        self.exec_times.setdefault(cell.shape, []).append(
            Tracer.seconds(s_ex))
        return (Tracer.seconds(s_plan), Tracer.seconds(s_ws),
                Tracer.seconds(s_ex))

    # ------------------------------------------------------------ probes
    def compile_probes(self) -> dict:
        """Cold codegen and C compilation of the algorithms the model
        serves this workload (Strassen when it serves none)."""
        algs = {}
        for shape in self.wl.shapes():
            plan, _ = self.served_plan(shape)
            if not plan.is_dgemm:
                algs.setdefault(plan.algorithm, plan.strategy)
        algs = algs or {"strassen": "write_once"}
        out = {"codegen": 0.0, "cbackend": 0.0, "algorithms": sorted(algs)}
        have_cc = cbackend.available()
        for name, strategy in algs.items():
            alg = get_algorithm(name)
            with self.tr.span("codegen.compile_algorithm") as s:
                compile_algorithm(alg, strategy=strategy)
            out["codegen"] += Tracer.seconds(s)
            if have_cc:
                with self.tr.span("cbackend.compile_chains") as s:
                    cbackend.compile_chains(name)
                out["cbackend"] += Tracer.seconds(s)
        out["cbackend_available"] = have_cc
        return out

    def exec_split(self) -> dict:
        """Leaf-GEMM versus addition time per shape.  Generated NumPy
        modules report their leaf time through the ``base=`` hook; other
        executors get ``R^steps`` x the median ``np.matmul`` at the leaf
        shape, labelled as an estimate."""
        tot = {"exec": 0.0, "leaf": 0.0, "flops": 0.0, "bytes": 0.0,
               "estimated": 0, "fast": 0}
        per_shape_ms = []
        for cell in self.out_cells():
            shape = cell.shape
            if shape not in self.exec_times:
                continue
            plan, _ = self.served_plan(shape)
            t_exec = median(self.exec_times[shape])
            per_shape_ms.append(1e3 * t_exec)
            row = self.detail["shapes"].setdefault("x".join(map(str, shape)), {})
            row.update(plan=plan.describe(), exec_ms=1e3 * t_exec)
            if plan.is_dgemm:
                leaf, flops, nbytes, how = t_exec, classical_flops(*shape), 0.0, "dgemm"
            else:
                tot["fast"] += 1
                alg = get_algorithm(plan.algorithm)
                flops = estimate_recursive_flops(alg, *shape, plan.steps)[0]
                nbytes = addition_bytes(alg, plan, shape)
                if plan.scheme == "sequential" and plan.backend == "numpy":
                    leaf, how = self._hooked_leaf(cell, plan, alg), "base-hook"
                else:
                    leaf, how = self._estimated_leaf(cell, plan, alg), "estimate"
                    tot["estimated"] += 1
            tot["exec"] += t_exec
            tot["leaf"] += leaf
            tot["flops"] += flops
            tot["bytes"] += nbytes
            row.update(leaf_ms=1e3 * leaf, leaf_source=how,
                       additions_ms=1e3 * (t_exec - leaf),
                       leaf_flops=flops, addition_bytes=nbytes)
        adds = tot["exec"] - tot["leaf"]
        return {
            "exec.ms": geomean(per_shape_ms) if per_shape_ms else 0.0,
            "exec.leaf_gemm_share": tot["leaf"] / tot["exec"] if tot["exec"] else 0.0,
            "exec.additions_ms": 1e3 * adds,
            "exec.additions_gbs": tot["bytes"] / adds / 1e9 if adds > 0 else 0.0,
            "exec.leaf_gflops": tot["flops"] / tot["leaf"] / 1e9 if tot["leaf"] else 0.0,
            "exec.leaf_flops": tot["flops"],
            "exec.addition_bytes": tot["bytes"],
            "exec.leaf_estimated_share": tot["estimated"] / tot["fast"] if tot["fast"] else 0.0,
        }

    def _hooked_leaf(self, cell, plan, alg) -> float:
        tr = self.tr

        def base(a, b):
            with tr.span("exec.leaf_gemm"):
                return a @ b

        fn = compile_algorithm(alg, strategy=plan.strategy)
        ws = tuner.build_workspace(plan, *cell.shape, cell.A.dtype, cell.B.dtype)
        with blas.blas_threads(plan.threads):
            for _ in range(2):  # the first run warms the arena
                with tr.span("exec.hooked") as run:
                    fn(cell.A, cell.B, steps=plan.steps, base=base,
                       out=cell.np_out, workspace=ws)
        return sum(Tracer.seconds(s) for s in tr.spans[run["id"] + 1:]
                   if s["name"] == "exec.leaf_gemm")

    def _estimated_leaf(self, cell, plan, alg) -> float:
        lp, lq, lr = _leaf_shape(alg, cell.shape, plan.steps)
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((lp, lq)), rng.standard_normal((lq, lr))
        concurrent = plan.scheme in ("bfs", "hybrid", "hybrid-subgroup")
        threads = 1 if concurrent else plan.threads
        with blas.blas_threads(threads):
            with self.tr.span("blas.leaf_probe"):
                t = _median_time(lambda: a @ b, 5)
        self.detail.setdefault("leaf_gflops", {})[f"{lp}x{lq}x{lr}@{threads}t"] = \
            _gflops((lp, lq, lr), t)
        total = alg.rank**plan.steps * t
        return total / plan.threads if concurrent else total

    def tuning_probes(self) -> dict:
        """The auto policy's sweep (``tuner.tune_shape``) on each shape the
        workload tunes or serves, into a scratch cache; the cost model's
        pick against the measured shortlist; the cache's own calls."""
        shapes = self.wl.tune_shapes or [
            s for s in self.wl.shapes()
            if self.served_plan(s)[1] != "trivial"]
        if not shapes:
            shapes = [self.probe_cell().shape]
        scratch = tuner.PlanCache(self.work / "shortlist.json")
        sweep, cands, fast_wins, enum_ms, over, corr = 0.0, 0, 0, [], [], []
        for shape in shapes:
            with self.tr.span("tuner.enumerate_plans") as s:
                tuner.enumerate_plans(*shape, threads=self.wl.np_threads,
                                      max_candidates=SHORTLIST)
            enum_ms.append(1e3 * Tracer.seconds(s))
            with self.tr.span("tuner.tune_shape") as s:
                report = tuner.tune_shape(
                    *shape, threads=self.wl.np_threads, cache=scratch,
                    max_candidates=SHORTLIST, trials=TUNE_TRIALS,
                    budget_s=TUNE_BUDGET_S, persist=False)
            sweep += Tracer.seconds(s)
            cands += len(report.measurements)
            fast_wins += not report.best.plan.is_dgemm
            timed = {m.plan: m.seconds for m in report.measurements}
            chosen, _ = self.served_plan(shape)
            if chosen not in timed:
                A, B = tuner.tuning_operands(*shape)
                with self.tr.span("tuner.measure_plan"):
                    timed[chosen] = tuner.measure_plan(
                        chosen, A, B, trials=TUNE_TRIALS).seconds
            over.append(timed[chosen] / min(timed.values()))
            costs = [plan_cost(None if pl.is_dgemm else get_algorithm(pl.algorithm),
                               *shape, pl.steps, scheme=pl.scheme,
                               threads=pl.threads, subgroup=pl.subgroup,
                               backend=pl.backend) for pl in timed]
            corr.append(spearman(costs, list(timed.values())))
            self.detail["shapes"].setdefault("x".join(map(str, shape)), {}).update(
                shortlist_ms={pl.describe(): 1e3 * t for pl, t in timed.items()},
                chosen=chosen.describe(), chosen_over_best=over[-1])
        with self.tr.span("cache.save") as s_save:
            scratch.save()
        with self.tr.span("cache.load") as s_load:
            fresh = tuner.PlanCache(scratch.path).load()
        rng = np.random.default_rng([self.wl.seed, 11])
        near = [workloads.neighbour(rng, s) for s in shapes]
        th = self.wl.np_threads
        with self.tr.span("cache.get"):
            get_s = _median_time(
                lambda: [fresh.get(*s, "float64", th) for s in shapes], 50)
        with self.tr.span("cache.nearest"):
            near_s = _median_time(
                lambda: [fresh.nearest(*s, "float64", th) for s in near], 50)
        return {
            "model.chosen_over_best": geomean(over),
            "model.rank_corr": float(np.mean(corr)),
            "model.enumerate_ms": median(enum_ms),
            "tune.sweep_s": sweep,
            "tune.candidates": cands,
            "tune.fast_winner_share": fast_wins / len(shapes),
            "cache.load_ms": 1e3 * Tracer.seconds(s_load),
            "cache.save_ms": 1e3 * Tracer.seconds(s_save),
            "cache.get_us": 1e6 * get_s / len(shapes),
            "cache.nearest_us": 1e6 * near_s / len(near),
        }

    def parallel_speedup(self) -> float:
        """Sequential 1-thread run of each parallel plan's algorithm and
        steps over the parallel plan's time (1.0 when no plan is parallel)."""
        ratios = []
        for cell in self.out_cells():
            plan, _ = self.served_plan(cell.shape)
            if plan.is_dgemm or plan.scheme == "sequential" \
                    or cell.shape not in self.exec_times:
                continue
            seq = tuner.Plan(algorithm=plan.algorithm, steps=plan.steps,
                             strategy=plan.strategy, threads=1)
            with self.tr.span("parallel.sequential_twin"):
                t_seq = tuner.measure_plan(seq, cell.A, cell.B, trials=1).seconds
            ratios.append(t_seq / median(self.exec_times[cell.shape]))
        return geomean(ratios) if ratios else 1.0

    def guard_batched_probes(self) -> None:
        """Guard and batched comparisons on the cheapest shape, for
        workloads whose loop has no such calls."""
        if self.guard_pairs and self.batched_pairs:
            return
        cell = self.probe_cell()
        th = self.wl.threads
        kw = self.wl.kwargs
        A3 = np.stack([cell.A] * workloads.BATCH)
        B3 = np.stack([cell.B] * workloads.BATCH)
        repro.matmul(cell.A, cell.B, guard=True, threads=th, **kw)
        repro.matmul_batched(A3, B3, threads=th, **kw)
        for _ in range(3):
            with self.tr.span("repro.guard") as g:
                repro.matmul(cell.A, cell.B, guard=True, threads=th, **kw)
            with self.tr.span("repro.out.unguarded") as u:
                repro.matmul(cell.A, cell.B, threads=th, **kw)
            with self.tr.span("repro.batched") as b:
                repro.matmul_batched(A3, B3, threads=th, **kw)
            self.guard_pairs.append(Tracer.seconds(g) - Tracer.seconds(u))
            self.batched_pairs.append((Tracer.seconds(b) / workloads.BATCH,
                                       Tracer.seconds(u)))

    def machine_probes(self) -> dict:
        """dgemm rates at 1 and 2 threads on every workload shape, a
        no-op ``WorkerPool.submit`` round trip and stream-triad bandwidth."""
        rates = {1: [], 2: []}
        for cell in self.out_cells():
            row = self.detail["shapes"].setdefault(
                "x".join(map(str, cell.shape)), {})
            for th in rates:
                with blas.blas_threads(th):
                    with self.tr.span("blas.dgemm_probe", threads=th):
                        t = _median_time(
                            lambda: np.matmul(cell.A, cell.B, out=cell.np_out), 3)
                rates[th].append(_gflops(cell.shape, t))
                row[f"dgemm_gflops_{th}t"] = rates[th][-1]
        pool = WorkerPool(self.wl.np_threads)
        try:
            with self.tr.span("pool.submit_roundtrip"):
                rt = _median_time(lambda: pool.submit(int).result(), 200)
            with self.tr.span("mem.stream"):
                gbs = stream_triad(pool, self.wl.np_threads,
                                   size_mb=STREAM_MB) * 2**30 / 1e9
        finally:
            pool.shutdown()
        self.detail["stream_array_mb"] = STREAM_MB
        return {
            "blas.dgemm_gflops_1t": geomean(rates[1]),
            "blas.dgemm_gflops_2t": geomean(rates[2]),
            "mem.stream_gbs": gbs,
            "pool.roundtrip_us": 1e6 * rt,
        }

    def build_probes(self) -> float:
        """Cold arena builds for each distinct served (plan, shape)."""
        total = 0.0
        for cell in self.out_cells():
            plan, _ = self.served_plan(cell.shape)
            if plan.is_dgemm:
                continue
            with self.tr.span("tuner.build_workspace") as s:
                tuner.build_workspace(plan, *cell.shape, cell.A.dtype,
                                      cell.B.dtype)
            total += Tracer.seconds(s)
        return 1e3 * total


def _plain_call(wl, cell, element=None):
    """The unguarded single-product call on a cell's operands."""
    A, B = (cell.A, cell.B) if element is None else (cell.A[element],
                                                     cell.B[element])
    return repro.matmul(A, B, threads=wl.threads, **wl.kwargs)


def traced_run(wl, args, tally, work) -> dict:
    """Set-up, an untraced half and a traced half of the loop, then the
    probes; returns the per-layer metrics."""
    run = TracedRun(wl, work)
    compile_info = run.compile_probes()
    with run.tr.span("setup"):
        workloads.setup(wl, tally)
    half = max(args.seconds / 2, 0.5)
    plain = workloads.measure(wl, half, tally)
    telemetry.enable()
    traced = workloads.measure(wl, half, tally, timed_call=run.traced_call)
    fallbacks = sum(row["value"] for row in telemetry.snapshot()["counters"]
                    if row["name"] == "guard.fallbacks")
    telemetry.disable()
    speedup = {k: geomean(v.cell_ratios().values())
               for k, v in (("plain", plain), ("traced", traced))}

    n = len(run.sources)
    over = [m - (g + w + e) for m, g, w, e in run.decomposed]
    arena_lookups = [t for t, _ in run.lookups]
    metrics = {
        "dispatch.overhead_us": 1e6 * median(over) if over else 0.0,
        "dispatch.get_plan_us": 1e6 * median(
            [Tracer.seconds(s) for s in run.tr.named("tuner.get_plan")]
            or [0.0]),
        "dispatch.fast_plan_share": sum(run.fast) / n,
        "dispatch.backend_share.compiled": sum(run.compiled) / n,
        "workspace.lookup_us": 1e6 * median(arena_lookups) if arena_lookups else 0.0,
        "workspace.hit_ratio": (sum(h for _, h in run.lookups) / len(run.lookups)
                                if run.lookups else 1.0),
        "workspace.arena_mb": sum(run.arenas.values()) / 2**20,
        "workspace.overflows": run.overflows,
        "codegen.compile_ms": 1e3 * compile_info["codegen"],
        "cbackend.compile_ms": 1e3 * compile_info["cbackend"],
        "guard.fallbacks": fallbacks,
        "trace.overhead": speedup["traced"] - speedup["plain"],
    }
    for src in ("trivial", "cache", "nearest", "model"):
        metrics[f"dispatch.source_share.{src}"] = run.sources.count(src) / n
    metrics.update(run.exec_split())
    metrics["parallel.speedup"] = run.parallel_speedup()
    metrics["workspace.build_ms"] = run.build_probes()
    run.guard_batched_probes()
    metrics["guard.overhead_us"] = 1e6 * median(run.guard_pairs)
    metrics["batched.per_element_us"] = 1e6 * median(
        [b for b, _ in run.batched_pairs])
    metrics["batched.per_element_over_call"] = median(
        [b / s for b, s in run.batched_pairs])
    metrics.update(run.tuning_probes())
    metrics.update(run.machine_probes())

    self_s = run.tr.self_seconds()
    run.detail.update(
        workload=wl.name, seed=wl.seed, calls=n, compile=compile_info,
        speedup_plain=speedup["plain"], speedup_traced=speedup["traced"],
        self_seconds=self_s)
    # the run's work directory is removed; its parent is kept
    path = work.parent / f"trace-{wl.name}-seed{wl.seed}.json"
    path.write_text(json.dumps({"detail": run.detail, "spans": run.tr.spans},
                               default=str))
    print(f"# trace: {path.name}: {len(run.tr.spans)} spans")
    # a layer can save at most its share of the traced run's blocking time
    total = sum(Tracer.seconds(s) for s in run.tr.spans if s["parent"] is None)
    for name, sec in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"# self {name:<28} {sec * 1e3:12.3f} ms {100 * sec / total:6.2f}%")
    for shape, row in run.detail["shapes"].items():
        print(f"# shape {shape}: {json.dumps(row, default=str)}")
    missing = set(UNITS) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return {k: {"value": float(metrics[k]), "unit": UNITS[k]} for k in UNITS}
