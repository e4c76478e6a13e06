"""The four workloads: seeded shapes and operands, set-up, and the closed
measurement loop that times each ``repro`` call against ``np.matmul``.

Every workload is a closed loop with one caller.  A *cell* is one shape
and one entry point (``out`` = ``repro.matmul(out=)``, ``guard`` =
``repro.matmul(guard=True)``, ``batched`` = ``repro.matmul_batched`` over
``BATCH`` stacked products).  The loop runs whole *rounds*: a round is a
seeded permutation of a fixed multiset of cells, so every cell is timed in
every run and the mix does not depend on where the clock stops.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from stats import rel_error

BATCH = 4

#: one shape per paper family: square, outer (N x K x N), tall-skinny
PAPER_SHAPES = [(2048, 2048, 2048), (3072, 512, 3072), (4096, 768, 768)]

#: the mid shapes ``tuned_serve`` tunes during set-up
TUNED_SHAPES = [(768, 768, 768), (1024, 256, 1024), (1536, 384, 384),
                (1024, 1024, 512)]

#: calls per round of one ``small_mixed`` shape, by entry point.  Small
#: shapes follow the 70/15/15 mix; mid shapes run fewer calls per round
#: because the seed serves them 40-80x slower than ``np.matmul``.
SMALL_MIX = {"out": 14, "guard": 3, "batched": 3}
MID_MIX = {"out": 2, "guard": 1, "batched": 1}

WORKLOADS = ("seq_shapes", "par_shapes", "small_mixed", "tuned_serve")


@dataclasses.dataclass(eq=False)
class Cell:
    shape: tuple[int, int, int]
    entry: str
    A: np.ndarray
    B: np.ndarray
    ref: np.ndarray
    out: np.ndarray | None
    np_out: np.ndarray
    bound: float = float("nan")
    plan: str = ""

    @property
    def key(self) -> str:
        return "x".join(map(str, self.shape)) + "/" + self.entry

    @property
    def products(self) -> int:
        return BATCH if self.entry == "batched" else 1


@dataclasses.dataclass(eq=False)
class Workload:
    name: str
    seed: int
    threads: int | None
    cells: list[Cell]
    #: (cell index, calls per round)
    mix: list[tuple[int, int]]
    #: rounds the loop always completes, whatever ``--seconds`` says; the
    #: latency tail level is fixed from the calls they guarantee
    min_rounds: int = 2
    #: extra keyword arguments of every ``repro`` call (``cache``/``tune``)
    kwargs: dict = dataclasses.field(default_factory=dict)
    #: shapes tuned by the first ``tune="auto"`` calls of set-up
    tune_shapes: list = dataclasses.field(default_factory=list)
    np_threads: int = 1

    def shapes(self) -> list[tuple[int, int, int]]:
        return list(dict.fromkeys(c.shape for c in self.cells))

    def working_set_mb(self) -> float:
        """Bytes the loop touches per round trip over every shape:
        operands, product and reference of each distinct cell."""
        arrays = set()
        total = 0
        for c in self.cells:
            for a in (c.A, c.B, c.ref, c.out, c.np_out):
                if a is not None and id(a) not in arrays:
                    arrays.add(id(a))
                    total += a.nbytes
        return total / 2**20

    def call(self, cell: Cell):
        import repro

        if cell.entry == "out":
            return repro.matmul(cell.A, cell.B, out=cell.out,
                                threads=self.threads, **self.kwargs)
        if cell.entry == "guard":
            return repro.matmul(cell.A, cell.B, guard=True,
                                threads=self.threads, **self.kwargs)
        return repro.matmul_batched(cell.A, cell.B, threads=self.threads,
                                    **self.kwargs)

    def call_numpy(self, cell: Cell) -> float:
        """Seconds of ``np.matmul`` on the cell's operands at the same
        BLAS thread count (the context switch itself is not timed)."""
        from repro.parallel import blas

        with blas.blas_threads(self.np_threads):
            t0 = time.perf_counter()
            np.matmul(cell.A, cell.B, out=cell.np_out)
            return time.perf_counter() - t0

    def tail_level(self) -> float:
        """The latency tail percentile of this workload: the highest level
        <= 0.99 with at least ten of the guaranteed calls beyond it.  It
        does not follow the calls a run happens to make, so it never moves
        across a boundary between two cells' latencies from run to run."""
        from stats import tail_level

        return tail_level(self.min_rounds * sum(n for _, n in self.mix))

    def rounds(self, rng: np.random.Generator):
        """Endless seeded rounds of cell indices."""
        multiset = [i for i, n in self.mix for _ in range(n)]
        while True:
            yield [multiset[j] for j in rng.permutation(len(multiset))]


def _operands(rng, shape, batch=None):
    p, q, r = shape
    lead = () if batch is None else (batch,)
    A = rng.standard_normal(lead + (p, q))
    B = rng.standard_normal(lead + (q, r))
    return A, B


def _cell(rng, shape, entry) -> Cell:
    batch = BATCH if entry == "batched" else None
    A, B = _operands(rng, shape, batch)
    ref = np.matmul(A, B)
    out = np.empty_like(ref) if entry == "out" else None
    return Cell(shape, entry, A, B, ref, out, np.empty_like(ref))


def small_mixed_shapes(rng) -> list[tuple[int, int, int]]:
    """16 seeded shapes: 8 whose smallest dimension lies in [8, 127] and 8
    with every dimension in [128, 512].

    Each dimension is a stratum centre plus a seeded offset in [-4, 4], so
    every seed yields the same spread of sizes and plan choices (the
    latency percentiles of a mix depend on its slowest shapes, and plans
    change at size thresholds); axis order rotates with the shape index."""
    def dim(lo, i):
        return int(lo + 24 + 48 * i + rng.integers(-4, 5))

    shapes = []
    for i in range(8):
        dims = [int(15 + 15 * i + rng.integers(-4, 5)), dim(128, i),
                dim(128, 7 - i)]
        shapes.append(tuple(dims[i % 3:] + dims[:i % 3]))
    for i in range(8):
        dims = [dim(128, i), dim(128, (i + 3) % 8), dim(128, (i + 5) % 8)]
        shapes.append(tuple(dims[i % 3:] + dims[:i % 3]))
    return shapes


def neighbour(rng, shape) -> tuple[int, int, int]:
    """A shape within +-10% of ``shape`` in every dimension, never equal."""
    while True:
        cand = tuple(int(round(d * rng.uniform(0.9, 1.1))) for d in shape)
        if cand != shape:
            return cand


def build(name: str, seed: int) -> Workload:
    """The workload's cells, operands and references, all from ``seed``."""
    from repro.parallel.pool import resolve_threads

    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name in ("seq_shapes", "par_shapes"):
        threads = 1 if name == "seq_shapes" else 2
        cells = [_cell(rng, s, "out") for s in PAPER_SHAPES]
        wl = Workload(name, seed, threads, cells,
                      [(i, 1) for i in range(len(cells))])
    elif name == "small_mixed":
        cells, mix = [], []
        for k, shape in enumerate(small_mixed_shapes(rng)):
            for entry, n in (SMALL_MIX if k < 8 else MID_MIX).items():
                mix.append((len(cells), n))
                cells.append(_cell(rng, shape, entry))
        # six rounds of 192 calls put ten calls beyond p99
        wl = Workload(name, seed, None, cells, mix, min_rounds=6)
    elif name == "tuned_serve":
        shapes = TUNED_SHAPES + [neighbour(rng, s) for s in TUNED_SHAPES]
        cells = [_cell(rng, s, "out") for s in shapes]
        wl = Workload(name, seed, None, cells,
                      [(i, 1) for i in range(len(cells))],
                      tune_shapes=list(TUNED_SHAPES))
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.np_threads = resolve_threads(wl.threads)
    return wl


# ----------------------------------------------------------- correctness
def served_bound(wl: Workload, cell: Cell) -> tuple[float, str]:
    """The error bound of the plan that serves ``cell``, and its label:
    ``core.stability.error_bound`` for a fast plan, ``q * eps`` for BLAS."""
    from repro import tuner
    from repro.algorithms import get_algorithm
    from repro.core.stability import error_bound

    p, q, r = cell.shape
    cache = wl.kwargs.get("cache")
    if cell.entry == "batched":
        bplan, _ = tuner.get_batch_plan(p, q, r, BATCH, threads=wl.threads,
                                        cache=cache)
        plan, label = bplan.plan, bplan.describe()
    else:
        plan, _ = tuner.get_plan(p, q, r, threads=wl.threads, cache=cache)
        label = plan.describe()
    if plan.is_dgemm:
        return q * float(np.finfo(np.float64).eps), label
    return error_bound(get_algorithm(plan.algorithm), plan.steps, q,
                       "float64"), label


def failed_products(cell: Cell, result) -> int:
    """How many of the cell's products are wrong (a missing result fails
    them all)."""
    if result is None:
        return cell.products
    result = np.asarray(result)
    if result.shape != cell.ref.shape:
        return cell.products
    if cell.entry != "batched":
        return int(not rel_error(result, cell.ref) <= cell.bound)
    return sum(int(not rel_error(result[i], cell.ref[i]) <= cell.bound)
               for i in range(BATCH))


# ------------------------------------------------------------ set-up
@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, cell: Cell, result) -> None:
        self.attempted += cell.products
        self.failed += failed_products(cell, result)


def _timed_call(wl: Workload, cell: Cell):
    t0 = time.perf_counter()
    try:
        result = wl.call(cell)
    except Exception:  # a raising call is a failed product, not a crash
        result = None
    return result, time.perf_counter() - t0


def setup(wl: Workload, tally: Tally) -> dict:
    """Run the set-up phase and return its timed parts (seconds).

    Timed: the ``tune="auto"`` sweeps of ``tuned_serve`` (first call per
    tuned shape), loading the tuned cache into a fresh ``PlanCache``, and
    the first call of every cell.  Not timed: operand generation,
    references and correctness checks, which are the benchmark's work.
    """
    import repro
    from repro import tuner

    parts = {"tune_s": 0.0, "cache_load_s": 0.0, "first_calls_s": 0.0}
    if wl.tune_shapes:
        by_shape = {c.shape: c for c in wl.cells}
        for shape in wl.tune_shapes:
            cell = by_shape[shape]
            t0 = time.perf_counter()
            try:
                result = repro.matmul(cell.A, cell.B, out=cell.out,
                                      tune="auto")
            except Exception:
                result = None
            parts["tune_s"] += time.perf_counter() - t0
            cell.bound, cell.plan = served_bound(wl, cell)
            tally.add(cell, result)
        t0 = time.perf_counter()
        served = tuner.PlanCache(tuner.default_cache_path()).load()
        parts["cache_load_s"] = time.perf_counter() - t0
        wl.kwargs = {"cache": served, "tune": "auto"}
    for cell in wl.cells:
        result, dt = _timed_call(wl, cell)
        parts["first_calls_s"] += dt
        cell.bound, cell.plan = served_bound(wl, cell)
        tally.add(cell, result)
    return parts


# ------------------------------------------------------------ measurement
@dataclasses.dataclass
class LoopResult:
    #: per cell key: (repro seconds, np.matmul seconds) per call
    times: dict
    latencies: list
    rounds: int
    seconds: float

    def call_ratios(self) -> list:
        """Each call's ``repro`` time over the ``np.matmul`` time of the
        same operands timed right after it."""
        return [t / n for v in self.times.values() for t, n in v]

    def cell_ratios(self) -> dict:
        return {k: float(np.median([n for _, n in v]) / np.median(
            [t for t, _ in v])) for k, v in self.times.items()}


def measure(wl: Workload, seconds: float, tally: Tally,
            timed_call=None) -> LoopResult:
    """The closed loop: whole rounds until ``seconds`` have elapsed.

    Each ``repro`` call is followed by ``np.matmul`` on the same operands;
    the product is checked after both timings.  ``timed_call(wl, cell)``
    replaces the plain timed call (the traced run wraps it in spans).
    """
    timed_call = timed_call or _timed_call
    rng = np.random.default_rng([wl.seed, 7])
    times = {c.key: [] for c in wl.cells}
    latencies = []
    rounds = 0
    start = time.perf_counter()
    for order in wl.rounds(rng):
        for i in order:
            cell = wl.cells[i]
            result, dt = timed_call(wl, cell)
            t_np = wl.call_numpy(cell)
            times[cell.key].append((dt, t_np))
            latencies.append(dt)
            tally.add(cell, result)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= wl.min_rounds and elapsed >= seconds:
            return LoopResult(times, latencies, rounds, elapsed)
