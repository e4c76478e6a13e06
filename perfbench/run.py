"""Benchmark ``repro.matmul`` against ``np.matmul`` on the same host.

Run from the repository root::

    python3 perfbench/run.py --workload seq_shapes --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # one table, every workload
    python3 perfbench/run.py --selftest              # short self-check

``--trace 0`` prints the end-to-end metrics (``speedup_vs_numpy``,
``call_p50_vs_numpy``, ``call_p99_vs_numpy``, ``setup_s``,
``peak_rss_mb``; the absolute per-call latencies ``call_p50_ms`` and
``call_p99_ms`` are context on the ``# loop`` line);
``--trace 1`` runs the same workload with spans around the benchmark's own
calls into each layer and prints the per-layer metrics (see
``layers.py``).  The last line of standard output is always one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; lines before it
starting with ``#`` are context (plans, sample counts, machine).

Each run gets fresh plan-cache and compiled-object directories under
``perfbench/out/`` and clears ``REPRO_GUARD``/``REPRO_FAULTS``/``REPRO_OBS``,
so set-up always pays codegen, C compilation and tuning from cold.
"""

import time

_T0 = time.perf_counter()  # process start, as far as the script can see

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: The latency metrics are per-call ratios to ``np.matmul`` on the same
#: operands: absolute latencies on a shared host drift by a quarter between
#: runs of the same code, and the interleaved ratio cancels that drift.
E2E_UNITS = {
    "speedup_vs_numpy": "x",
    "call_p50_vs_numpy": "x",
    "call_p99_vs_numpy": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: set-ups per run (the main process plus fresh child processes);
#: ``setup_s`` is their median
SETUP_REPEATS = 3

#: a child set-up may not outlive the run's 180-second limit
CHILD_TIMEOUT_S = 120

_CLEARED_ENV = ("REPRO_GUARD", "REPRO_FAULTS", "REPRO_OBS",
                "REPRO_OBS_SNAPSHOT", "REPRO_CC")


def isolate(tag: str, parent: Path = OUT) -> Path:
    """Point every cache and temp location of the program at a fresh
    directory inside the checkout; returns it (the caller removes it)."""
    work = parent / f"work-{tag}-{os.getpid()}"
    for sub in ("cache", "xdg", "tmp"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    for var in _CLEARED_ENV:
        os.environ.pop(var, None)
    os.environ["REPRO_PLAN_CACHE"] = str(work / "plans.json")
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    os.environ["XDG_CACHE_HOME"] = str(work / "xdg")
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    return work


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'repro'}; run from a "
                 f"checkout of the repository")


def import_program() -> float:
    """Import the checkout's ``repro`` (never an installed copy); returns
    the seconds the import took."""
    require_program()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import repro
    import repro.tuner  # noqa: F401

    if SRC not in Path(repro.__file__).resolve().parents:
        sys.exit(f"error: imported repro from {repro.__file__}, not {SRC}")
    return time.perf_counter() - t0


def shutdown_program() -> None:
    """Stop every worker pool and watchdog thread the program started."""
    from repro import tuner
    from repro.guard import chain

    tuner.shutdown_shared_pools()
    tuner.reset_batch_pools()
    chain.shutdown_watchdog()


def llc_mb() -> float | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1], None)
        return float(size[:-1]) * scale if scale else float(size) / 2**20
    return None


def machine_context(wl) -> dict:
    from repro.bench.machine import machine_fingerprint
    from repro.codegen import cbackend

    return {
        "fingerprint": machine_fingerprint(),
        "cbackend_available": cbackend.available(),
        "llc_mb": llc_mb(),
        "working_set_mb": round(wl.working_set_mb(), 1),
    }


def info(tag: str, payload) -> None:
    print(f"# {tag}: {json.dumps(payload, sort_keys=True, default=str)}")


def result_line(tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    })


# ------------------------------------------------------------ set-up probe
def child_setup(args, work: Path) -> dict:
    """One cold set-up in a fresh process (fresh caches, fresh import),
    working inside ``work`` so removing it also removes the child's files."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed),
         "--workdir", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def setup_probe(args) -> int:
    startup = time.perf_counter() - _T0
    work = isolate("setup", parent=Path(args.workdir))
    try:
        t_import = import_program()
        import workloads

        wl = workloads.build(args.workload, args.seed)
        tally = workloads.Tally()
        parts = workloads.setup(wl, tally)
        print(json.dumps({"setup_s": startup + t_import + sum(parts.values()),
                          "attempted": tally.attempted,
                          "failed": tally.failed}))
        shutdown_program()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


# ------------------------------------------------------------ measured run
def run(args) -> int:
    startup = time.perf_counter() - _T0
    require_program()
    work = isolate(args.workload)
    try:
        setup_samples, child_tallies = [], []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                res = child_setup(args, work)
                setup_samples.append(res["setup_s"])
                child_tallies.append(res)
        t_import = import_program()
        import workloads

        wl = workloads.build(args.workload, args.seed)
        tally = workloads.Tally()
        for res in child_tallies:
            tally.attempted += res["attempted"]
            tally.failed += res["failed"]
        if args.trace:
            import layers

            metrics = layers.traced_run(wl, args, tally, work)
        else:
            metrics = untraced_run(wl, args, tally,
                                   startup + t_import, setup_samples)
        context = machine_context(wl)
        if args.trace:
            context["stream_array_mb"] = layers.STREAM_MB
        info("machine", context)
        shutdown_program()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(result_line(tally, metrics))
    return 0


def untraced_run(wl, args, tally, t_import, setup_samples) -> dict:
    import workloads
    from stats import geomean, median, percentile

    parts = workloads.setup(wl, tally)
    setup_samples.append(t_import + sum(parts.values()))
    loop = workloads.measure(wl, args.seconds, tally)
    ratios = loop.cell_ratios()
    slowdowns = loop.call_ratios()
    n = len(loop.latencies)
    level = wl.tail_level()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "speedup_vs_numpy": geomean(ratios.values()),
        "call_p50_vs_numpy": median(slowdowns),
        "call_p99_vs_numpy": percentile(slowdowns, level),
        "setup_s": median(setup_samples),
        "peak_rss_mb": rss_mb,
    }
    info("loop", {"workload": wl.name, "seed": wl.seed, "calls": n,
                  "rounds": loop.rounds, "seconds": round(loop.seconds, 3),
                  "tail_percentile": round(100 * level, 2),
                  "call_p50_ms": median(loop.latencies) * 1e3,
                  "call_p99_ms": percentile(loop.latencies, level) * 1e3,
                  "setup_samples_s": setup_samples, "setup_parts_s": parts})
    for cell in wl.cells:
        samples = loop.times[cell.key]
        info("cell", {"cell": cell.key, "plan": cell.plan,
                      "calls": len(samples),
                      "speedup": round(ratios[cell.key], 4),
                      "repro_ms": round(1e3 * median([t for t, _ in samples]), 4),
                      "numpy_ms": round(1e3 * median([n for _, n in samples]), 4)})
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


# ------------------------------------------------------------ all / selftest
def run_child(workload: str, seed: int, seconds: float, trace: int,
              timeout: float = 600) -> dict:
    """One run in a fresh process: its result line, with the ``# loop``
    context (absolute latencies, sample counts) under ``"loop"``."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --trace {trace} failed "
                           f"({proc.returncode}): {proc.stderr[-2000:]}")
    res = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# loop: "):
            res["loop"] = json.loads(line[len("# loop: "):])
    return res


def run_all(args) -> int:
    """Every workload, one row each, with the absolute per-call latencies
    and ``fail_frac`` beside the metrics."""
    import workloads

    names = list(E2E_UNITS)
    extra = ("call_p50_ms", "call_p99_ms") if not args.trace else ()
    header = f"{'workload':<12}" + "".join(f"{n:>20}" for n in names) \
        + "".join(f"{n:>18}" for n in extra) + f"{'fail_frac':>12}"
    print(header)
    ok = True
    for name in workloads.WORKLOADS:
        res = run_child(name, args.seed, args.seconds, args.trace)
        row = f"{name:<12}"
        for n in names:
            m = res["metrics"].get(n)
            row += f"{m['value']:>14.4g} {m['unit']:<5}" if m else f"{'-':>20}"
        for n in extra:
            row += f"{res['loop'][n]:>12.4g} {'ms':<5}"
        row += f"{res['failed'] / res['attempted']:>12.3g}"
        print(row)
        ok = ok and res["correct"]
    return 0 if ok else 1


def selftest(args) -> int:
    """Short runs of every workload in both modes: each declared metric is
    present with its declared unit, nothing fails on the seed, and a
    corrupted product is counted as a failure."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    import workloads

    for name in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_child(name, args.seed, 1, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(got)} "
                                f"!= declared {sorted(want)}")
            if res["failed"] or not res["correct"]:
                problems.append(f"{name} trace={trace}: "
                                f"{res['failed']}/{res['attempted']} failed")
            print(f"{name} trace={trace}: {len(got)} metrics, "
                  f"{res['failed']}/{res['attempted']} failed")
    work = isolate("selftest")
    try:
        import_program()
        problems += corruption_check(args.seed)
        shutdown_program()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print("FAIL:", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


def corruption_check(seed: int) -> list[str]:
    """The correctness check must count a corrupted output, a corrupted
    batched element and a raised call as failures."""
    import numpy as np

    import workloads

    wl = workloads.build("small_mixed", seed)
    tally = workloads.Tally()
    workloads.setup(wl, tally)
    problems = [] if tally.failed == 0 else ["set-up products failed"]
    for cell in wl.cells:
        result = np.array(wl.call(cell))
        if workloads.failed_products(cell, result):
            problems.append(f"{cell.key}: correct product counted as failed")
        bad = result.copy()
        bad.reshape(-1)[bad.size // 2] += 1e-6 * np.abs(cell.ref).max()
        if workloads.failed_products(cell, bad) != 1:
            problems.append(f"{cell.key}: corrupted product not caught")
        if workloads.failed_products(cell, None) != cell.products:
            problems.append(f"{cell.key}: raised call not counted")
    print(f"corruption check: {len(wl.cells)} cells")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    import workloads

    ap.add_argument("--workload", default="seq_shapes",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", default=str(OUT), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # a terminated run still removes its work directory and child process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.selftest:
        return selftest(args)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
