"""Run one lsnav benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; lsnav is imported from its ``src/``.  The
run repeats rounds of the workload (inputs drawn from ``[seed, round]``) until
the next round would overrun ``--seconds``, one solve at a time on one thread.

``--trace 0`` reports the end-to-end metrics: median round solve time, set-up
time (median of fresh-interpreter imports plus the median round set-up, both
read at a reference host pace, see ``pace.py``), the share of seeds that
converged, and peak RSS.  The import probes run first and their time comes
out of ``--seconds``.  ``--trace 1`` runs every round
twice on the same inputs, plain and then traced, and reports the per-layer
metrics of the first traced round plus the median tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
per-round figures, output digest, the issue's six end-to-end metrics) goes to
``perfbench/results/``; traced runs also write their spans there.
"""
import os

# Single-threaded: one BLAS thread, and lsnav's pair search on one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LSNAV_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
IMPORT_REPEATS = 9
PROBE = Path(__file__).resolve().parent / "pace.py"


@dataclass
class Round:
    setup_s: float = 0.0  # at the reference pace
    setup_wall_s: float = 0.0
    solve_s: float = 0.0
    solve_ref: float = 0.0  # sum over problems of solve time in speed-kernel units
    problems: int = 0
    raised: int = 0
    missed: int = 0
    seeds: int = 0
    seeds_ok: int = 0
    excess: int = 0
    failures: list = field(default_factory=list)
    answers: list = field(default_factory=list)


def run_round(name, seed, index, tracer, full):
    """Build, solve and judge one round; ``tracer`` wraps the library while it runs.

    Untraced rounds (``full`` false) sample the host speed during every solve.
    """
    from lsnav.errors import LsnavError
    from pace import at_reference, pace
    from speed import SpeedSampler
    from workloads import WORKLOADS

    gc.collect()
    rec = Round()
    tracer.install(full)
    solved = []
    try:
        before = pace()
        t = time.perf_counter()
        problems = WORKLOADS[name](np.random.default_rng([seed, index]), tracer if full else None)
        rec.setup_wall_s = time.perf_counter() - t
        rec.setup_s = at_reference(rec.setup_wall_s, (before + pace()) / 2)
        for p in problems:
            mark = len(tracer.outcomes)
            sampler = SpeedSampler() if not full else contextlib.nullcontext()
            with sampler:
                t = time.perf_counter()
                try:
                    out, err = p.solve(), None
                except LsnavError as exc:
                    out, err = None, exc
                took = time.perf_counter() - t
            if not full:
                took -= sampler.spent
                rec.solve_ref += sampler.in_kernel_units(took)
            rec.solve_s += took
            solved.append((p, out, err, tracer.outcomes[mark:]))
    finally:
        tracer.uninstall()
    for p, out, err, outcomes in solved:
        rec.problems += 1
        rec.seeds += p.n_seeds
        if err is not None:
            rec.raised += 1
            rec.failures.append(f"{p.label}: raised {type(err).__name__}: {err}")
            rec.answers.append([p.label, "raised", type(err).__name__])
            continue
        v = p.judge(out, outcomes)
        rec.seeds_ok += v.seeds_ok
        rec.excess += v.components - p.true_components
        rec.missed += bool(v.failures)
        rec.failures += [f"{p.label}: {f}" for f in v.failures]
        rec.answers.append([p.label, v.answer])
    return rec


def run_rounds(seconds, one_round):
    """Call ``one_round(index)`` until the next call would end after ``seconds``."""
    start = time.perf_counter()
    done, walls = [], []
    while True:
        t = time.perf_counter()
        done.append(one_round(len(done)))
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return done


def import_times():
    """``(wall seconds, kernel seconds)`` of ``import lsnav`` in IMPORT_REPEATS
    fresh interpreters; see ``pace.py``."""
    out = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, str(PROBE), str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        took, kernel = proc.stdout.split()
        out.append((float(took), float(kernel)))
    return out


def environment(seed):
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "LSNAV_THREADS": os.environ.get("LSNAV_THREADS"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def digest(answers) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()[:16]


def summary(rounds):
    """The issue's six end-to-end figures plus the ones the JSON line carries."""
    problems = sum(r.problems for r in rounds)
    seeds = sum(r.seeds for r in rounds)
    seeds_ok = sum(r.seeds_ok for r in rounds)
    return {
        "solve_s": statistics.median(r.solve_s for r in rounds),
        "solve_ref": statistics.median(r.solve_ref for r in rounds),
        "round_setup_s": statistics.median(r.setup_s for r in rounds),
        "round_setup_wall_s": statistics.median(r.setup_wall_s for r in rounds),
        "seed_ok_frac": seeds_ok / seeds,
        "seed_fail_frac": 1.0 - seeds_ok / seeds,
        "check_fail_frac": sum(r.missed for r in rounds) / problems,
        "component_excess": sum(r.excess for r in rounds) / len(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


UNITS = {"solve_s": "s", "solve_ref": "ref", "setup_s": "s", "setup_wall_s": "s",
         "seed_ok_frac": "ratio", "seed_fail_frac": "ratio", "check_fail_frac": "ratio", "component_excess": "count",
         "peak_rss_mb": "MB"}
GATED = ("solve_ref", "setup_s", "seed_ok_frac", "peak_rss_mb")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lsnav" / "__init__.py").is_file():
        print(f"error: no lsnav sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lsnav

    if not Path(lsnav.__file__).resolve().is_relative_to(SRC):
        print(f"error: lsnav was imported from {lsnav.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracing import Tracer, layer_unit
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    from pace import at_reference

    start = time.perf_counter()
    imports = import_times()
    seconds = args.seconds - (time.perf_counter() - start)
    if args.trace:
        first = Tracer()

        def pair(index):
            plain = run_round(args.workload, args.seed, index, Tracer(), full=False)
            tracer = first if index == 0 else Tracer()
            return plain, run_round(args.workload, args.seed, index, tracer, full=True)

        pairs = run_rounds(seconds, pair)
        rounds = [p for p, _t in pairs]
        traced = [t for _p, t in pairs]
        layers = first.layer_metrics()
        layers["trace.overhead_s"] = statistics.median(t.solve_s - p.solve_s for p, t in pairs)
    else:
        rounds = run_rounds(seconds, lambda i: run_round(args.workload, args.seed, i,
                                                         Tracer(), full=False))
        traced = []

    figures = summary(rounds)
    figures["setup_s"] = (statistics.median(at_reference(t, k) for t, k in imports)
                          + figures["round_setup_s"])
    figures["setup_wall_s"] = (statistics.median(t for t, _k in imports)
                               + figures["round_setup_wall_s"])
    everything = rounds + traced
    failures = [f for r in everything for f in r.failures]
    raised = sum(r.raised for r in everything)
    result = {
        "correct": not failures,
        "attempted": sum(r.problems for r in everything),
        "failed": raised,
        "metrics": (
            {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
            if args.trace else
            {k: {"value": figures[k], "unit": UNITS[k]} for k in GATED}
        ),
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "digest": digest(rounds[0].answers),
        "figures": figures,
        "import_probes": imports,  # (wall s, kernel s) per probe
        "rounds": [{"setup_s": r.setup_s, "setup_wall_s": r.setup_wall_s, "solve_s": r.solve_s,
                    "solve_ref": r.solve_ref, "component_excess": r.excess, "digest": digest(r.answers)} for r in rounds],
        "traced_solve_s": [r.solve_s for r in traced],
        "failures": failures,
        "result": result,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        first.write_spans(RESULTS / f"{args.workload}-seed{args.seed}-spans.csv.gz")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"digest {record['digest']}")
    for key in UNITS:
        print(f"  {key:<18} {figures[key]:.6g} {UNITS[key]}")
    for f in failures:
        print(f"  FAILED {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
