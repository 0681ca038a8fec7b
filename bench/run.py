"""Benchmark for sigverify: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload verify --seed 0 --seconds 27 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

Workloads (see ``workloads.py``):

    verify         enrollment, then a stream of claims, warm and in-process
    evaluate-wide  run_experiment (k=4) and scores_csv on 12 users x 8 x 4,
                   with every signature described once in set-up
    cli            ``sigverify verify`` commands through the CLI entry point,
                   in-process; cold, in fresh interpreters, when traced

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs its timed operations for ``--seconds`` in one chunk after
each set-up, and prints the end-to-end metrics. ``--trace 1`` sets up
once with the tracing wrappers of ``spans.py`` installed, runs half the
time untraced and half traced, and prints the per-layer metrics and the
tracing overhead; the spans are written to ``.bench_out/``. Either way
the outputs are checked, and for the seed recorded in ``golden.json``
their SHA-256 digest must match it. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units are those of ``BENCHMARK.json``.

The BLAS/OpenMP thread count is pinned to ``BLAS_THREADS`` before numpy
loads. On a 2-vCPU Xeon VM, with one thread the spread of the cold
``verify`` median fell from ~20% to ~5% and of the warm claim median to
~2%, at the price of ``cost_grad`` taking ~120 ms instead of ~85 ms per
call.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("verify", "evaluate-wide", "cli")
# the operation that op_ms times, per workload
MAIN_OP = {"verify": "claim", "evaluate-wide": "evaluate", "cli": "command"}
MAX_NOTES = 20


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = "unknown"
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                      "numpy.libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.restype = ctypes.c_char_p
            core = fn().decode()
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": blas.get("openblas configuration", blas.get("name")),
            "openblas_core": core}


def golden_platform(env):
    """The environment fields that byte-identical outputs depend on.

    They are recorded beside the golden digests, so that a mismatch on
    another platform can be told apart from a change of the program."""
    return {k: env[k] for k in ("python", "numpy", "scipy", "openblas",
                                "openblas_core", "blas_threads")}


def metric_line(name, value, unit, n):
    print(f"metric {name} {value!r} {unit} n={n}")


def seconds_of(timings):
    return [t for _, t in timings]


def best_of_repeats(timings):
    """The gated time of one operation (``op_ms``): the mean, over
    distinct operations, of each one's fastest repeat.

    Each vCPU of a shared 2-vCPU VM runs up to 2x slower for seconds at a
    time, independently of the program, and how much of a run is slow
    changes from run to run and from minute to minute.  An operation's
    fastest repeat is the one that ran at full speed, so every operation
    is short and repeats many times over the run: ``verify`` and ``cli``
    cycle through 80 distinct claims of ~8-15 ms (a cycle of ~0.7-1.2 s,
    so a stretch at full speed sees each of them), and ``evaluate-wide``
    repeats a single operation of ~0.1 s, so there ``op_ms`` is a
    minimum.  The mean over the claims rather than their median keeps the
    seed's draw of claims from moving it.  With 150 distinct claims (a
    cycle longer than most stretches at full speed) and 16 s runs,
    ``op_ms`` of ``verify`` spread by 27-38% over ten seeds.  A minimum
    hides a regression that shows only as slow repeats, such as garbage
    collection: the medians (``claim_p50_ms``, ``evaluate_s``,
    ``cli_verify_ms``) are printed beside it for that.
    """
    best = {}
    for op, t in timings:
        best[op] = min(t, best.get(op, t))
    return statistics.fmean(best.values())


def run_workload(args, spec, env):
    from spans import Tracer, layer_metrics, layer_shares, nesting_violations
    from workloads import SIZES, WORKLOADS

    cls = WORKLOADS[args.workload]
    params = SIZES[args.size]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    problems = []
    try:
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                wl = cls(args.seed, args.size, workdir / "traced")
                wl.setup(tracer)
            finally:
                tracer.uninstall()
            plain = wl.measure(args.seconds / 2, min_ops=wl.min_ops)
            tracer.phase = "timed"
            tracer.install()
            try:
                traced = wl.measure(args.seconds / 2, tracer, min_ops=1)
            finally:
                tracer.uninstall()
            outcome = wl.check()
        else:
            # The first set-up's state serves every timed chunk; each later
            # set-up is timed and dropped.  One chunk of the timed window
            # follows each set-up, so the fastest repeats are drawn from
            # the whole run rather than from one stretch of it.
            chunks = params["setups"]
            setup_times, samples, wl = [], {}, None
            for k in range(chunks):
                fresh = cls(args.seed, args.size, workdir / f"setup{k}")
                t0 = time.perf_counter()
                fresh.setup()
                setup_times.append(time.perf_counter() - t0)
                wl = wl or fresh
                del fresh
                timed = wl.measure(args.seconds / chunks,
                                   min_ops=math.ceil(wl.min_ops / chunks))
                for kind, timings in timed.items():
                    samples.setdefault(kind, []).extend(timings)
            outcome = wl.check()
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = outcome.failed
    print(f"digest {outcome.digest} covers {outcome.digest_ops} operations")
    golden = json.loads(Path(args.golden).read_text())
    expected = golden["digests"].get(args.size, {}).get(args.workload)
    if args.seed != golden["seed"] or expected is None:
        print(f"golden: none for seed {args.seed}; compare the digest with the parent's")
    elif expected != outcome.digest:
        # compared on every platform: a run that was not checked against
        # the golden digest must not pass as one that matched it
        failed += outcome.digest_ops
        problems.append(f"digest mismatch: expected {expected}, recorded on "
                        f"{json.dumps(golden['platform'], sort_keys=True)}; this "
                        f"platform is {json.dumps(golden_platform(env), sort_keys=True)}")
    else:
        print("golden: match")
    failed = min(failed, outcome.attempted)
    print(f"ops attempted={outcome.attempted} succeeded={outcome.attempted - failed} "
          f"failed={failed}")
    for note in outcome.notes[:MAX_NOTES]:
        print(f"note: {note}")

    if args.trace:
        op = MAIN_OP[args.workload]
        violations = nesting_violations(tracer.spans)
        problems += [f"span {i} {name}: {why}" for i, name, why in violations[:MAX_NOTES]]
        values = layer_metrics(tracer.spans, wl.op_names)
        untraced_s, traced_s = best_of_repeats(plain[op]), best_of_repeats(traced[op])
        values["trace.overhead_ms"] = (traced_s - untraced_s) * 1e3
        print(f"trace: {len(tracer.spans)} spans, {len(violations)} outside their "
              f"parent; {op} untraced {untraced_s * 1e3:.3f} ms (n={len(plain[op])}), "
              f"traced {traced_s * 1e3:.3f} ms (n={len(traced[op])}), "
              f"overhead {(traced_s - untraced_s) / untraced_s:.1%}")
        for layer, share in layer_shares(tracer.spans, wl.op_names).items():
            print(f"share {layer} {share:.4f}")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-{args.size}-seed{args.seed}.json")
        declared = spec["per_layer"]
    else:
        main = samples[MAIN_OP[args.workload]]
        values = {"setup_s": statistics.median(setup_times),
                  "op_ms": best_of_repeats(main) * 1e3,
                  "peak_rss_mb": peak_kib / 1024.0}
        print(f"setup_s each: {' '.join(f'{t:.3f}' for t in setup_times)}")
        report_workload_metrics(args.workload, samples, setup_times, values,
                                outcome, failed)
        declared = spec["end_to_end"]

    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"computed metrics {sorted(values)} differ from "
                           f"BENCHMARK.json {sorted(m['name'] for m in declared)}")
    for p in problems:
        print(f"problem: {p}")
    return {"correct": failed == 0 and not problems, "attempted": outcome.attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def report_workload_metrics(workload, samples, setup_times, values, outcome, failed):
    """Print the workload's own metrics by name, with unit and sample count."""
    metric_line("setup_s", values["setup_s"], "s", len(setup_times))
    main = samples[MAIN_OP[workload]]
    metric_line("op_ms", values["op_ms"], "ms", len(main))
    if workload == "verify":
        claims = seconds_of(samples["claim"])
        metric_line("claim_p50_ms", statistics.median(claims) * 1e3, "ms", len(claims))
        if len(claims) >= 1000:  # at least ten samples beyond the 99th percentile
            p99 = statistics.quantiles(claims, n=100)[98]
            metric_line("claim_p99_ms", p99 * 1e3, "ms", len(claims))
        else:
            print(f"metric claim_p99_ms n/a ms n={len(claims)} (needs 1000)")
        enroll = seconds_of(samples["enroll"])
        metric_line("enroll_ms_per_user", statistics.median(enroll) * 1e3, "ms", len(enroll))
    elif workload == "evaluate-wide":
        metric_line("evaluate_s", statistics.median(seconds_of(main)), "s", len(main))
        metric_line("mean_eer", outcome.details["mean_eer"], "fraction", len(main))
    else:
        metric_line("cli_verify_ms", statistics.median(seconds_of(main)) * 1e3, "ms",
                    len(main))
    metric_line("peak_rss_mb", values["peak_rss_mb"], "MB", 1)
    metric_line("failed_frac", failed / outcome.attempted, "fraction",
                outcome.attempted)


def run_all(args):
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--golden", args.golden]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}")
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}/{name}"] = metric
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at a toy size (smoke test)")
    parser.add_argument("--golden", default=str(BENCH_DIR / "golden.json"),
                        help="file of expected digests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sigverify" / "__init__.py").is_file():
        print(f"error: no sigverify sources under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(ROOT / "src"))
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        env = environment()
        print(f"workload {args.workload} seed {args.seed} size {args.size} "
              f"seconds {args.seconds:g} trace {args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        result = run_workload(args, spec, env)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
