"""jumprl benchmark: one closed-loop workload per process.

    python3 bench/run.py --workload {train_desk,mc_scan,backtest_rolling}
                         --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the library from its
`src/` directory. Operations run one after another on one thread, each
followed by one yardstick call, in whole cycles over the workload's cells,
until S seconds have passed; every operation's output is checked. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

--trace 0 gives the end-to-end metrics, with tracing off. Their times are
reported at one fixed machine speed: a yardstick (see yardstick.py) is timed
between ops and between setup probes, and each op or probe time is scaled by
yardstick.NOMINAL_S over the mean of the yardstick calls just before and just
after it. The raw times are printed too. --trace 1 runs a
fixed number of operations, each once untraced and once with every layer
boundary wrapped (see tracer.py), requires bit-identical reports from both
and the exact call counts each workload derives from its parameters, and
gives the per-layer metrics.

Details of each run, and the spans of a traced run, are written under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
YARDS_PER_PROBE = 3   # yardstick calls before, between and after the setup probes
MIN_OPS = 21          # leaves a tail percentile with 10 ops beyond it at or above p50
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_desk", "mc_scan", "backtest_rolling"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)  # child process timed by setup_s
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def setup(workload: str, seed: int):
    """Everything before the first operation: import, inputs, reference table."""
    import workloads
    from jumprl import oracles
    table = oracles.reference_minimizers()
    return workloads.WORKLOADS[workload](seed, table)


def probe_setup_seconds(args) -> float:
    """Wall time from starting a fresh process to the end of its `setup`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        code = child.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line.strip()!r})")
    return elapsed


@dataclass
class OpRecord:
    k: int
    cell: str
    seconds: float
    units: int
    report: str | None  # the rendered report
    numbers: dict       # the values the check looked at
    problems: list      # why the op failed; empty if it passed

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def run_op(wl, k: int, *, check: bool = True, tracer=None) -> OpRecord:
    """Run op k, timing the library call and its rendering; check it after."""
    inp = wl.inputs(k)
    error = None
    t0 = time.perf_counter()
    try:
        with tracer.span("op") if tracer else nullcontext():
            result, report = wl.run(inp)
    except Exception as exc:  # a failing op is recorded; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if error is not None:
        return OpRecord(k, _cell(inp), elapsed, 0, None, {}, [error])
    numbers, problems = wl.check(inp, result) if check else ({}, [])
    return OpRecord(k, _cell(inp), elapsed, 0 if problems else wl.units_per_op,
                    report, numbers, problems)


def _cell(inp) -> str:
    return "/".join(str(part) for part in inp[:2])


def probe_setups(args):
    """SETUP_PROBES setup times, and the groups of yardstick times between
    them: probe i ran between groups i and i + 1."""
    import yardstick
    yardstick.work()  # warm-up: first calls into NumPy pay lazy set-up
    group = lambda: [yardstick.seconds() for _ in range(YARDS_PER_PROBE)]
    samples, yards = [], [group()]
    for _ in range(SETUP_PROBES):
        samples.append(probe_setup_seconds(args))
        yards.append(group())
    return samples, yards


def run_ops(wl, seconds: float):
    """Whole cycles of ops, with one yardstick call before the first op and
    after each op, until `seconds` have passed and MIN_OPS have run."""
    import yardstick
    records, yards = [], [[yardstick.seconds()]]
    start = time.perf_counter()
    while len(records) < MIN_OPS or time.perf_counter() - start < seconds:
        for _ in range(len(wl.cells)):
            records.append(run_op(wl, len(records)))
            yards.append([yardstick.seconds()])
    return records, yards


def at_nominal_speed(times, yards):
    """Each of `times` at the nominal machine speed. `times[i]` ran between
    the yardstick calls `yards[i]` and `yards[i + 1]` (lists of call times),
    and is scaled by yardstick.NOMINAL_S over the mean of those calls."""
    import yardstick
    return [t * yardstick.NOMINAL_S / statistics.fmean(before + after)
            for t, before, after in zip(times, yards, yards[1:])]


def run_traced(wl, tracer, n_ops: int):
    """Each op untraced (and checked), then again traced, so that both see
    the same load on the machine."""
    untraced, traced = [], []
    for k in range(n_ops):
        untraced.append(run_op(wl, k))
        tracer.install()
        try:
            traced.append(run_op(wl, k, check=False, tracer=tracer))
        finally:
            tracer.restore()
    return untraced, traced


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND ops above it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(wl, records, op_yards, setup_samples, setup_yards):
    """End-to-end metrics, from op and setup times at the nominal machine
    speed; the raw wall times are printed beside them."""
    import yardstick
    cycle = len(wl.cells)
    units = sum(r.units for r in records)
    raw_times = [r.seconds for r in records]
    times = at_nominal_speed(raw_times, op_yards)
    tail_s, tail_pct = tail(times)
    raw = {
        "setup_s": statistics.median(setup_samples),
        "work_per_s": units / sum(raw_times),
        "op_s_p50": statistics.median(raw_times),
        "op_s_tail": tail(raw_times)[0],
    }
    metrics = {
        "setup_s": (statistics.median(at_nominal_speed(setup_samples, setup_yards)), "s"),
        "work_per_s": (units / sum(times), "1/s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = sum(r.failed for r in records)
    n = len(records)
    op_calls = [y for group in op_yards for y in group]
    setup_calls = [y for group in setup_yards for y in group]
    lines = [
        f"{wl.rate_name} (work_per_s) = {metrics['work_per_s'][0]:.6g} 1/s "
        f"[raw {raw['work_per_s']:.6g}; {wl.unit} completed per second of op time, "
        f"{len(records) // cycle} cycles of {cycle} ops]",
        f"op_s_p50 = {metrics['op_s_p50'][0]:.6g} s [raw {raw['op_s_p50']:.6g}; n={n} ops]",
        f"op_s_tail = {tail_s:.6g} s [raw {raw['op_s_tail']:.6g}; p{tail_pct:.1f}, "
        f"n={n} ops]",
        f"setup_s = {metrics['setup_s'][0]:.6g} s [raw {raw['setup_s']:.6g}; median of "
        f"{len(setup_samples)} fresh processes: "
        + ", ".join(f"{s:.4f}" for s in setup_samples) + "]",
        f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB",
        f"op_fail_ratio = {failed / n:.6g} [{failed}/{n} ops]",
        f"yardstick = {statistics.median(op_calls):.6g} s between ops, "
        f"{statistics.median(setup_calls):.6g} s between setup probes [medians of "
        f"{len(op_calls)} and {len(setup_calls)} calls; nominal {yardstick.NOMINAL_S} s]",
    ]
    return metrics, lines


def per_layer(wl, tracer, n_ops, untraced, traced):
    t = tracer.totals()
    row = lambda name: t.get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "value": 0})
    kernels = [row("estimators.grads_by_row"), row("estimators.losses_by_row"),
               row("portfolio.grads_by_row"), row("portfolio.losses_by_row")]
    sims = row("sde.simulate_batch")
    models = [row(f"models.{m}") for m in ("value", "dvalue_dtheta", "dvalue_dx")]
    passes = [row("oracles.mc_objective_grid"), row("oracles.mc_objective_samples")]
    argmins = row("oracles.mc_argmin")
    simulated_in_argmins = (tracer.value_under("sde.simulate_batch", "oracles.mc_argmin")
                            if argmins["count"] else 0)
    counts = {
        "rng.streams": row("rng.path_rng")["count"],
        "sde.batches": sims["count"],
        "sde.paths": sims["value"],
        "models.calls": sum(m["count"] for m in models),
        "estimators.kernel_calls": sum(k["count"] for k in kernels),
        "oracles.passes": sum(p["count"] for p in passes),
        "portfolio.grad_steps": row("portfolio.grads_by_row")["count"],
        "portfolio.bipower_calls": row("portfolio.bipower_sigma2")["count"],
    }
    seconds = {
        "rng.stream_s": row("rng.path_rng")["total_s"],
        "sde.self_s": sims["self_s"],
        "models.s": sum(m["total_s"] for m in models),
        "estimators.kernel_s": sum(k["total_s"] for k in kernels),
        "estimators.train_self_s": row("estimators.train")["self_s"],
        "oracles.pass_self_s": sum(p["self_s"] for p in passes),
        "oracles.argmin_self_s": argmins["self_s"],
        "oracles.reference_table_s": row("oracles.reference_minimizers")["total_s"],
        "portfolio.self_s": row("portfolio.rolling_backtest")["self_s"],
        "portfolio.bipower_s": row("portfolio.bipower_sigma2")["total_s"],
        "portfolio.threshold_s": row("portfolio.threshold_series")["total_s"],
        "serialize.dump_s": row("serialize.dump_json")["total_s"],
        "trace.overhead_s": (sum(r.seconds for r in traced)
                             - sum(r.seconds for r in untraced)),
    }
    ratio = argmins["value"] / simulated_in_argmins if simulated_in_argmins else 0.0
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics.update({name: (value, "s") for name, value in seconds.items()})
    metrics["oracles.useful_path_ratio"] = (ratio, "ratio")

    expected = wl.expected_counts(n_ops)
    mismatches = [f"{name}: counted {counts[name]}, derived {expected[name]}"
                  for name in expected if counts[name] != expected[name]]
    op_time = sum(r.seconds for r in traced)
    lines = [f"traced pass: {n_ops} ops ({n_ops // len(wl.cells)} cycles), "
             f"{sum(r.seconds for r in untraced):.4f} s untraced, {op_time:.4f} s traced, "
             f"{len(tracer.spans)} spans"]
    for name, (value, unit) in metrics.items():
        if unit == "count":
            lines.append(f"{name} = {value} count [derived {expected[name]}]")
        elif name == "oracles.useful_path_ratio":
            lines.append(f"{name} = {value:.6g} [{argmins['value']} useful of "
                         f"{simulated_in_argmins} paths simulated in argmins]")
        else:
            share = f", {100.0 * value / op_time:.1f}% of traced op time" \
                if name != "oracles.reference_table_s" and op_time > 0 else ""
            lines.append(f"{name} = {value:.6g} s{share}")
    lines.append("count check: " + ("exact" if not mismatches
                                    else "MISMATCH " + "; ".join(mismatches)))
    return metrics, lines, mismatches


def provenance(args, jumprl_threads):
    def git(*cmd):
        if not (ROOT / ".git").exists():
            return None
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    import numpy
    import jumprl
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "jumprl": jumprl.__version__, "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "JUMPRL_THREADS": "unset" if jumprl_threads is None
                          else f"unset (was {jumprl_threads!r})",
    }


def failure_lines(records):
    return [f"FAIL op {r.k} {r.cell}: " + "; ".join(r.problems)
            + (f" {json.dumps(r.numbers)}" if r.numbers else "")
            for r in records if r.failed]


def main(argv=None) -> int:
    args = parse_args(argv)
    # one thread: the library's worker cap and any BLAS pool
    jumprl_threads = os.environ.pop("JUMPRL_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "jumprl" / "__init__.py").is_file():
        print(f"error: no jumprl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        wl = setup(args.workload, args.seed)  # traces the cold reference table
        tracer.restore()
        # fixed by --seconds, so the counts repeat exactly from run to run
        cycles = max(1, int(args.seconds // wl.TRACE_CYCLE_S))
        n_ops = cycles * len(wl.cells)
        untraced, traced = run_traced(wl, tracer, n_ops)
        metrics, lines, mismatches = per_layer(wl, tracer, n_ops, untraced, traced)
        differing = [u.k for u, t in zip(untraced, traced) if u.report != t.report]
        lines.append("traced reports: " + ("bit-identical to untraced" if not differing
                                           else f"DIFFER at ops {differing}"))
        lines += failure_lines(untraced)
        failed = len({r.k for r in untraced if r.failed} | set(differing))
        correct = failed == 0 and not mismatches
        attempted = n_ops
        records = untraced
        yards = {}
    else:
        wl = setup(args.workload, args.seed)
        setup_samples, setup_yards = probe_setups(args)
        records, op_yards = run_ops(wl, args.seconds)
        metrics, lines = end_to_end(wl, records, op_yards, setup_samples, setup_yards)
        yards = {"after_ops": op_yards, "around_setup_probes": setup_yards}
        lines += failure_lines(records)
        failed = sum(r.failed for r in records)
        attempted = len(records)
        correct = failed == 0

    prov = provenance(args, jumprl_threads)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({"provenance": prov, "result": result, "lines": lines,
                   "ops": [{"k": r.k, "cell": r.cell, "seconds": r.seconds,
                            "numbers": r.numbers, "problems": r.problems}
                           for r in records],
                   "yardstick_s": yards}, fh, indent=1)
    if args.trace:
        tracer.write_csv(OUT / f"{stem}-spans.csv")
    print("provenance " + json.dumps(prov))
    print(f"workload {wl.name}: {len(records)} ops over cells "
          + ", ".join("/".join(c) for c in wl.cells))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
