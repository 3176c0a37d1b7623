"""beamnet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this fresh process, repeating its fixed round of work
while the time budget lasts, then checks the outputs.  With --trace 0 it
reports the end-to-end metrics (setup_s, wall_s, peak_rss_mb); with --trace 1
it times the calls into each beamnet module over the set-up and one round and
reports the per-layer metrics.  The last line of standard output is one JSON
object; a fuller run record (context, counts, checks, and the spans of a
traced run) goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread everywhere: the workloads run with threads=1, and BLAS stays serial.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# setup_s is the median over this many fresh processes, each timed from its
# start to the end of its set-up.
SETUP_PROBES = {"full": 5, "tiny": 2}
PROBE_TIMEOUT_S = 120


def parse_args(argv, workload_names) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="time budget for the measured rounds (at least one round runs); "
                         "the traced run does a fixed amount of work instead")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs every workload at toy sizes, for the harness smoke test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def timed_round(workload):
    """One round of the workload: (wall time, output)."""
    t0 = time.perf_counter()
    out = workload.run()
    return time.perf_counter() - t0, out


def run_rounds(workload, seconds: float, between=None):
    """Repeat the workload's round until the rounds' total time is as close to
    `seconds` as a round of the last one's length allows (at least one round);
    returns each round's wall time and output.

    `between(fraction)` runs after each round, outside the rounds' time, with the
    share of the budget used so far (1 after the last round).
    """
    walls, outputs = [], []
    while True:
        wall, out = timed_round(workload)
        walls.append(wall)
        outputs.append(out)
        done = sum(walls) + walls[-1] / 2.0 > seconds
        if between is not None:
            between(1.0 if done else sum(walls) / seconds)
        if done:
            return walls, outputs


def check_rounds(workload, outputs, checks) -> None:
    """Check the first round against the oracles, and every later round for
    reproducing it exactly (the rounds share their inputs)."""
    workload.check(outputs[0], checks)
    first = workload.fingerprint(outputs[0])
    for k, out in enumerate(outputs[1:], start=2):
        checks.record(workload.fingerprint(out) == first, f"round {k} differs from round 1")


class SetupProbes:
    """Times set-up in fresh processes, from spawn until the probe reports ready.

    Called after each round with the share of the time budget used so far, it
    keeps the share of probes done in step with it, so that the probes spread
    over the run and sample the same host conditions as the rounds.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), args.workload, args.size,
                    str(args.seed)]
        self.total = SETUP_PROBES[args.size]
        self.samples: list[float] = []

    def __call__(self, fraction: float) -> None:
        while len(self.samples) < math.ceil(self.total * fraction - 1e-9):
            self.samples.append(self._probe())

    def _probe(self) -> float:
        t0 = time.perf_counter()
        with subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
        return elapsed


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout; 'unknown' outside a git repository or without git."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over the library's source files, which names the code outside git too."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_context(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "threads": 1,
    }


def main(argv=None) -> int:
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import beamnet from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, list(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload](args.size, args.seed)
    checks = oracles.Checks()
    record = {"context": run_context(args)}
    workload.setup()

    if args.trace == 0:
        probes = SetupProbes(args)
        walls, outputs = run_rounds(workload, args.seconds, between=probes)
        check_rounds(workload, outputs, checks)
        values = {
            "setup_s": statistics.median(probes.samples),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        record.update(setup_samples_s=probes.samples, round_walls_s=walls)
    else:
        # The traced run does a fixed amount of work, whatever --seconds says, so
        # that its counts and busy times compare between commits.  A warm-up
        # round takes the one-off costs of a process's first round; the second
        # untraced round is the baseline for the tracing overhead.  Then the
        # set-up and one round run under timing spans and, when the workload
        # reaches a layer that reports peak allocations, one more round under
        # tracemalloc (which doubles the time of a sparse slot), whose spans
        # give the peaks only.
        untraced = [timed_round(workload) for _ in range(2)]
        tracer = spans.Tracer()
        tracer.install(workloads.patterns, workloads.ebw, workloads.scaling, workloads.netsim)
        tracer.recording = True
        try:
            with tracer.span("bench.setup"):
                workload.setup()
            with tracer.span("bench.round"):
                wall, out = timed_round(workload)
            walls, outputs = [wall], [out]
            timed_spans, tracer.spans = tracer.spans, []
            if any(s[0] in tracer.memory_layers for s in timed_spans):
                tracer.track_memory = True
                tracemalloc.start()
                try:
                    outputs.append(workload.run())
                finally:
                    tracemalloc.stop()
        finally:
            tracer.recording = False
            tracer.uninstall()
        check_rounds(workload, [out for _, out in untraced] + outputs, checks)
        values = spans.summarize(timed_spans, tracer.spans, walls[0] - untraced[1][0])
        units = spans.PER_LAYER_UNITS
        record.update(
            untraced_rounds_s=[wall for wall, _ in untraced],
            round_walls_s=walls,
            slot_tail_pct=spans.tail_percentile(int(values["netsim.slot.calls"])),
            spans_fields=["layer", "start_perf_counter_s", "end_perf_counter_s", "parent", "work",
                          "peak_alloc_mb"],
            spans=timed_spans,
            memory_spans=tracer.spans,
        )

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    counts = workload.counts(outputs[0])
    notes = workload.notes(outputs[0])
    failed_frac = checks.failed / checks.attempted
    record.update(metrics=metrics, counts=counts, notes=notes, rounds=len(walls),
                  checks={"attempted": checks.attempted, "failed": checks.failed,
                          "failed_frac": failed_frac, "ties": checks.ties,
                          "failures": checks.failures[:50]})
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1, default=float) + "\n")

    ctx = record["context"]
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}  "
          f"rounds {len(walls)}")
    print(f"context  {ctx['cpu_model']} x{ctx['nproc']}  python {ctx['python']}  "
          f"numpy {ctx['numpy']}  scipy {ctx['scipy']}  commit {ctx['git_commit'][:12]}")
    print("counts   " + "  ".join(f"{k}={v}" for k, v in counts.items()))
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:.6g} {m['unit']}")
    if args.trace and values["netsim.slot.calls"]:
        print(f"netsim.slot.ms_tail is the p{record['slot_tail_pct']:g} of one round's slots")
    print(f"{'failed_frac':<28} {failed_frac:.6g} ratio  "
          f"({checks.failed} failed of {checks.attempted} operations checked)")
    for failure in checks.failures[:10]:
        print(f"FAILED   {failure}")
    print(f"notes    {json.dumps(notes, default=float)}")
    print(f"record   {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
