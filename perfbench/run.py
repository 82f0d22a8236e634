"""Benchmark of the rokhlin workbench.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-forward --seed 1 --seconds 42 --trace 0

The package is imported from the checkout's ``src/``.  Each run sets up the
workload, drives it as a closed loop with one client in this process, checks
every operation, byte-compares ``rokhlin verify`` on ``tests/configs``
against ``tests/golden`` once, and prints a readable summary followed by one
JSON line: end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

MAX_FAILURE_REPORTS = 5
# setup_s is the median of this many set-ups, each in a fresh process.
SETUP_SAMPLES = 3

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (layer, statistics); statistic names map to units in STAT_UNITS.
LAYER_STATS = [
    ("subshift.language", ("calls", "s", "repeat_ratio", "self_share")),
    ("subshift.SubstitutionSystem.init", ("s", "self_share")),
    ("subshift.ClopenSet.init", ("calls", "self_share")),
    ("subshift.ClopenSet.words_on", ("calls", "s", "self_share")),
    ("subshift.ClopenSet.setops", ("calls", "s", "self_share")),
    ("subshift.PointWindow.init", ("calls", "self_share")),
    ("towers.build_towers", ("s", "self_share")),
    ("towers.verify_rokhlin_axioms", ("s", "self_share")),
    ("towers.partition_identities", ("s", "self_share")),
    ("towers.boundary_path_cover", ("s", "self_share")),
    ("towers.admissible_sequences",
     ("calls", "s", "repeat_ratio", "nonempty_ratio", "self_share")),
    ("towers.RokhlinSystem.tower_union", ("calls", "s", "self_share")),
    ("crossed.gamma_component", ("calls", "self_s", "self_share")),
    ("crossed.gamma_eval", ("calls", "s", "self_share")),
    ("crossed.FormalElement.mul", ("calls", "s", "self_share")),
    ("crossed.project_to_subalgebra", ("s", "self_share")),
    ("crossed.in_ob_subalgebra", ("calls", "s", "self_share")),
    ("crossed.injectivity_witness", ("s", "self_share")),
    ("crossed.CylinderFunction.init", ("calls", "self_share")),
    ("matrixfn.MatrixCylinderFunction.init", ("calls", "self_share")),
    ("matrixfn.MatrixCylinderFunction.value_at", ("calls", "self_share")),
    ("matrixfn.MatrixCylinderFunction.values_on", ("s", "self_share")),
    ("matrixfn.MatrixCylinderFunction.allclose", ("s", "self_share")),
    ("rsh.lift", ("calls", "s", "self_s", "self_share")),
    ("rsh.stage_violations", ("calls", "s", "self_share")),
    ("rsh.beta_boundary", ("s", "self_share")),
    ("rsh.stage_from_gamma", ("s", "self_share")),
    ("rsh.sample_stage_element", ("s",)),
    ("cuntz.PositiveElement.init", ("s", "self_share")),
    ("cuntz.eps_cut", ("s", "self_share")),
    ("cuntz.cuntz_leq", ("s", "self_share")),
    ("cli.load_config", ("s", "self_share")),
    ("cli.report_emit", ("s", "self_share")),
]
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "repeat_ratio": "ratio",
              "nonempty_ratio": "ratio", "self_share": "ratio"}
TRACE_STATS = [("trace.ops_per_s", "1/s"), ("trace.untraced_ops_per_s", "1/s"),
               ("trace.overhead_ops_per_s", "1/s"), ("trace.spans", "count")]


def per_layer_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{layer}.{stat}", STAT_UNITS[stat])
           for layer, stats in LAYER_STATS for stat in stats]
    return out + TRACE_STATS


def percentile(samples, pct: int, min_beyond: int = 10):
    """Nearest-rank ``pct``-th percentile, or None when fewer than
    ``min_beyond`` samples lie above its rank."""
    n = len(samples)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100) in integers
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import ``rokhlin`` from this checkout's ``src/``, never from elsewhere."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("ROKHLIN_DEPTH", None)
    if not (SRC / "rokhlin" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'rokhlin'}; "
                         "run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401
    import rokhlin
    if Path(rokhlin.__file__).resolve().parent != (SRC / "rokhlin").resolve():
        raise SystemExit(f"perfbench: imported {rokhlin.__file__}, "
                         f"not the checkout's {SRC / 'rokhlin'}")


def golden_pairs():
    configs = sorted((ROOT / "tests" / "configs").glob("*.json"))
    pairs = [(c, ROOT / "tests" / "golden" / f"{c.stem}_verify.json")
             for c in configs]
    if not pairs or not all(g.is_file() for _, g in pairs):
        raise SystemExit("perfbench: tests/configs or tests/golden is missing")
    return pairs


def golden_check(pairs, workdir) -> list:
    """Names of the reference configs whose verify report differs from golden."""
    from rokhlin import cli
    bad = []
    for config, golden in pairs:
        out = workdir / f"verify-{config.stem}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--config", str(config), "--out", str(out)])
        if code != 0 or not out.is_file() \
                or out.read_bytes() != golden.read_bytes():
            bad.append(config.stem)
        out.unlink(missing_ok=True)
    return bad


class Loop:
    """Result of driving a workload: every operation's latency and kind in
    run order, failures, where each round ended, whether the last round was
    cut at the deadline, and digests of the outputs of round 0 and of every
    operation run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list = []
        self.failed = 0
        self.failures: list[str] = []
        self.round_ends: list[int] = []
        self.digest = hashlib.sha256()
        self.digest_all = hashlib.sha256()
        self.cut = False

    def ops_per_s(self) -> float:
        """Completed operations divided by the time they took."""
        return (len(self.latencies) - self.failed) / sum(self.latencies)

    def round_ops_per_s(self, rounds: int) -> float:
        """Raw rate over the first ``rounds`` rounds."""
        n = self.round_ends[rounds - 1]
        return n / sum(self.latencies[:n])


def drive(wl, seconds: float, first: list, rounds: int | None = None,
          tracer=None) -> Loop:
    """Closed loop with one client: each operation starts after the previous
    one returns.  Runs ``first`` (round 0, drawn in set-up) whole, then
    rounds of fresh operations until the operations have taken ``seconds``
    in all, stopping at the first operation past that, or exactly ``rounds``
    rounds when given.  Drawing a round's inputs is not timed."""
    loop = Loop()
    run = wl.run
    if tracer is not None:
        tracer.phase = tracer.OPS
        run = tracer.wrap("op", wl.run)
    busy = 0.0
    ops, r = first, 0
    while True:
        for op in ops:
            if r > 0 and rounds is None and busy >= seconds:
                loop.cut = True
                break
            if tracer is not None:
                tracer.op_id = len(loop.latencies)
            error = None
            t0 = time.perf_counter()
            try:
                result = run(op)
            except Exception:  # a failing operation is counted, not fatal
                error = traceback.format_exc()
            latency = time.perf_counter() - t0
            busy += latency
            loop.latencies.append(latency)
            loop.kinds.append(op[0][0])
            if error is None:
                try:
                    material = wl.check(op, result)
                except Exception:
                    error = traceback.format_exc()
            if error is not None:
                loop.failed += 1
                if len(loop.failures) < MAX_FAILURE_REPORTS:
                    loop.failures.append(error)
                material = b"FAILED"
            entry = repr(op[0]).encode() + hashlib.sha256(material).digest()
            if r == 0:
                loop.digest.update(entry)
            loop.digest_all.update(entry)
        loop.round_ends.append(len(loop.latencies))
        r += 1
        if loop.cut or (rounds is not None and r >= rounds) \
                or (rounds is None and busy >= seconds):
            break
        ops = wl.round(r)
    return loop


def kind_lines(loop: Loop) -> list:
    """Readable latency lines per operation kind (the first item of each
    operation's key: ``towers`` or ``evaluate`` in cold-forward, the system's
    index in pullback-roundtrip)."""
    def ms(t):
        return "n/a (fewer than ten samples beyond it)" if t is None \
            else f"{t * 1e3:.4g} ms"

    by_kind: dict = {}
    for kind, t in zip(loop.kinds, loop.latencies):
        by_kind.setdefault(kind, []).append(t)
    return [f"kind {kind}: {len(ts)} ops, {len(ts) / sum(ts):.4g} ops/s, "
            f"p50 {ms(percentile(ts, 50))}, p90 {ms(percentile(ts, 90))}"
            for kind, ts in sorted(by_kind.items())]


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(loop: Loop, setup_s: float, rss_mb: float) -> dict:
    p50, p90 = percentile(loop.latencies, 50), percentile(loop.latencies, 90)
    if p90 is None:
        raise RuntimeError(f"{len(loop.latencies)} operations are too few for a p90")
    values = {"ops_per_s": loop.ops_per_s(), "op_p50_ms": p50 * 1e3,
              "op_p90_ms": p90 * 1e3, "setup_s": setup_s, "peak_rss_mb": rss_mb}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer_metrics(tracer, traced: Loop, untraced: Loop) -> dict:
    op_time = tracer.total("op", tracer.OPS)["s"]
    values = {}
    for layer, stats in LAYER_STATS:
        total = tracer.total(layer)
        for stat in stats:
            if stat == "self_share":
                value = tracer.total(layer, tracer.OPS)["self_s"] / op_time
            elif stat == "repeat_ratio":
                value = (tracer.language if layer == "subshift.language"
                         else tracer.paths).ratio
            elif stat == "nonempty_ratio":
                value = tracer.paths_nonempty / max(tracer.paths_built, 1)
            else:
                value = total[stat]
            values[f"{layer}.{stat}"] = value
    values["trace.ops_per_s"] = traced.round_ops_per_s(1)
    values["trace.untraced_ops_per_s"] = untraced.round_ops_per_s(1)
    values["trace.overhead_ops_per_s"] = (values["trace.ops_per_s"]
                                          - values["trace.untraced_ops_per_s"])
    values["trace.spans"] = len(tracer.span_layer)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in per_layer_names()}


def layer_table(tracer) -> list:
    """Readable per-layer lines: calls, inclusive and self time, and the share
    of operation time a faster layer could save at most (its self time)."""
    OPS, SETUP = tracer.OPS, tracer.SETUP
    op_time = tracer.total("op", OPS)["s"]
    rows = [f"{'layer':<44} {'calls':>9} {'incl_s':>9} {'self_s':>9} "
            f"{'op_share':>8} {'setup_self_s':>12}"]
    for name in sorted(tracer.layers,
                       key=lambda n: -tracer.total(n, OPS)["self_s"]):
        ops, setup = tracer.total(name, OPS), tracer.total(name, SETUP)
        rows.append(f"{name:<44} {ops['calls'] + setup['calls']:>9} "
                    f"{ops['s']:>9.4f} {ops['self_s']:>9.4f} "
                    f"{ops['self_s'] / op_time:>8.4f} {setup['self_s']:>12.4f}")
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    pairs = golden_pairs()
    from workloads import WORKLOADS
    import_s = time.perf_counter() - PROCESS_START
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if args.setup_probe:
        return setup_probe(args, WORKLOADS[args.workload])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, WORKLOADS[args.workload], tag, workdir, pairs,
                       import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_probe(args, cls) -> int:
    """Set up as a run does, then print the monotonic clock and exit."""
    workdir = Path(args.setup_probe)
    workdir.mkdir(parents=True)
    wl = cls(args.seed, workdir)
    wl.round(0)
    gc.collect()
    print(repr(time.perf_counter()))
    return 0


def setup_samples(args, workdir) -> list:
    """Seconds from starting a fresh process to the end of its set-up, for
    SETUP_SAMPLES processes run one after another."""
    samples = []
    for i in range(SETUP_SAMPLES):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0",
                "--setup-probe", str(workdir / f"probe-{i}")]
        t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def measure(args, cls, tag, workdir, pairs, import_s) -> int:
    import tracing
    lines = [f"perfbench {tag} seconds={args.seconds:g}"]
    correct = True

    wl = cls(args.seed, workdir)
    first = wl.round(0)
    gc.collect()
    first_op_s = time.perf_counter() - PROCESS_START
    untraced = drive(wl, args.seconds, first)
    rss_mb = peak_rss_mb()
    setups = setup_samples(args, workdir)
    end_to_end = end_to_end_metrics(untraced, statistics.median(setups), rss_mb)
    loops = [untraced]

    if args.trace:
        wl = first = None
        gc.collect()

        def traced_setup():
            wl = cls(args.seed, workdir)
            return wl, wl.round(0)

        tracer = tracing.Tracer()
        tracer.install()
        try:
            wl, first = tracer.wrap("setup", traced_setup)()
            gc.collect()
            traced = drive(wl, 0.0, first, rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        loops.append(traced)
        if traced.digest.digest() != untraced.digest.digest():
            correct = False
            lines.append("digest: the traced round differs from the untraced one")
        trace_path = WORK / f"trace-{tag}.npz"
        tracer.save(trace_path)
        lines += layer_table(tracer)
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
        metrics = per_layer_metrics(tracer, traced, untraced)
    else:
        metrics = end_to_end

    bad = golden_check(pairs, workdir)
    attempted = sum(len(loop.latencies) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    correct = correct and not bad and failed == 0
    for loop in loops:
        for text in loop.failures:
            print(text, file=sys.stderr)

    rounds = sum(len(loop.round_ends) for loop in loops)
    lines.append("env: " + json.dumps(environment(), sort_keys=True))
    lines.append("mix: " + json.dumps(wl.mix(), sort_keys=True))
    lines.append(f"ops: {attempted} attempted in {rounds} rounds of fresh inputs"
                 + (" (the last untraced one cut at the deadline)" if untraced.cut
                    else "")
                 + f", {failed} failed, op_fail_ratio {failed / attempted:.6f} "
                 f"ratio; {len(untraced.latencies)} latency samples, one per "
                 f"untraced operation, over {sum(untraced.latencies):.3f} s")
    lines += kind_lines(untraced)
    lines.append(f"set-up: this process reached its first operation at "
                 f"{first_op_s:.4f} s (import {import_s:.4f} s); fresh-process "
                 f"set-ups " + ", ".join(f"{t:.4f}" for t in setups) + " s")
    lines.append(f"digest: {untraced.digest.hexdigest()} (round 0); "
                 f"{untraced.digest_all.hexdigest()} "
                 f"(every untraced operation)")
    lines.append("golden: " + ("all identical" if not bad
                               else "differs for " + ", ".join(bad)))
    for name, m in {**end_to_end, **metrics}.items():
        lines.append(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
