"""Benchmark of locc-forge's three public entry points: synthesize, check_root
and verify_tree.

Run from the repository root:

    python3 benchmarks/run.py --workload catalog --seed 1 --seconds 25 --trace 0

One process with one BLAS thread does the whole run: set-up, an untimed
warm-up round, then timed rounds until ``--seconds`` have passed (at least
MIN_ROUNDS).  A round takes one sample of each metric; a sample is the mean
of a fixed number of passes over the workload, each pass timed alone with a
garbage collection between passes.  Times are the medians of the samples'
wall-clock times, divided by the host slowdown measured over all timed
passes of the run (see calibration.py).  Every call's result is checked.
With ``--trace 1`` a round instead times one untraced and one traced pass
of synthesize and one traced pass of check_root, and reports the per-layer
breakdown.  The last
line of standard output is one JSON object; the full record of the run goes
to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

from calibration import SpeedProbe, pooled_slowdown, with_numpy_kernel

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

MIN_ROUNDS = 3
SETUP_PROBES = 2          # fresh interpreters timing set-up, besides this one
PROBE_TIMEOUT_S = 60
MAX_OTHER_SHARE = 0.10    # traced synthesize time no layer span accounts for

# passes per sample (synthesize, check_root, verify_tree); fixed per workload
# so that no sample is a lone pass of a few hundredths of a second
REPS = {
    "catalog": (3, 8, 30),
    "cond-deep": (1, 4, 3),
    "one-way-wide": (1, 6, 5),
}


def _fail(msg: str, code: int = 2) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(code)


def setup(workload: str, seed: int):
    """Import the package and build the inputs.

    Returns the instances and the calibrated import and build times.
    """
    if not os.path.isfile(os.path.join(SRC, "locc_forge", "__init__.py")):
        _fail(f"no locc_forge sources under {SRC}")
    sys.path.insert(0, SRC)
    with SpeedProbe() as probe:
        import locc_forge
        imported = probe.split()
        import workloads
        instances = workloads.build(workload, seed)
    if os.path.dirname(os.path.abspath(locc_forge.__file__)) != os.path.join(SRC, "locc_forge"):
        _fail(f"imported locc_forge from {locc_forge.__file__}, not from {SRC}")
    import_s = probe.calibrate(*imported)
    return instances, import_s, probe.calibrated_s - import_s


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, which alone pays the import again."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["import_s"], doc["build_s"]


class Ledger:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str], wrong: bool = True) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += wrong
            self.note(f"{what}: {'; '.join(problems)}")

    def note(self, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(problem)


def _call(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # recorded as a failed operation
        return None, f"{type(exc).__name__}: {exc}"


class Sample:
    """Mean time of one pass over a sample's passes, with and without the
    time spent in the speed probe's signal handler."""

    def __init__(self, probes: list[SpeedProbe]):
        self.probes = probes
        self.wall_s = statistics.fmean(p.wall_s for p in probes)
        self.busy_s = statistics.fmean(p.wall_s - p.handler_s for p in probes)

    def record(self) -> dict:
        return {"wall_s": self.wall_s, "busy_s": self.busy_s,
                "slowdown": pooled_slowdown(self.probes)}


def run_slowdown(samples) -> float:
    return pooled_slowdown([p for sample in samples for p in sample.probes])


class Bench:
    def __init__(self, instances, ledger: Ledger):
        import gc

        import workloads
        from locc_forge import check_root, synthesize
        from locc_forge import verify as verify_module
        self.gc = gc
        self.wl = workloads
        self.instances = instances
        self.ledger = ledger
        self.synthesize = synthesize
        self.check_root = check_root
        self.verify_module = verify_module
        self.certs: list = []
        self.trees: list = []   # (instance, tree) for every protocol found
        self.kernels = with_numpy_kernel()

    def _timed(self, fn, items, reps: int) -> tuple[Sample, list]:
        """Time ``reps`` passes of ``fn`` over ``items``; returns every pass's results."""
        probes, passes = [], []
        for _ in range(reps):
            self.gc.collect()
            results = []
            with SpeedProbe(self.kernels) as probe:
                for item in items:
                    results.append(_call(fn, *item))
            probes.append(probe)
            passes.append(results)
        return Sample(probes), passes

    def synth_pass(self, reps: int, fn=None) -> Sample:
        fn = fn or self.synthesize
        sample, passes = self._timed(fn, [(i.measurement,) for i in self.instances], reps)
        for results in passes:
            for inst, (cert, err) in zip(self.instances, results):
                if err:
                    self.ledger.record(f"synthesize {inst.name}", [err], wrong=False)
                else:
                    self.ledger.record(f"synthesize {inst.name}",
                                       self.wl.check_certificate(inst, cert))
        self.certs = [cert for cert, _ in passes[-1]]
        return sample

    def check_pass(self, reps: int, fn=None) -> Sample:
        fn = fn or self.check_root
        sample, passes = self._timed(fn, [(i.measurement,) for i in self.instances], reps)
        for results in passes:
            for inst, cert, (roots, err) in zip(self.instances, self.certs, results):
                if err:
                    self.ledger.record(f"check_root {inst.name}", [err], wrong=False)
                else:
                    dims = cert.root_dims if cert is not None else ()
                    self.ledger.record(f"check_root {inst.name}",
                                       self.wl.check_roots(inst, roots, dims))
        return sample

    def verify_pass(self, reps: int) -> Sample:
        items = [(tree, inst.measurement) for inst, tree in self.trees]
        sample, passes = self._timed(self.verify_module.verify_tree, items, reps)
        for results in passes:
            for (inst, _), (report, err) in zip(self.trees, results):
                if err:
                    self.ledger.record(f"verify_tree {inst.name}", [err], wrong=False)
                else:
                    self.ledger.record(f"verify_tree {inst.name}",
                                       self.wl.check_report(report))
        return sample

    def warm_up(self) -> None:
        self.synth_pass(1)
        self.trees = [(inst, cert.tree) for inst, cert in zip(self.instances, self.certs)
                      if cert is not None and cert.tree is not None]
        self.check_pass(1)
        self.verify_pass(1)


def run_untraced(bench: Bench, reps, seconds: float) -> dict[str, list[Sample]]:
    samples = {"synth_s": [], "check_s": [], "verify_s": []}
    started = perf_counter()
    while len(samples["synth_s"]) < MIN_ROUNDS or perf_counter() - started < seconds:
        samples["synth_s"].append(bench.synth_pass(reps[0]))
        samples["check_s"].append(bench.check_pass(reps[1]))
        samples["verify_s"].append(bench.verify_pass(reps[2]))
    return samples


def run_traced(bench: Bench, reps, seconds: float, ledger: Ledger):
    """Per-pass layer figures (raw seconds and counts) of each traced round,
    and every sample taken."""
    from tracing import Tracer

    tracer = Tracer()
    untraced, traced_samples, rounds = [], [], []
    started = perf_counter()
    while len(rounds) < MIN_ROUNDS or perf_counter() - started < seconds:
        untraced.append(bench.synth_pass(reps[0]))
        with tracer.installed():
            round_mark = mark = tracer.mark()
            traced = bench.synth_pass(
                reps[0], lambda m: tracer.call("engine.synthesize", bench.synthesize, (m,), {}))
            synth_self, synth_counts = tracer.summary(mark)
            mark = tracer.mark()
            check = bench.check_pass(
                reps[1], lambda m: tracer.call("engine.check_root", bench.check_root, (m,), {}))
            check_self, _ = tracer.summary(mark)
        traced_samples += [traced, check]
        row = {"traced.synth_s": traced.wall_s, "traced.busy_s": traced.busy_s}
        row.update({f"{k}.s": v / reps[0] for k, v in synth_self.items()})
        row.update({k: v / reps[0] for k, v in synth_counts.items()})
        row["engine.check_root.s"] = check_self.get("engine.check_root", 0.0) / reps[1]
        row["engine.nodes_expanded"] = sum(c.search_stats.nodes_expanded
                                           for c in bench.certs if c is not None)
        row["engine.dead_ends"] = sum(c.search_stats.dead_ends
                                      for c in bench.certs if c is not None)
        row["other.s"] = traced.wall_s - sum(synth_self.values()) / reps[0]
        share = row["other.s"] / traced.wall_s
        if share > MAX_OTHER_SHARE:
            ledger.wrong += 1
            ledger.note(f"traced breakdown leaves {share:.1%} of synthesize time unaccounted")
        if min(synth_self.values()) < -1e-6:
            ledger.wrong += 1
            ledger.note("a layer's self time is negative: spans overlap")
        rounds.append(row)
    return tracer, round_mark, untraced, traced_samples, rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("LOCC_FORGE_THREADS", None)

    instances, import_s, build_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"import_s": import_s, "build_s": build_s}))
        return 0
    setups = [(import_s, build_s)]
    setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    ledger = Ledger()
    bench = Bench(instances, ledger)
    bench.warm_up()
    reps = REPS[args.workload]
    metrics: dict[str, tuple[float, str]] = {}
    median = statistics.median
    if args.trace:
        tracer, last_round, untraced, traced, rounds = run_traced(
            bench, reps, args.seconds, ledger)
        slowdown = run_slowdown(untraced + traced)
        from tracing import CALL_COUNTS, EXTRA_COUNTS, SPANNED_LAYERS
        for layer in SPANNED_LAYERS + ["engine.synthesize", "engine.check_root"]:
            metrics[f"{layer}.s"] = (
                median(r.get(f"{layer}.s", 0.0) for r in rounds) / slowdown, "s")
        for name in ([f"{layer}.calls" for layer in SPANNED_LAYERS]
                     + EXTRA_COUNTS + CALL_COUNTS
                     + ["engine.nodes_expanded", "engine.dead_ends"]):
            metrics[name] = (median(r.get(name, 0) for r in rounds), "count")
        calls = metrics["cones.nnls.calls"][0]
        metrics["cones.decompose.yield"] = (
            metrics["cones.decompose.found"][0] / calls if calls else 0.0, "ratio")
        metrics["other.s"] = (median(r["other.s"] for r in rounds) / slowdown, "s")
        metrics["traced.synth_s"] = (median(r["traced.synth_s"] for r in rounds) / slowdown, "s")
        metrics["trace.overhead_pct"] = (100.0 * (median(r["traced.busy_s"] for r in rounds)
                                                  / median(u.busy_s for u in untraced) - 1.0), "%")
        metrics["host.slowdown"] = (slowdown, "ratio")
        metrics["setup.import_s"] = (median(s[0] for s in setups), "s")
        metrics["setup.build_s"] = (median(s[1] for s in setups), "s")
        record = {"slowdown": slowdown, "rounds": rounds,
                  "untraced": [u.record() for u in untraced]}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-s{args.seed}.jsonl"),
                    last_round)
    else:
        samples = run_untraced(bench, reps, args.seconds)
        slowdown = run_slowdown(v for values in samples.values() for v in values)
        for name, values in samples.items():
            metrics[name] = (median(v.busy_s for v in values) / slowdown, "s")
        metrics["setup_s"] = (median(i + b for i, b in setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        record = {"slowdown": slowdown}
        record.update({name: [v.record() for v in values] for name, values in samples.items()})

    for problem in ledger.problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump({**result, "setups": setups, "samples": record}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
