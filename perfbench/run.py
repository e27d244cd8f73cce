"""gdakit benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload gate600 --seed 0 --seconds 55 --trace 0

Run from the repository root. The library is imported from `src/` next to
this directory; nothing needs installing. A run

1. draws the workload's graphs from --seed and writes them with `save_graph`
   into a temporary directory under `.perfbench/`;
2. repeats rounds for --seconds, at least two. A round sets up once
   (`load_graph` on both domain directories plus `DomainPair.make`), trains
   one model per family with `train`, saves it with `save_model`, and calls
   `shift_report` once. Every operation is checked: finite losses, target
   labels read exactly once per `train`, finite shift fields, and identical
   `.params` bytes across rounds. A failed check counts as a failed
   operation. Each operation starts after a full garbage collection;
3. with --trace 1, installs the timing wrappers of spans.py and runs one
   more `save_graph` and round under them;
4. prints a readable report, then one JSON line: the end-to-end metrics,
   each the median of its samples, with --trace 0, or the per-layer totals
   of the traced pass with --trace 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import environment
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")
MIN_ROUNDS = 2  # so the .params bytes of every family are compared at least once
END_TO_END_UNITS = {"setup_s": "s", "shift_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    pass


def import_gdakit():
    """gdakit from this checkout's src/, or exit with an error."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import gdakit
    except ImportError as e:
        sys.exit(f"perfbench: cannot import gdakit from {src}: {e}")
    if not os.path.abspath(gdakit.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: gdakit resolved to {gdakit.__file__}, not {src}")
    return gdakit


def end_to_end_unit(name: str) -> str:
    return "ms" if name.startswith("epoch_ms.") else END_TO_END_UNITS[name]


class Bench:
    """One workload run: its inputs, operations and their outcomes."""

    def __init__(self, gdakit, workload: str, seed: int, work: str):
        self.gda = gdakit
        self.wl = workloads.WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.hashes: dict[str, str] = {}
        self.f1: dict[str, float] = {}
        self.params_bytes = 0
        self.tracer: spans.Tracer | None = None
        self.graphs = workloads.make_inputs(gdakit, workload, seed)
        self.dirs = {"main": self.save_pair(self.graphs["main"], "main")}
        self.dirs["kernel"] = (self.dirs["main"]
                               if self.graphs["kernel"] is self.graphs["main"]
                               else self.save_pair(self.graphs["kernel"], "kernel"))
        self.pairs = {}

    def save_pair(self, graphs, tag: str) -> tuple[str, str]:
        dirs = (os.path.join(self.work, tag, "source"),
                os.path.join(self.work, tag, "target"))
        for g, path in zip(graphs, dirs):
            self.gda.save_graph(g, path)
        return dirs

    def attempt(self, what: str, fn):
        """Run one operation; on any exception count it failed and go on."""
        # Free the cyclic garbage of earlier operations first: when the
        # collector would get to it varies, and it added up to 12% to the
        # peak RSS of the next operation.
        gc.collect()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = self.attempted
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"FAILED {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def load(self, key: str):
        source, target = self.dirs[key]
        return self.gda.DomainPair.make(self.gda.load_graph(source),
                                        self.gda.load_graph(target))

    def setup_once(self) -> float:
        """Seconds to load the main pair's directories and seal the pair."""
        start = time.perf_counter()
        self.pairs["main"] = self.load("main")
        return time.perf_counter() - start

    def train_once(self, family: str) -> tuple[float, float]:
        """(ms per epoch, target micro-F1) of one checked train() call."""
        pair = self.pairs["kernel" if family in workloads.KERNEL_FAMILIES else "main"]
        cfg = workloads.experiment(self.gda, self.wl, family, self.seed)
        pair.target_truth.access_count = 0
        start = time.perf_counter()
        model, result = self.gda.train(pair, cfg)
        elapsed = time.perf_counter() - start
        if len(result.history) != cfg.optim.epochs:
            raise CheckFailed(f"{family}: {len(result.history)} epochs in history")
        for epoch in result.history:
            losses = (epoch.total, epoch.cross_entropy, epoch.align, epoch.unsup)
            if not all(math.isfinite(v) for v in losses):
                raise CheckFailed(f"{family}: non-finite loss in {losses}")
        if pair.target_truth.access_count != 1:
            raise CheckFailed(f"{family}: target labels read "
                              f"{pair.target_truth.access_count} times, expected 1")
        path = os.path.join(self.work, f"{family}.params")
        self.gda.save_model(model, path)
        with open(path, "rb") as fh:
            data = fh.read()
        self.params_bytes += len(data)
        digest = hashlib.sha256(data).hexdigest()
        if self.hashes.setdefault(family, digest) != digest:
            raise CheckFailed(f"{family}: .params bytes differ between repeats")
        return 1000.0 * elapsed / cfg.optim.epochs, result.metrics.micro_f1

    def shift_once(self) -> float:
        start = time.perf_counter()
        report = self.gda.shift_report(self.pairs["kernel"])
        elapsed = time.perf_counter() - start
        fields = vars(report)
        if not all(math.isfinite(v) for v in fields.values()):
            raise CheckFailed(f"shift_report has a non-finite field: {fields}")
        return elapsed

    def round(self) -> list[tuple[str, float]]:
        """One pass over the workload: set-up, then the checked train() calls
        of every family and one shift_report. Returns (metric, value)
        samples."""
        out = []
        setup = self.attempt("setup", self.setup_once)
        if setup is not None:
            out.append(("setup_s", setup))
        self.params_bytes = 0
        for family in workloads.TRAIN_FAMILIES:
            got = self.attempt(f"train {family}", lambda: self.train_once(family))
            if got is not None:
                out.append((f"epoch_ms.{family}", got[0]))
                self.f1[family] = got[1]
        shift = self.attempt("shift_report", self.shift_once)
        if shift is not None:
            out.append(("shift_s", shift))
        return out


def measure_rounds(bench: Bench, seconds: float) -> tuple[list[list], list[float], float]:
    """Rounds until `seconds` are used, at least MIN_ROUNDS: a round starts
    if, at the median round length so far, it would end by `seconds` plus
    half a round. Also the peak RSS in MB after the first MIN_ROUNDS, so that
    it covers a fixed amount of work."""
    rounds, walls = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - start + statistics.median(walls) / 2 <= seconds):
        t0 = time.perf_counter()
        rounds.append(bench.round())
        walls.append(time.perf_counter() - t0)
        if len(rounds) == MIN_ROUNDS:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, walls, peak_mb


def traced_pass(bench: Bench, untraced_wall: float, span_path: str) -> dict[str, float]:
    """Per-layer totals of one traced save_graph of the main pair and one
    traced round."""
    tracer = spans.Tracer()
    bench.tracer = tracer
    tracer.install()
    try:
        bench.save_pair(bench.graphs["main"], "traced")
        start = time.perf_counter()
        bench.round()
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
        bench.tracer = None
    tracer.write(span_path)
    print(f"spans {len(tracer.spans)} written to {span_path}")
    out = tracer.layer_metrics()
    out["snapshot.params_bytes"] = bench.params_bytes
    out["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    gdakit = import_gdakit()
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        bench = Bench(gdakit, args.workload, args.seed, work)
        if bench.attempt("setup", bench.setup_once) is None:
            sys.exit("perfbench: set-up failed, nothing to measure")
        bench.pairs["kernel"] = (bench.pairs["main"]
                                 if bench.dirs["kernel"] is bench.dirs["main"]
                                 else bench.load("kernel"))
        rounds, walls, peak_mb = measure_rounds(bench, args.seconds)
        samples: dict[str, list[float]] = {}
        for name, value in (s for r in rounds for s in r):
            samples.setdefault(name, []).append(value)
        metrics = {k: statistics.median(v) for k, v in sorted(samples.items())}
        metrics["peak_rss_mb"] = peak_mb

        print(f"perfbench {args.workload} seed={args.seed} rounds={len(rounds)}")
        print("env " + json.dumps(environment.record(ROOT), sort_keys=True))
        for name, value in metrics.items():
            count = f"median of {len(samples[name])}" if name in samples else ""
            print(f"  {name:<16} {value:14.6f} {end_to_end_unit(name):<3} {count}")
        # deterministic per seed; a few epochs leave the models near chance,
        # so this traces correctness rather than measuring quality
        if bench.f1:
            print(f"  micro_f1 (mean over {len(bench.f1)} families) "
                  f"{statistics.fmean(bench.f1.values()):.6f}")
        for family, digest in sorted(bench.hashes.items()):
            print(f"  params.sha256.{family:<5} {digest}")

        if args.trace:
            span_path = os.path.join(WORK_DIR,
                                     f"spans-{args.workload}-seed{args.seed}.jsonl")
            layers = traced_pass(bench, statistics.median(walls), span_path)
            reported = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in layers.items()}
        else:
            reported = {k: {"value": v, "unit": end_to_end_unit(k)}
                        for k, v in metrics.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"error_rate {bench.failed / bench.attempted:.6f} "
          f"(failed {bench.failed} of {bench.attempted} attempted operations)")
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
