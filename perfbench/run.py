"""macnet benchmark: three CLI workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from a checkout of the repository: the program is imported from its
``src/`` directory, and scratch files go to ``.perfbench_work/``.  Each stage
(``infer``, ``netstat``, ``classify``, ``enrich``, ``simulate``) runs as
``macnet.cli.main(argv)`` in a fresh Python process, one at a time, as a user
runs them (a closed loop with one client).  A workload iteration runs all of
its stages; iterations repeat until ``--seconds`` have passed, at least twice.

``--trace 0`` reports the end-to-end metrics from each stage's median over
iterations.  ``--trace 1`` alternates untraced and traced iterations and
reports the per-layer metrics of the traced ones: calls and self time of
macnet's public functions (see ``tracer.py``), per-stage cost, and counts read
from the outputs.  Every stage output is checked against an independent
recomputation (``checks.py``), and all invocations of a stage in one run must
write the same bytes.  An invocation that exits non-zero, fails a value check
or writes different bytes is a failed operation; only the first two make
``correct`` false.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it hold the
environment record and a readable table, and the full record is written
under ``.perfbench_work/results/``.

``--smoke`` runs every workload at a tiny size, untraced and traced, and
asserts that every metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STAGE_PY = HERE / "stage.py"
WORK = ROOT / ".perfbench_work"

#: a run starts no iteration this long after it began, whatever --seconds says,
#: and kills a stage still running at STAGE_DEADLINE_S
HARD_LIMIT_S = 120.0
STAGE_DEADLINE_S = 170.0

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

STAGES = ("infer_cca", "infer_max", "netstat", "classify", "enrich", "simulate")
MODULES = ("cli", "io", "network", "similarity", "inference", "numkernel", "classify",
           "enrichment", "simulation")

END_TO_END = {
    "wall_s": "s",
    "pairs_per_s": "pairs/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: span names reported as .calls and/or .self_s
SPAN_METRICS = {
    "io.ingest": ("self_s",),
    "io.read_network": ("calls", "self_s"),
    "io.write": ("self_s",),
    "network.infer_network": ("self_s",),
    "network.betweenness_values": ("calls", "self_s"),
    "network.clustering_values": ("calls", "self_s"),
    "network.degree_values": ("calls", "self_s"),
    "network.largest_connected_component": ("calls", "self_s"),
    "network.jaccard": ("calls", "self_s"),
    "network.adjacency": ("calls",),
    "similarity.PairCorrelationStructure.from_samples": ("calls", "self_s"),
    "similarity.canonical_corr": ("calls", "self_s"),
    "inference.homogeneity_lrt": ("calls", "self_s"),
    "inference.bartlett_chi2": ("calls", "self_s"),
    "inference.bh_fdr": ("calls", "self_s"),
    "inference.fisher_z": ("calls",),
    "inference.extreme_pvalue": ("calls", "self_s"),
    "numkernel.corr_matrix": ("calls", "self_s"),
    "numkernel.pearson_corr": ("calls", "self_s"),
    "numkernel.sym_eigen": ("calls", "self_s"),
    "numkernel.is_positive_definite": ("calls", "self_s"),
    "numkernel.inv_sqrt_spd": ("calls",),
    "numkernel.cholesky": ("calls",),
    "classify.classify_network": ("self_s",),
    "classify.classify_edge": ("calls",),
    "enrichment.load_gmt": ("self_s",),
    "enrichment.enrich": ("self_s",),
    "enrichment.hypergeom_upper": ("calls",),
    "simulation.power_study": ("self_s",),
    "simulation.sample_mvn": ("calls", "self_s"),
}

COUNTS = {
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "network.pairs_tested": "count",
    "network.pairs_tested.cca": "count",
    "network.pairs_tested.max": "count",
    "network.pairs_skipped": "count",
    "network.pairs_floored": "count",
    "network.edges_declared.cca": "count",
    "network.edges_declared.max": "count",
    "numkernel.flops_computed": "flop",
    "numkernel.bytes_computed": "bytes",
    "enrichment.tests": "count",
    "enrichment.enriched": "count",
    "simulation.replicates": "count",
}


def per_layer_units() -> dict:
    units = {}
    for stage in STAGES:
        units.update({f"cli.{stage}.wall_s": "s", f"cli.{stage}.setup_s": "s",
                      f"cli.{stage}.peak_rss_mb": "MiB"})
    units.update({f"{module}.self_s": "s" for module in MODULES})
    for name, kinds in SPAN_METRICS.items():
        units.update({f"{name}.{kind}": "count" if kind == "calls" else "s" for kind in kinds})
    units.update(COUNTS)
    units["trace.overhead_frac"] = "ratio"
    units["fail_frac"] = "ratio"
    return units


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _files(directory: Path) -> list:
    return sorted(p for p in directory.rglob("*") if p.is_file()) if directory.is_dir() else []


class Runner:
    """Runs one workload's stages in fresh processes and tallies failed operations.

    An invocation fails when its process does not complete with exit code 0,
    when its output fails a value check, or when the stage's invocations in
    this run did not all write the same bytes; the last makes it a failed
    operation but not an incorrect output.
    """

    def __init__(self, workload: str, run_dir: Path, prepared, env: dict):
        self.workload = workload
        self.run_dir = run_dir
        self.prepared = prepared
        self.env = env
        self.invocations = []
        self.deadline = time.perf_counter() + STAGE_DEADLINE_S

    def stage(self, stage, trace_id):
        """Run one stage; returns its record, or None when it did not complete."""
        out_dir = self.run_dir / stage.out
        shutil.rmtree(out_dir, ignore_errors=True)
        record_path = self.run_dir / "records" / f"{stage.name}.json"
        record_path.parent.mkdir(parents=True, exist_ok=True)
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(STAGE_PY), str(record_path)]
        if trace_id is not None:
            cmd += ["--trace", trace_id]
        cmd += ["--", *stage.argv]
        problems, record, digest = [], None, None
        try:
            proc = subprocess.run(cmd, cwd=self.run_dir, env=self.env, stdin=subprocess.DEVNULL,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            problems.append("error: killed at the run's time limit")
        else:
            if proc.returncode == 0 and record_path.exists():
                record = json.loads(record_path.read_text(encoding="utf-8"))
            if record is None or record["rc"] != 0:
                problems.append(f"error: exited {proc.returncode}/{record and record['rc']}: "
                                f"{proc.stderr.strip()[-500:]}")
                record = None
        if record is not None:
            problems += [f"check: {p}" for p in
                         checks.CHECKS[stage.check](self.run_dir, stage, self.prepared.truth)]
            digest = {str(p.relative_to(out_dir)): _sha256(p) for p in _files(out_dir)}
            record["bytes_read"] = sum((self.run_dir / p).stat().st_size for p in stage.reads)
            record["bytes_written"] = sum(p.stat().st_size for p in _files(out_dir))
        for problem in problems:
            print(f"FAIL {self.workload} {stage.name}: {problem}", file=sys.stderr)
        self.invocations.append({"stage": stage.name, "traced": trace_id is not None,
                                 "problems": problems, "digest": digest,
                                 "record": record and {k: v for k, v in record.items() if k != "trace"}})
        return record

    def iteration(self, trace_id=None) -> dict:
        return {stage.name: self.stage(stage, None if trace_id is None else f"{trace_id}-{stage.name}")
                for stage in self.prepared.stages}

    def tally(self):
        """(attempted, failed, incorrect) once every invocation has run."""
        for name in {inv["stage"] for inv in self.invocations}:
            runs = [inv for inv in self.invocations if inv["stage"] == name and inv["digest"]]
            digests = [json.dumps(inv["digest"], sort_keys=True) for inv in runs]
            if len(set(digests)) > 1:
                files = sorted({f for inv in runs for f, h in inv["digest"].items()
                                if h != runs[0]["digest"].get(f)})
                for inv in runs:
                    inv["problems"].append(f"bytes: output differs between invocations: {files}")
                print(f"FAIL {self.workload} {name}: output bytes differ between invocations: "
                      f"{files}", file=sys.stderr)
        failed = [inv for inv in self.invocations if inv["problems"]]
        incorrect = any(not p.startswith("bytes:") for inv in failed for p in inv["problems"])
        return len(self.invocations), len(failed), incorrect


def end_to_end(runner: Runner, prepared) -> dict:
    """Each stage's median over its untraced invocations, summed (or maxed) over stages."""
    per_stage = {}
    for stage in prepared.stages:
        records = [inv["record"] for inv in runner.invocations
                   if inv["stage"] == stage.name and not inv["traced"] and inv["record"]]
        if not records:
            return {}
        per_stage[stage.name] = {key: statistics.median(r[key] for r in records)
                                 for key in ("wall_s", "setup_s", "peak_rss_mb")}
    pair_time = sum(per_stage[name]["wall_s"] for name in prepared.truth["pair_stages"])
    return {
        "wall_s": sum(s["wall_s"] for s in per_stage.values()),
        "pairs_per_s": prepared.truth["pairs"] / pair_time,
        "setup_s": sum(s["setup_s"] for s in per_stage.values()),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in per_stage.values()),
    }


def _csv_rows(path: Path) -> list:
    with path.open(encoding="utf-8", newline="") as handle:
        return [row for row in csv.DictReader(handle)]


def per_layer(records: dict, run_dir: Path, prepared) -> tuple:
    """Per-layer metrics of one traced iteration, and the self-time accounting problems."""
    metrics = {name: 0 for name in per_layer_units()}
    problems = []
    absent = set()
    for name, record in records.items():
        stage = next(s for s in prepared.stages if s.name == name)
        doc = record["trace"]
        by_name = tracer.self_times(doc)
        modules = tracer.module_self_times(by_name)
        if abs(sum(modules.values()) - record["wall_s"]) > 1e-9 * record["wall_s"] + 1e-9:
            problems.append(f"{name}: module self times sum to {sum(modules.values())}, "
                            f"wall is {record['wall_s']}")
        absent.update(doc["absent"])
        metrics[f"cli.{name}.wall_s"] = record["wall_s"]
        metrics[f"cli.{name}.setup_s"] = record["setup_s"]
        metrics[f"cli.{name}.peak_rss_mb"] = record["peak_rss_mb"]
        for module, value in modules.items():
            metrics[f"{module}.self_s"] += value
        for span, kinds in SPAN_METRICS.items():
            for kind in kinds:
                metrics[f"{span}.{kind}"] += by_name.get(span, {}).get(kind, 0)
        metrics["numkernel.flops_computed"] += doc["flops"]
        metrics["numkernel.bytes_computed"] += doc["bytes"]
        metrics["io.bytes_read"] += record["bytes_read"]
        metrics["io.bytes_written"] += record["bytes_written"]
        out = run_dir / stage.out
        if stage.check in ("cca", "max"):
            meta = json.loads((out / "meta.json").read_text(encoding="utf-8"))
            metrics["network.pairs_tested"] += meta["tested_pairs"]
            metrics[f"network.pairs_tested.{stage.check}"] += meta["tested_pairs"]
            metrics["network.pairs_skipped"] += len(meta["skipped_pairs"])
            metrics["network.pairs_floored"] += len(meta["floored_pairs"])
            metrics[f"network.edges_declared.{stage.check}"] += meta["n_edges"]
        elif stage.check == "enrich":
            rows = _csv_rows(out / "enrichment.csv")
            metrics["enrichment.tests"] += len(rows)
            metrics["enrichment.enriched"] += sum(r["enriched"] == "1" for r in rows)
        elif stage.check == "power":
            rows = _csv_rows(out / "power.csv")
            points = {(r["r"], r["b"]) for r in rows}
            metrics["simulation.replicates"] += len(points) * int(rows[0]["reps"])
    return metrics, problems, sorted(absent)


def _median_dict(samples: list) -> dict:
    # median_low reports an observed value, so a count stays a whole number
    return {key: statistics.median_low(s[key] for s in samples) for key in samples[0]}


def _probe(env: dict) -> dict:
    proc = subprocess.run([sys.executable, str(STAGE_PY), "--probe"], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"cannot import macnet from {SRC}: {proc.stderr.strip()[-500:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(info.pop("macnet_path")).resolve() != (SRC / "macnet").resolve():
        raise SystemExit(f"macnet was not imported from {SRC}")
    return info


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=30)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "macnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MACNET_THREADS", None)
    env.pop("PYTHONSTARTUP", None)
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: dict) -> dict:
    """Iterate the workload for at least ``seconds`` (and at least twice, so bytes compare)."""
    env = child_env()
    info = _probe(env)
    run_dir = WORK / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    traced, traced_walls, trace_problems, absent = [], [], [], set()
    try:
        prepared = workloads.PREPARE[workload](run_dir, seed, sizes[workload])
        runner = Runner(workload, run_dir, prepared, env)
        started = time.perf_counter()
        iterations = 0
        while (iterations < 2 or time.perf_counter() - started < seconds) \
                and time.perf_counter() - started < HARD_LIMIT_S:
            # a traced run alternates untraced and traced iterations
            trace_id = f"{workload}-s{seed}-i{iterations}" if trace and iterations % 2 else None
            records = runner.iteration(trace_id)
            iterations += 1
            if trace_id is not None and all(r is not None for r in records.values()):
                metrics, problems, missing = per_layer(records, run_dir, prepared)
                traced.append(metrics)
                traced_walls.append(sum(r["wall_s"] for r in records.values()))
                trace_problems += problems
                absent.update(missing)
        edges = {}
        for stage in prepared.stages:
            meta = run_dir / stage.out / "meta.json"
            if stage.check in ("cca", "max") and meta.exists():
                edges[stage.check] = json.loads(meta.read_text(encoding="utf-8"))["n_edges"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed, incorrect = runner.tally()
    values = end_to_end(runner, prepared)
    if trace and traced and values:
        overhead = statistics.median(traced_walls) / values["wall_s"] - 1.0
        values = _median_dict(traced)
        values["trace.overhead_frac"] = overhead
        values["fail_frac"] = failed / attempted
    elif trace:
        values = {}
    units = per_layer_units() if trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()} if values else {}

    problems = [{"stage": inv["stage"], "problems": inv["problems"]}
                for inv in runner.invocations if inv["problems"]]
    if trace_problems:
        incorrect = True
        problems.append({"stage": "trace", "problems": trace_problems})
    environment = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commit": _commit(), "src_sha256": _src_digest(), **info,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "MACNET_THREADS": "unset for every stage (1 worker)",
        "sizes": prepared.sizes, "edges_declared": edges,
        "iterations": iterations, "absent_functions": sorted(absent),
    }
    return {
        "correct": not incorrect and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "environment": environment,
        "problems": problems,
        "invocations": runner.invocations,
    }


def _report(result: dict, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({"environment": result["environment"]}, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:<52} {metric['value']!r:>24} {metric['unit']}")
    for entry in result["problems"]:
        print(f"  FAILED {entry['stage']}: {entry['problems']}")
    print(f"  full record: {path.relative_to(ROOT)}")


def _final_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced; every metric printed with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in workloads.PREPARE:
        for trace in (False, True):
            result = run_workload(workload, seed=1, seconds=0, trace=trace, sizes=workloads.SMOKE)
            line = json.loads(_final_line(result))
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            label = f"{workload} trace={int(trace)}"
            # failed operations that are only byte mismatches leave the run correct;
            # they are reported, not asserted on
            if not line["correct"]:
                failures.append(f"{label}: {result['problems']}")
            if got != wanted[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()):
                failures.append(f"{label}: a metric value is not a number")
            print(f"smoke {label}: {len(got)} metrics, attempted {line['attempted']}, "
                  f"failed {line['failed']}")
    for failure in failures:
        print(f"SMOKE FAIL {failure}", file=sys.stderr)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.PREPARE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, self-check")
    args = parser.parse_args(argv)
    if not (SRC / "macnet" / "cli.py").is_file():
        print(f"error: no macnet sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL)
    _report(result, WORK / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json")
    print(_final_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
