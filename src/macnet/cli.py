"""Command-line surface: infer, netstat, classify, enrich, simulate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
Failures emit a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import classify as classify_mod
from . import enrichment as enrichment_mod
from . import io as io_mod
from . import network as network_mod
from . import simulation as simulation_mod
from .errors import MacnetError, UsageError
from .inference import PVALUE_MODES


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _probability(label):
    def convert(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{label} must be a number, got {text!r}")
        if not (0.0 < value < 1.0):
            raise argparse.ArgumentTypeError(f"{label} must lie in (0, 1), got {value}")
        return value

    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="macnet", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_infer = sub.add_parser("infer", help="infer an association network from attribute CSVs")
    p_infer.add_argument("inputs", nargs="+", help="one CSV per attribute: node_id,s1,...,sn")
    p_infer.add_argument("--method", choices=network_mod.METHODS, default="cca")
    p_infer.add_argument("--attributes", help="comma-separated attribute subset, by name")
    p_infer.add_argument("--fdr", type=_probability("--fdr"), default=0.05)
    p_infer.add_argument("--pvalue-mode", choices=PVALUE_MODES, default="formula")
    p_infer.add_argument("--out", default=".", help="output directory")

    p_netstat = sub.add_parser("netstat", help="summary statistics and pairwise Jaccard overlap")
    p_netstat.add_argument("edges", nargs="+", help="edge CSVs written by infer")
    p_netstat.add_argument("--out", default=".")

    p_classify = sub.add_parser("classify", help="edge/node classes from contribution vectors")
    p_classify.add_argument("edges", help="edge CSV written by infer (method cca)")
    p_classify.add_argument("--threshold", type=_probability("--threshold"),
                            default=classify_mod.DEFAULT_THRESHOLD)
    p_classify.add_argument("--out", default=".")

    p_enrich = sub.add_parser("enrich", help="set over-representation of node classes")
    p_enrich.add_argument("classes", help="node class CSV written by classify")
    p_enrich.add_argument("sets", help="tab-separated set file: name<TAB>description<TAB>members...")
    p_enrich.add_argument("--universe", type=int, required=True, help="identifier universe size")
    p_enrich.add_argument("--fdr", type=_probability("--fdr"), default=0.05)
    p_enrich.add_argument("--exclude", help="comma-separated substrings of set names to drop")
    p_enrich.add_argument("--out", default=".")

    p_sim = sub.add_parser("simulate", help="edge-detection power over a correlation grid")
    grid = p_sim.add_mutually_exclusive_group(required=True)
    grid.add_argument("--slice", choices=sorted(simulation_mod.SLICES),
                      help="sweep along a named (r, b) slice")
    grid.add_argument("--grid", help="explicit points as r:b[,r:b...]")
    p_sim.add_argument("--points", type=int, default=9,
                       help="points along the slice (ignored with --grid)")
    p_sim.add_argument("--rho1", type=float, default=0.3)
    p_sim.add_argument("--rho2", type=float, default=0.1)
    p_sim.add_argument("--n", type=int, default=50)
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--alpha", type=_probability("--alpha"), default=0.05)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--scenarios", default="1,2,3,4,5")
    p_sim.add_argument("--two-sided", action="store_true",
                       help="use the two-sided test variants (default one-sided)")
    p_sim.add_argument("--pvalue-mode", choices=PVALUE_MODES, default="formula")
    p_sim.add_argument("--out", default=".")

    return parser


def _cmd_infer(args) -> int:
    dataset = io_mod.ingest(args.inputs)
    if args.attributes:
        dataset = dataset.select([a.strip() for a in args.attributes.split(",") if a.strip()])
    net = network_mod.infer_network(dataset, args.method, args.fdr, pvalue_mode=args.pvalue_mode)
    out = Path(args.out)
    io_mod.write_edges_csv(net, out / "edges.csv")
    io_mod.write_meta_json(net, out / io_mod.META_FILENAME)
    print(f"{net.n_edges} edges over {net.n_nodes} nodes -> {out / 'edges.csv'}")
    return 0


def _distribution_stems(paths) -> dict:
    """Per input path, the stem of its ``*_distributions.csv``: the file's own stem,
    plus the first 8 hex digits of the path's SHA-256 when another input shares it."""
    stems = Counter(path.stem for path in set(paths))
    return {
        path: path.stem if stems[path.stem] == 1
        else f"{path.stem}_{hashlib.sha256(path.as_posix().encode()).hexdigest()[:8]}"
        for path in paths
    }


def _cmd_netstat(args) -> int:
    networks = [(Path(path), io_mod.read_network(path)) for path in args.edges]
    out = Path(args.out)
    stems = _distribution_stems([path for path, _ in networks])
    summaries = {}
    for path, net in networks:
        if str(path) in summaries:
            continue
        stats = network_mod.summary(net)
        summaries[str(path)] = io_mod.summary_dict(stats)
        io_mod.write_distribution_csv(net, stats.degrees, stats.clustering, stats.betweenness,
                                      out / f"{stems[path]}_distributions.csv")
    io_mod.write_summary_json(summaries, out / "summary.json")
    if len(networks) > 1:
        rows = []
        for a in range(len(networks)):
            for b in range(a + 1, len(networks)):
                value, shared = network_mod.jaccard(networks[a][1], networks[b][1])
                rows.append((str(networks[a][0]), str(networks[b][0]), value, shared))
        io_mod.write_jaccard_csv(rows, out / "jaccard.csv")
    print(f"summaries for {len(networks)} network(s) -> {out / 'summary.json'}")
    return 0


def _cmd_classify(args) -> int:
    net = io_mod.read_network(args.edges)
    edge_classes, node_classes = classify_mod.classify_network(net, args.threshold)
    out = Path(args.out)
    io_mod.write_edge_classes_csv(edge_classes, net.attribute_names, out / "edge_classes.csv")
    io_mod.write_node_classes_csv(node_classes, net.attribute_names, out / "node_classes.csv")
    io_mod.write_simplex_csv(node_classes, net.attribute_names, out / "simplex.csv")
    counts = classify_mod.contribution_histogram(edge_classes)
    io_mod.write_histogram_csv(counts, out / "contrib_histogram.csv")
    print(f"{len(edge_classes)} edges / {len(node_classes)} nodes classified -> {out}")
    return 0


def _cmd_enrich(args) -> int:
    classes = io_mod.read_node_classes(args.classes)
    gsc = enrichment_mod.load_gmt(args.sets, args.universe)
    exclude = [t.strip() for t in args.exclude.split(",")] if args.exclude else None
    report = enrichment_mod.enrich(classes, gsc, args.fdr, exclude=exclude)
    out = Path(args.out)
    io_mod.write_enrichment_csv(report, out / "enrichment.csv")
    print(f"{int(report.enriched.sum())} enriched (class, set) pairs of {len(report)} tested -> "
          f"{out / 'enrichment.csv'}")
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _parse_grid(text: str):
    points = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            r, b = map(float, token.split(":"))
        except ValueError:
            raise UsageError(f"grid points must look like r:b with numbers r and b, "
                             f"got {token!r}") from None
        points.append((r, b))
    if not points:
        raise UsageError("empty --grid")
    return tuple(points)


def _slice_sweep(name: str, points: int, rho1: float, rho2: float) -> tuple:
    """``points`` grid points along slice ``name``, its free parameter swept from 0 up
    to 95% of the largest of 500 candidates in [0, 0.99] that is valid at (rho1, rho2)."""
    if points < 1:
        raise UsageError(f"--points must be positive, got {points}")
    params = simulation_mod.K2Params(r=0.0, b=0.0, rho1=rho1, rho2=rho2)
    candidates = np.linspace(0.0, 0.99, 500)
    valid = candidates[params.valid_at(*simulation_mod.SLICES[name](candidates))]
    if not valid.size:
        raise UsageError(f"no point of slice {name} is valid at rho1={rho1}, rho2={rho2}")
    return simulation_mod.slice_grid(name, np.linspace(0.0, 0.95 * valid[-1], points))


def _cmd_simulate(args) -> int:
    try:
        scenarios = tuple(int(s) for s in args.scenarios.split(",") if s.strip())
    except ValueError:
        raise UsageError(f"--scenarios must be comma-separated integers, "
                         f"got {args.scenarios!r}") from None
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = _slice_sweep(args.slice, args.points, args.rho1, args.rho2)
    spec = simulation_mod.PowerStudySpec(
        grid=grid,
        rho1=args.rho1,
        rho2=args.rho2,
        n=args.n,
        reps=args.reps,
        alpha=args.alpha,
        seed=args.seed,
        scenarios=scenarios,
        one_sided=not args.two_sided,
        pvalue_mode=args.pvalue_mode,
    )
    result = simulation_mod.power_study(spec)
    out = Path(args.out)
    io_mod.write_power_csv(result, out / "power.csv")
    print(f"{result.rejections.size} power cells -> {out / 'power.csv'}")
    return 0


_COMMANDS = {
    "infer": _cmd_infer,
    "netstat": _cmd_netstat,
    "classify": _cmd_classify,
    "enrich": _cmd_enrich,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.subcommand](args)
    except MacnetError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        for attr in ("path", "line", "column", "index"):
            if getattr(exc, attr, None) is not None:
                payload[attr] = getattr(exc, attr)
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
