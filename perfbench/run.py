"""specpairs benchmark: time three CLI workloads and check every output.

    python3 perfbench/run.py --workload paper-families --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported
from its ``src`` directory.  The run

1. makes the workload's inputs from ``--seed`` (only ``graph6-analyze``
   draws anything at random),
2. times ``setup_s``, the median over fresh interpreters of starting one
   and importing ``specpairs.cli``, sampled before and after step 3,
3. runs the workload in a worker process (see worker.py), whole passes
   for about ``--seconds``; with ``--trace 1`` spans around each layer
   give the per-layer metrics instead of the end-to-end ones,
4. checks every report of the first pass against oracle.py, checks that
   later passes reproduce it, and shows that each check rejects a
   report with one value altered.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  Results and spans of the latest run of each workload are
kept under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # before the workload, and again after it
WORKER_TIMEOUT_S = 150


def program_env():
    """The program's environment: its sources first, one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_samples(count: int) -> list:
    """Seconds from spawning a fresh interpreter to it having imported
    specpairs.cli and exited, ``count`` times."""
    argv = [sys.executable, "-c", "import specpairs.cli"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(argv, env=program_env(), check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return samples


def run_worker(out: Path, ops, seconds, trace) -> dict:
    job, result = out / "job.json", out / "result.json"
    job.write_text(json.dumps({"ops": ops, "seconds": seconds, "trace": trace}))
    result.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job), str(result)],
        env=program_env(), cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(result.read_text())


# -- oracle facts and checks per workload -------------------------------------------
#
# Each returns (problems, mutants) where mutants is [(label, rejected)] for
# one report of the workload altered in each way checks.py knows.


def _reference():
    return json.loads((HERE / "reference.json").read_text())


def _labeled(problems, label):
    return [(check, f"{label}: {message}") for check, message in problems]


def _rejected(cases, judge):
    return [(label, set(expected) <= {check for check, _ in judge(mutated)})
            for label, expected, mutated in cases]


def check_paper_families(reports):
    problems, mutants = [], []
    for (family, k), text in zip(inputs.PAPER_FAMILIES, reports):
        report = json.loads(text)
        order, degree, kappa, kappa_prime = checks.paper_claims(family, k)
        facts = {}
        for which, g6, kv, ke in zip(("gamma", "gamma_prime"), report["graph6"],
                                     kappa, kappa_prime):
            adj = oracle.decode_graph6(g6)
            if kv is None or ke is None:
                nx_kv, nx_ke = oracle.nx_connectivity(adj)
                kv, ke = (nx_kv if kv is None else kv), (nx_ke if ke is None else ke)
            facts[which] = checks.graph_facts(adj, kv, ke, fiedler=True)
        spec = {"family": family, "k": 4 if k is None else k, "order": order,
                "degree": degree, "checks": inputs.FAMILY_CHECKS.split(",")}
        problems += _labeled(checks.verify_problems(report, spec, facts), f"{family} k={k}")
        if (family, k) == ("edge", 6):  # the report with every check in it
            mutants = _rejected(checks.verify_mutants(report, facts["gamma_prime"]["adj"]),
                                lambda r: checks.verify_problems(r, spec, facts))
    return problems, mutants


def check_line_graphs(reports):
    ref = _reference()["line-graphs"]
    problems, mutants = [], []
    for (family, _, k), text in zip(inputs.LINE_FAMILIES, reports):
        report = json.loads(text)
        facts = {}
        for which, base_g6, kv in zip(("gamma", "gamma_prime"),
                                      ref[family]["base_graph6"], ref[family]["kappa"]):
            base = oracle.decode_graph6(base_g6)
            facts[which] = checks.graph_facts(oracle.line_graph(base), kv, sachs_base=base)
        spec = {"family": family, "k": 4 if k is None else k,
                "order": facts["gamma"]["order"], "degree": facts["gamma"]["degree"],
                "checks": inputs.LINE_CHECKS.split(",")}
        problems += _labeled(checks.verify_problems(report, spec, facts), family)
        if not mutants:  # the small pair keeps the mutant search cheap
            mutants = _rejected(
                checks.verify_mutants(report, facts["gamma_prime"]["adj"], sachs=True),
                lambda r: checks.verify_problems(r, spec, facts))
    return problems, mutants


def check_graph6_analyze(reports, graphs, seed):
    problems, facts = [], []
    for adj, bip in graphs:
        kv, ke = oracle.nx_connectivity(adj)
        facts.append(dict(checks.graph_facts(adj, kv, ke), bipartite=bip))
        if oracle.bipartite(adj) != bip:
            problems.append(("shape", "the generator mislabeled a graph's bipartiteness"))
    ref = _reference()["graph6-analyze"]
    if seed == ref["seed"]:
        pinned = (inputs.GENERATOR_VERSION, inputs.fingerprint(graphs),
                  [f["kappa"] for f in facts], [f["kappa_prime"] for f in facts])
        if pinned != (ref["generator_version"], ref["graph6_sha256"],
                      ref["kappa"], ref["kappa_prime"]):
            problems.append(("shape", "inputs or networkx values differ from reference.json"))
    report = json.loads(reports[0])
    problems += checks.analyze_problems(report, facts)
    mutants = _rejected(checks.analyze_mutants(report, facts[0]["adj"]),
                        lambda r: checks.analyze_problems(r, facts))
    return problems, mutants


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "specpairs" / "cli.py").is_file():
        print(f"error: no specpairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = HERE / "out" / f"{args.workload}-trace{args.trace}"
    out.mkdir(parents=True, exist_ok=True)
    graphs = g6_path = None
    if args.workload == "graph6-analyze":
        graphs = inputs.analyze_graphs(args.seed)
        g6_path = out / "input.g6"
        g6_path.write_text("".join(oracle.encode_graph6(a) + "\n" for a, _ in graphs))
    ops = inputs.operations(args.workload, g6_path)

    setup_samples(1)  # untimed: writes the bytecode caches
    setup = setup_samples(SETUP_SAMPLES)
    result = run_worker(out, ops, args.seconds, args.trace)
    setup += setup_samples(SETUP_SAMPLES)
    passes = result["passes"]

    try:
        if args.workload == "paper-families":
            problems, mutants = check_paper_families(result["reports"])
        elif args.workload == "line-graphs":
            problems, mutants = check_line_graphs(result["reports"])
        else:
            problems, mutants = check_graph6_analyze(result["reports"], graphs, args.seed)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems, mutants = [("report", f"unreadable: {exc!r}")], []
    for p in passes[1:]:
        if p["digests"] != passes[0]["digests"]:
            problems.append(("repeat", "a later pass gave different reports"))

    attempted = sum(len(p["codes"]) for p in passes)
    failed = sum(code != 0 for p in passes for code in p["codes"])
    walls = [p["wall_s"] for p in passes]
    # per pass, averaged over the run: CPU speed here drifts over tens of
    # seconds, and the mean over the whole run follows it less than a median
    if args.trace:
        values = {name: statistics.mean(p["layers"][name] for p in passes)
                  for name in passes[0]["layers"]}
    else:
        values = {"wall_s": statistics.mean(walls), "setup_s": statistics.median(setup),
                  "peak_rss_mb": result["peak_rss_kb"] / 1024}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    correct = not problems and bool(mutants) and all(ok for _, ok in mutants)

    for check, message in problems:
        print(f"FAIL {check}: {message}")
    for label, ok in mutants:
        print(f"mutant {'rejected' if ok else 'ACCEPTED'}: {label}")
    print(f"{args.workload}: {len(passes)} passes of {len(ops)} calls, "
          f"pass seconds {' '.join(f'{w:.3f}' for w in walls)}")
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
