"""Remake perfbench/reference.json: networkx connectivity values that the
benchmark checks the program's reports against.

    python3 perfbench/refs.py

* line-graphs: the base pairs as ``specpairs generate`` emits them, and
  networkx's vertex connectivity of their line graphs (built by
  oracle.line_graph).  networkx needs about half a minute for the
  L(edge_pair(6)) pair, too long to repeat on every run.
* graph6-analyze: for one seed, the sha256 of each generated graph6
  line and its networkx kappa and kappa'.  Runs with that seed check
  that the generator still makes the same graphs; other seeds compute
  networkx values during the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import inputs
import oracle
from run import HERE, ROOT, program_env

ANALYZE_SEED = 0


def base_pair(family, k):
    argv = [sys.executable, "-m", "specpairs", "generate", "--family", family]
    if k is not None:
        argv += ["--k", str(k)]
    out = subprocess.run(argv, env=program_env(), cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def main():
    ref = {"line-graphs": {}, "graph6-analyze": {}}
    for family, base, k in inputs.LINE_FAMILIES:
        g6 = base_pair(base, k)
        t0 = time.perf_counter()
        kappa = [oracle.nx_connectivity(oracle.line_graph(oracle.decode_graph6(s)),
                                        edge=False)[0] for s in g6]
        print(f"{family}: kappa {kappa} ({time.perf_counter() - t0:.1f} s)")
        ref["line-graphs"][family] = {"base_graph6": g6, "kappa": kappa}

    graphs = inputs.analyze_graphs(ANALYZE_SEED)
    values = [oracle.nx_connectivity(adj) for adj, _ in graphs]
    ref["graph6-analyze"] = {
        "seed": ANALYZE_SEED,
        "generator_version": inputs.GENERATOR_VERSION,
        "graph6_sha256": inputs.fingerprint(graphs),
        "kappa": [kv for kv, _ in values],
        "kappa_prime": [ke for _, ke in values],
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {HERE / 'reference.json'}")


if __name__ == "__main__":
    main()
