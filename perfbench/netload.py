"""Local-net workload: net axioms of the sharp-position net on single sites.

This is the model of the ``net-axioms`` check (N = 5, s = 2, lifted with
window 2, spacetime representation, site generator at (0, 0),
fiber-uniform spacetime frame) on a region list small enough for one run
to take seconds instead of minutes: the empty region and the spacelike
pair {(1, 4)}, {(4, 1)}.  The seed draws one group element for the
covariance axiom.  Elements that map a site of the pair onto the pair are
redrawn, so every seed builds four distinct single-site local algebras,
each a double commutant at d = 25.

    PYTHONPATH=src python3 perfbench/netload.py --seed 7

Prints a report shaped like the CLI's JSON report (one record per axiom)
and exits 0 when no axiom failed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from relqft import fields, frames, net
from relqft import operators as ops
from relqft.lattice import LatticePoint, ModelParams, act_point

#: Tolerance of the ``net-axioms`` check.
NET_TOL = 1e-9
PAIR = (frozenset({LatticePoint(1, 4)}), frozenset({LatticePoint(4, 1)}))


def draw_element(params: ModelParams, seed: int):
    """Seeded group element that moves both sites of PAIR off the pair."""
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0]))
    elements = params.group_elements()
    sites = {x for region in PAIR for x in region}
    while True:
        g = elements[int(rng.integers(len(elements)))]
        if not sites & {act_point(g, x, params) for x in sites}:
            return g


def run(seed: int) -> dict:
    params = ModelParams(5, 2, causal_mode="lifted", window=2)
    rep = ops.spacetime_representation(params)
    site = np.zeros(rep.dim, dtype=complex)
    site[params.lattice_points().index(LatticePoint(0, 0))] = 1.0
    system = fields.SystemModel(params, rep, np.outer(site, site.conj()))
    frame = frames.fiber_uniform_spacetime_frame(params)
    local_net = net.LocalAlgebraNet(frame, system, [system.phi])
    g = draw_element(params, seed)
    regions = [frozenset(), *PAIR]
    report = net.verify_net_axioms(local_net, regions, [g],
                                   spacelike_pairs=[PAIR], tol_eq=NET_TOL)
    dims = {str(sorted((x.u, x.v) for x in region)):
            algebra.algebra.subspace_dim
            for region, algebra in local_net.algebras.items()}
    checks = [{"name": f"net-{axiom}", "verdict": r.verdict,
               "residuals": {"max_residual": float(r.max_residual)},
               "details": {"pairs_checked": r.pairs_checked, **r.details}}
              for axiom, r in report.axioms.items()]
    return {"seed": seed, "group_element": list(g), "algebra_dims": dims,
            "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20260819)
    args = parser.parse_args(argv)
    report = run(args.seed)
    print(json.dumps(report, sort_keys=True))
    return 1 if any(c["verdict"] == "failed" for c in report["checks"]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
