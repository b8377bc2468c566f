"""Workload inputs, generated from a seed.

Each workload is a pure function of its seed: the same seed gives the
same scenario file, byte for byte.  Run this file to write the inputs
of every workload for one seed:

    python3 bench/workloads.py --seed 0 --out-dir some/dir
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path

# The README scenario's shared blocks: |z| as the majorant, the plane
# profile of power 1, the m0 probe and the lemma1 disks.
_MAJORANT = {"up": {"kind": "radial-power", "sigma": 1.0, "rho": 1.0}}
_PROFILE = {"kind": "plane-power", "power": 1.0}
_M0 = {"r_max": 40.0, "per_shell": 6}
_LEMMA1 = {"d_tilde": {"radius": 1.0}, "s": {"radius": 0.5},
           "z0": {"re": 0.0}, "b": 1.0}

SINE_GRID_POINTS = 300
SINE_GRID_RADIUS = 4.0
GAUSS_T_MAX = 200.0
GAUSS_RATIO = 1.05
GAUSS_EPS = 0.25


def sine_certify(seed):
    """README scenario (zeros of sin z / z under |z|) with a large grid.

    The seed picks the random-disk sufficiency grid; construction of the
    canonical product and the enlarged radii do almost all the work.
    """
    return {
        "label": "sine-certify",
        "zeros": {"generator": {"kind": "real-multiples",
                                "step": math.pi, "max_radius": 1e5}},
        "majorant": _MAJORANT,
        "profile": _PROFILE,
        "family": {"kind": "truncated-log", "t_min": 0.5, "t_max": 50.0,
                   "ratio": 1.4},
        "grids": {"sufficiency": {"kind": "random-disk",
                                  "radius": SINE_GRID_RADIUS,
                                  "count": SINE_GRID_POINTS, "seed": seed},
                  "m0": _M0},
        "lemma1": _LEMMA1,
    }


def gauss_smooth_violate(seed):
    """Gaussian integers under |z| with the smooth-capped-log sweep.

    The seed offsets the tau grid (t_min within one ratio step above 0.5)
    and picks the sufficiency grid; the number of taus, and so the work,
    stays the same to within one tau.
    """
    rng = random.Random(seed)
    t_min = 0.5 * GAUSS_RATIO ** rng.random()
    return {
        "label": "gauss-smooth-violate",
        "zeros": {"generator": {"kind": "gaussian-integers", "scale": 1.0}},
        "majorant": _MAJORANT,
        "profile": _PROFILE,
        "family": {"kind": "smooth-capped-log", "t_min": t_min,
                   "t_max": GAUSS_T_MAX, "ratio": GAUSS_RATIO,
                   "eps": GAUSS_EPS},
        "grids": {"sufficiency": {"kind": "random-disk", "radius": 4.0,
                                  "count": 24, "seed": seed},
                  "m0": _M0},
        "lemma1": _LEMMA1,
    }


WORKLOADS = {
    "sine-certify": sine_certify,
    "gauss-smooth-violate": gauss_smooth_violate,
}


def write_input(name, seed, out_dir):
    """Write one workload's input file and return its path."""
    path = Path(out_dir) / ("%s.json" % name)
    path.write_text(json.dumps(WORKLOADS[name](seed), indent=1) + "\n",
                    encoding="utf-8")
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    for name in WORKLOADS:
        print(write_input(name, args.seed, args.out_dir))


if __name__ == "__main__":
    main()
