"""The canonical product's tail budget where nothing was discarded."""

import math

import numpy as np

from zerocert import ZeroDistribution, build_product


def test_a_zero_tail_is_zero_everywhere():
    # a finite set is retained whole: its tail sum bound is 0, and so is
    # the tail at every z, also where 2|z| passes the cutoff radius
    prod = build_product(ZeroDistribution.from_points([3.0]))
    assert prod.tail_sum_bound == 0.0 and prod.cutoff_radius == 3.0
    z = [1.0, 1.6, 4.0, 1e200j]
    assert prod.tail_budget(z).tolist() == [0.0] * 4
    # a discarded tail keeps its bound inside the cutoff and inf outside
    lattice = build_product(ZeroDistribution.real_multiples(math.pi), 1, K=10)
    assert lattice.tail_sum_bound > 0
    tail = lattice.tail_budget(np.array([1.0, lattice.cutoff_radius]))
    assert 0.0 < tail[0] < math.inf and tail[1] == math.inf
