"""Seeded generators of small valid cases, shared by the tests and tools/.

Each takes a numpy Generator and draws the same case for the same seed.
The module imports no test package, so a tool can use it without pytest or
hypothesis installed.
"""

import numpy as np

from gridshed.grid_model import DEFAULT_THETA_BOUND, Branch, Bus, DemandSpec, Generator, GridCase


def _random_case(rng) -> GridCase:
    """A small valid case: 2-8 buses with gapped ids, a random spanning tree
    of branches plus a few more, 1-3 generators, random loads and ranks, and
    non-default angle bounds on at least one bus."""
    n = int(rng.integers(2, 9))
    ids = [int(v) for v in np.cumsum(rng.integers(2, 40, n))]
    slack = rng.integers(n)
    bounded = rng.random(n) < 0.4
    bounded[rng.integers(n)] = True
    buses = []
    for k, bus in enumerate(ids):
        v_min = rng.uniform(0.8, 1.0)
        lo, hi = (-rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)) if bounded[k] else \
            (-DEFAULT_THETA_BOUND, DEFAULT_THETA_BOUND)
        buses.append(Bus(id=bus, v_min=v_min, v_max=v_min + rng.uniform(0.0, 0.3),
                         theta_min=lo, theta_max=hi, is_slack=bool(k == slack)))
    pairs = {frozenset((ids[k], ids[rng.integers(k)])) for k in range(1, n)}
    for _ in range(rng.integers(0, 4)):
        pairs.add(frozenset(int(v) for v in rng.choice(ids, 2, replace=False)))
    branches = []
    for pair in sorted(pairs, key=sorted):
        f, t = rng.permutation(sorted(pair))
        branches.append(Branch(from_bus=int(f), to_bus=int(t), g=rng.uniform(0.0, 20.0),
                               b=-rng.uniform(0.1, 50.0)))
    generators = []
    for bus in rng.choice(ids, int(rng.integers(1, min(3, n) + 1)), replace=False):
        pg_min, qg_min = rng.uniform(0.0, 1.0), -rng.uniform(0.0, 3.0)
        generators.append(Generator(bus=int(bus), pg_min=pg_min, pg_max=pg_min + rng.uniform(0.0, 4.0),
                                    qg_min=qg_min, qg_max=qg_min + rng.uniform(0.0, 6.0)))
    demands = []
    for bus in rng.choice(ids, int(rng.integers(1, n + 1)), replace=False):
        loaded = rng.random() < 0.8
        demands.append(DemandSpec(bus=int(bus), pd=rng.uniform(0.0, 3.0) if loaded else 0.0,
                                  qd=rng.uniform(-0.5, 1.5) if loaded else 0.0,
                                  rank=rng.uniform(0.1, 5.0)))
    return GridCase(buses=tuple(buses), branches=tuple(branches), generators=tuple(generators),
                    demands=tuple(demands), base_mva=rng.uniform(10.0, 1000.0))


def _feasible_case(rng, demands=(2, 7)) -> GridCase:
    """A small case that always has an answer: 2-6 demands on 2-7 buses, or
    demands[0] to demands[1] - 1 demands on as many buses or more.

    pg_min is 0, every qg range contains 0 and every voltage band contains
    [0.95, 1.05], so the all-off set balances at the flat point.  Summed
    pg_max is 0.5-1.5 times summed pd, so about half the cases must shed.
    """
    n_dem = int(rng.integers(*demands))
    n = int(rng.integers(max(2, n_dem), max(8, n_dem + 1)))
    slack = int(rng.integers(n))
    buses = [Bus(id=k + 1, v_min=rng.uniform(0.9, 0.95), v_max=rng.uniform(1.05, 1.1),
                 is_slack=k == slack) for k in range(n)]
    pairs = {(int(rng.integers(k)) + 1, k + 1) for k in range(1, n)}
    for _ in range(int(rng.integers(0, 3))):
        f, t = sorted(int(v) + 1 for v in rng.choice(n, 2, replace=False))
        pairs.add((f, t))
    branches = []
    for f, t in sorted(pairs):
        r, x = rng.uniform(0.005, 0.05), rng.uniform(0.02, 0.2)
        den = r * r + x * x
        branches.append(Branch(from_bus=f, to_bus=t, g=r / den, b=-x / den, r=r, x=x))
    demands = [DemandSpec(bus=int(bus) + 1, pd=rng.uniform(0.1, 1.0), qd=rng.uniform(0.0, 0.3),
                          rank=rng.uniform(0.1, 5.0))
               for bus in rng.choice(n, n_dem, replace=False)]
    gen_buses = rng.choice(n, int(rng.integers(1, min(3, n) + 1)), replace=False)
    total = rng.uniform(0.5, 1.5) * sum(d.pd for d in demands)
    generators = [Generator(bus=int(bus) + 1, pg_min=0.0, pg_max=total * share,
                            qg_min=-rng.uniform(0.5, 2.0), qg_max=rng.uniform(0.5, 2.0))
                  for bus, share in zip(gen_buses, rng.dirichlet(np.ones(gen_buses.size)))]
    return GridCase(buses=tuple(buses), branches=tuple(branches), generators=tuple(generators),
                    demands=tuple(demands))
