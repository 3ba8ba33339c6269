"""Every outcome of the driver on the _random_case draws of seeds 0-39, for
each variant, frozen in random_case_outcomes.json.

An answered run is kept as its switches and the repr of its objective, a
failed one as its DriverError's kind, its full message and the fits its best
iterate counts.  A change that moves an outcome on purpose says so and
writes the file again:

    PYTHONPATH=src python tests/test_random_case_outcomes.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gridshed.ao2_sbqp import VARIANT_TAGS, Ao2Variant
from gridshed.cli_driver import DriverError, SolverConfig, run_ao_sbqp
from seeded_cases import _random_case

SEEDS = range(40)
TABLE = Path(__file__).with_name("random_case_outcomes.json")


def outcome(seed: int, tag: str) -> list:
    case = _random_case(np.random.default_rng(seed))
    try:
        res = run_ao_sbqp(case, SolverConfig(variant=Ao2Variant(tag=tag)))
    except DriverError as exc:
        return [exc.kind, str(exc), exc.best.outer_iterations]
    return [[round(v) for v in res.switches.y], repr(res.objective)]


@pytest.fixture(scope="module")
def frozen():
    return json.loads(TABLE.read_text())


@pytest.mark.parametrize("tag", VARIANT_TAGS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_case_outcome_is_frozen(frozen, seed, tag):
    assert outcome(seed, tag) == frozen[f"{seed} {tag}"]


if __name__ == "__main__":
    entries = (f" {json.dumps(f'{seed} {tag}')}: {json.dumps(outcome(seed, tag))}"
               for seed in SEEDS for tag in VARIANT_TAGS)
    TABLE.write_text("{\n" + ",\n".join(entries) + "\n}\n")
