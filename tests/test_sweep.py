"""Every check that reads N and s from the config gives a true verdict on
a sweep of valid configs, not only on the bundled ones.

``sweep_configs.json`` holds 25 valid configs.  The first is the N = 5,
s = 1 system with momenta (1, 0) and (2, 0), on which the smeared regular
frame is small enough for the unrestricted relativization.  The other 24
were drawn once from a seeded generator: N in {3, 5, 7}, any unit s, one
or two boost orbits of nonzero momenta, one to three of the configurable
frames and a random run seed; they are the first 24 draws whose seven
config-driven checks take under a second together.  The draws also set
``"window": 1``, which no check reads; the key is left out, since the
parser admits only the lifted chart (N - 1) // 2.

The seven config-driven checks run on all 25 configs.  The three lifted
checks read only N and s (their instances come from the lattice's
tables), and take seconds at N = 7, so they run on the first config of
each distinct (N, s) with N <= 5 and on the first N = 7 config, in file
order: configs chosen by size, never by verdict.  Every check is a
theorem on a valid config, so none may report ``failed`` or raise.
"""

import json
import pathlib

import pytest

from relqft import runner
from relqft.config import parse_config

CONFIGS = pathlib.Path(__file__).resolve().parent / "sweep_configs.json"
DOCS = json.loads(CONFIGS.read_text(encoding="utf-8"))

#: The checks that build their instances from the config.
CONFIG_DRIVEN = ("relational-covariance", "field-transformation",
                 "disintegration-covariance", "channel-laws",
                 "vacuum-orthogonality", "vacuum-polarization",
                 "irreducibility")

#: The checks on the lifted chart of the config's N and s.
LIFTED = ("microcausality-implication", "wightman-suite", "net-axioms")


def lifted_configs(docs) -> list[int]:
    """Index of the first config of each distinct (N, s) with N <= 5, and
    of the first N = 7 config, in file order."""
    first = {}
    for i, doc in enumerate(docs):
        N, s = doc["model"]["N"], doc["model"]["s"]
        first.setdefault((N, s) if N <= 5 else N, i)
    return sorted(first.values())


LIFTED_CONFIGS = lifted_configs(DOCS)


def test_the_sweep_is_large_and_varied():
    assert len(DOCS) == 25
    assert {doc["model"]["N"] for doc in DOCS} == {3, 5, 7}
    assert len({doc["model"]["s"] for doc in DOCS}) > 2


def test_the_lifted_configs_are_the_first_of_each_model():
    models = [tuple(DOCS[i]["model"].values()) for i in LIFTED_CONFIGS]
    # every (N, s) at N = 3 and 5, and one model at N = 7
    assert models == [(5, 1), (5, 2), (7, 2), (3, 2), (3, 1), (5, 4), (5, 3)]


def assert_none_fails(doc, targets):
    report = runner.run(parse_config(json.dumps(doc)), targets=targets)
    assert [o.name for o in report.outcomes] == list(targets)
    failed = {o.name: [m.name for m in o.measurements if not m.holds]
              for o in report.outcomes if o.verdict == "failed"}
    assert not failed, failed


@pytest.mark.parametrize("doc", DOCS, ids=[str(i) for i in range(len(DOCS))])
def test_no_config_driven_check_fails(doc):
    assert_none_fails(doc, CONFIG_DRIVEN)


@pytest.mark.parametrize("index", LIFTED_CONFIGS, ids=str)
def test_no_lifted_check_fails(index):
    assert_none_fails(DOCS[index], LIFTED)
