"""Every check that reads the config gives a true verdict on a sweep of
valid configs, not only on the bundled ones.

``sweep_configs.json`` holds 25 valid configs.  The first is the N = 5,
s = 1 system with momenta (1, 0) and (2, 0), on which the smeared regular
frame is small enough for the unrestricted relativization.  The other 24
were drawn once from a seeded generator: N in {3, 5, 7}, any unit s, one
or two boost orbits of nonzero momenta, one to three of the configurable
frames and a random run seed; they are the first 24 draws whose seven
checks take under a second together.  The draws also set ``"window": 1``,
which none of the seven checks reads; the key is left out, since the
parser admits only the lifted chart (N - 1) // 2.  Every check is a
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


def test_the_sweep_is_large_and_varied():
    assert len(DOCS) == 25
    assert {doc["model"]["N"] for doc in DOCS} == {3, 5, 7}
    assert len({doc["model"]["s"] for doc in DOCS}) > 2


@pytest.mark.parametrize("doc", DOCS, ids=[str(i) for i in range(len(DOCS))])
def test_no_config_driven_check_fails(doc):
    report = runner.run(parse_config(json.dumps(doc)), targets=CONFIG_DRIVEN)
    assert [o.name for o in report.outcomes] == list(CONFIG_DRIVEN)
    failed = {o.name: [m.name for m in o.measurements if not m.holds]
              for o in report.outcomes if o.verdict == "failed"}
    assert not failed, failed
