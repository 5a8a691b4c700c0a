"""End-to-end acceptance gate.

One seeded default run feeds every assertion; each test pins the
tolerances for one guaranteed behavior of the workbench, so a regression
in any module surfaces here as well as in the unit suites.
"""

import json
import pathlib

import pytest

from relqft import runner, scenarios
from relqft.config import DEFAULT_CONFIG

REGISTRY = pathlib.Path(__file__).resolve().parents[1] / "docs" / "check_registry.md"


@pytest.fixture(scope="module")
def full_report():
    return runner.run(DEFAULT_CONFIG)


def outcome(report, name):
    found = [o for o in report.outcomes if o.name == name]
    assert len(found) == 1, f"missing check {name}"
    return found[0]


def test_all_checks_verify(full_report):
    verdicts = {o.name: o.verdict for o in full_report.outcomes}
    assert len(full_report.outcomes) == 13
    assert all(v == "verified" for v in verdicts.values()), verdicts
    assert full_report.exit_code == 0


def test_relational_observables_transform_covariantly(full_report):
    o = outcome(full_report, "relational-covariance")
    assert o.verdict == "verified"
    assert o.residuals["covariance"] <= 1e-10
    assert len(o.details["frames"]) == 5
    assert o.details["generators"] == 3


def test_field_transformation_and_reconstruction(full_report):
    o = outcome(full_report, "field-transformation")
    assert o.verdict == "verified"
    assert o.residuals["pointwise"] <= 1e-10
    assert o.residuals["integral"] <= 1e-10
    # every lattice point carried weight, so the pointwise law was
    # exercised on the full support
    assert o.details["supported_points"] == 25


def test_conditionals_transport_along_the_group(full_report):
    o = outcome(full_report, "disintegration-covariance")
    assert o.verdict == "verified"
    assert o.residuals["conditional"] <= 1e-10
    assert o.details["support_mismatches"] == 0
    assert o.details["compared"] > 0


def test_restriction_duality_and_product_rule(full_report):
    o = outcome(full_report, "restriction-duality")
    assert o.verdict == "verified"
    assert o.residuals["duality"] <= 1e-10
    assert o.residuals["product_rule"] <= 1e-12
    assert o.details["triples"] == 20


def test_relativization_channel_laws(full_report):
    o = outcome(full_report, "channel-laws")
    assert o.verdict == "verified"
    assert o.residuals["unitality"] <= 1e-10
    assert o.residuals["adjoint"] <= 1e-10
    assert o.residuals["linearity"] <= 1e-10
    assert o.residuals["diagonal_invariance"] <= 1e-10
    assert o.residuals["contractivity_excess"] <= 1e-10
    assert o.residuals["positivity_gap"] >= -1e-9
    assert o.residuals["order_gap"] >= -1e-9
    assert o.residuals["order_gap_unrestricted"] >= -1e-9
    assert o.details["draws_per_frame"] == 20


def test_microcausality_implies_causality(full_report):
    o = outcome(full_report, "microcausality-implication")
    assert o.verdict == "verified"
    assert o.details["instances"] >= 20
    assert o.details["counterexamples"] == 0
    assert o.details["premise_passing"] > 0
    assert o.residuals["causal_on_passers"] <= 1e-10


def test_joint_state_witness_and_preparation_swap(full_report):
    o = outcome(full_report, "intrinsic-causality-pipeline")
    assert o.verdict == "verified"
    assert o.residuals["joint_feasibility"] <= 1e-7
    assert o.residuals["preparation_swap"] <= 1e-9
    assert o.details["einstein_causal"]


def test_vacuum_correlator_laws(full_report):
    o = outcome(full_report, "wightman-suite")
    assert o.verdict == "verified"
    assert o.residuals["hermiticity"] <= 1e-12
    assert o.residuals["gram_gap"] >= -1e-10
    assert o.residuals["preparation_shift"] <= 1e-10
    assert o.residuals["kernel_shift"] <= 1e-10
    assert o.details["swap_premise"]
    assert o.residuals["commutativity_swap"] <= 1e-10
    assert o.residuals["kernel_swap"] <= 1e-10
    assert o.residuals["time_ordered_split"] <= 1e-10


def test_spectrum_confined_to_character_support(full_report):
    o = outcome(full_report, "spectral-condition")
    assert o.verdict == "verified"
    # non-vacuous: six momenta lie outside the support at N = 3
    assert o.details["outside_points"] == 6
    assert o.residuals["outside_support"] <= 1e-9
    # agreement with the independent nested-sum transform
    assert o.residuals["oracle_mismatch"] <= 1e-9


def test_vacuum_weight_scaling_and_strict_orthogonality(full_report):
    o = outcome(full_report, "vacuum-orthogonality")
    assert o.verdict == "verified"
    assert o.residuals["weight_error"] <= 1e-12
    weights = {int(n): w for n, w in o.details["weights"].items()}
    assert sorted(weights) == [3, 5, 7, 9]
    for n, w in weights.items():
        assert abs(w - 1.0 / n ** 2) <= 1e-12
    ordered = [weights[n] for n in (3, 5, 7, 9)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))
    # on the fixed-point-free complement the residual is exactly zero
    assert o.residuals["strict_residual"] == 0.0
    assert o.details["fixed_space_dim"] == 0


def test_invariant_states_are_polarization_fixed_points(full_report):
    o = outcome(full_report, "vacuum-polarization")
    assert o.verdict == "verified"
    assert o.residuals["fixed_point"] <= 1e-12
    assert len(o.details["frames"]) == 5
    assert o.residuals["predual_duality"] <= 1e-10
    assert o.residuals["frame_transform"] <= 1e-10


def test_local_net_axioms(full_report):
    o = outcome(full_report, "net-axioms")
    assert o.verdict == "verified"
    assert len(o.details["algebra_dims"]) == 5
    assert o.details["group_sample"] == 10
    assert o.residuals["intrinsic_isotony"] <= 1e-9
    assert o.residuals["intrinsic_covariance"] <= 1e-9
    assert o.residuals["intrinsic_causality"] <= 1e-10
    assert o.residuals["deterministic_isotony"] <= 1e-9
    assert o.residuals["deterministic_causality"] <= 1e-10
    assert o.residuals["deterministic_time_slice"] <= 1e-9
    verdicts = o.details["verdicts"]
    for key in ("intrinsic_isotony", "intrinsic_covariance",
                "intrinsic_causality", "deterministic_isotony",
                "deterministic_causality", "deterministic_time_slice"):
        assert verdicts[key] == "verified", key


def test_field_algebra_irreducibility(full_report):
    o = outcome(full_report, "irreducibility")
    assert o.verdict == "verified"
    assert o.residuals["commutant_excess"] == 0.0
    assert o.residuals["identity_commutant_defect"] == 0.0
    d = o.details["system_dim"]
    assert o.details["bicommutant_dim"] == d * d
    assert o.details["identity_commutant_dim"] == d * d
    assert o.details["cyclic_rank"] == d


def test_measurement_table_matches_the_run(full_report):
    text = REGISTRY.read_text(encoding="utf-8").split("## Measurements", 1)[1]
    rows = [[c.strip() for c in line.strip().strip("|").split("|")]
            for line in text.splitlines() if line.startswith("|")]
    assert rows[0] == ["check", "measurement", "sense", "bound"]
    documented = rows[2:]
    measured = [(o.name, m) for o in full_report.outcomes
                for m in o.measurements]
    assert [(c, name, sense) for c, name, sense, _ in documented] == [
        (c, m.name, m.sense) for c, m in measured]
    sources = {"EXACT_TOL": scenarios.EXACT_TOL,
               "SWAP_TOL": scenarios.SWAP_TOL, "GRAM_TOL": scenarios.GRAM_TOL}
    for (*_, bound), (_, m) in zip(documented, measured):
        name = bound.lstrip("-")
        if name.startswith("tol_"):
            value = DEFAULT_CONFIG.tol(name)
        else:
            value = sources[name] if name in sources else json.loads(name)
        assert m.bound == (-value if bound.startswith("-") else value), m.name


def test_reports_are_bitwise_reproducible(full_report):
    again = runner.run(DEFAULT_CONFIG)
    assert again.canonical_bytes() == full_report.canonical_bytes()
