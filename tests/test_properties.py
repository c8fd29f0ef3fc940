"""Randomized law suites over generated ologs, instances, and documents."""

import prop_checks


def test_congruence_laws_on_random_ologs():
    assert prop_checks.check_congruence_laws(n=200) > 0


def test_unit_laws_via_path_normalization():
    assert prop_checks.check_unit_laws(n=100) > 0


def test_instance_projection_is_strictly_functorial():
    assert prop_checks.check_instance_functoriality(n=200) > 0


def test_path_equal_matches_congruence_oracle():
    assert prop_checks.check_path_equal_oracle(n=120) > 0


def test_pullback_functoriality_and_identity():
    assert prop_checks.check_pullback_laws(n=100) > 0


def test_search_matches_product_enumeration():
    assert prop_checks.check_search_matches_enumeration(n=300) > 0


def test_dsl_round_trip_on_random_documents():
    assert prop_checks.check_dsl_roundtrip(n=500) == 500
