"""`check-mapping --bound` and `search-conforming --limit` take only
integers of at least 0.

A negative value is a usage error (exit 2) before any file is read;
0 is accepted, and text that is not an integer keeps the message that
argparse gives for type=int.
"""

import pytest

from ologs.cli import main

FILES = ("weight_F.map", "merge_is.map", "data/human", "data/person")


def run(capsys, fixtures, *argv):
    """cli.main on argv, with the fixture files named by their paths."""
    code = main([str(fixtures / a) if a in FILES else a for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HUMAN = ("--src-data", "data/human", "--dst-data", "data/person")


@pytest.mark.parametrize("value", ["-3", "-1", " -2 "])
def test_negative_bound_is_a_usage_error(value, fixtures, capsys):
    code, out, err = run(capsys, fixtures, "check-mapping", "weight_F.map",
                         "--bound", value)
    assert (code, out) == (2, "")
    assert err.startswith("usage: olog check-mapping ")
    assert err.endswith(f"error: argument --bound: must be at least 0, "
                        f"got {int(value)}\n")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_negative_bound_is_refused_with_json_too(json_flag, fixtures, capsys):
    code, out, err = run(capsys, fixtures, "check-mapping", "weight_F.map",
                         "--bound=-3", *json_flag)
    assert (code, out) == (2, "")
    assert "must be at least 0, got -3" in err


@pytest.mark.parametrize("value", ["0", "1", "25", "+4"])
def test_bound_of_zero_or_more_is_accepted(value, fixtures, capsys):
    assert run(capsys, fixtures, "check-mapping", "weight_F.map",
               "--bound", value) == (0, "", "")


@pytest.mark.parametrize("value", ["x", "2.5", ""])
def test_bound_that_is_not_an_integer_keeps_its_message(value, fixtures,
                                                        capsys):
    code, out, err = run(capsys, fixtures, "check-mapping", "weight_F.map",
                         "--bound", value)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --bound: invalid int value: "
                        f"{value!r}\n")


@pytest.mark.parametrize("value", ["-1", "-25"])
def test_negative_limit_is_a_usage_error(value, fixtures, capsys):
    code, out, err = run(capsys, fixtures, "search-conforming",
                         "merge_is.map", *HUMAN, "--limit", value)
    assert (code, out) == (2, "")
    assert err.startswith("usage: olog search-conforming ")
    assert err.endswith(f"error: argument --limit: must be at least 0, "
                        f"got {int(value)}\n")
    assert "above the limit" not in err


def test_limit_of_zero_is_the_search_limit(fixtures, capsys):
    code, out, err = run(capsys, fixtures, "search-conforming",
                         "merge_is.map", *HUMAN, "--limit", "0")
    assert (code, out) == (2, "")
    assert err == "error: search space has 25 candidates, above the limit of 0\n"


def test_limit_at_the_candidate_count_searches(fixtures, capsys):
    code, out, err = run(capsys, fixtures, "search-conforming",
                         "merge_is.map", *HUMAN, "--limit", "25")
    assert (code, err) == (0, "")
    assert out.startswith("candidates: 25\n")


def test_limit_that_is_not_an_integer_keeps_its_message(fixtures, capsys):
    code, out, err = run(capsys, fixtures, "search-conforming",
                         "merge_is.map", *HUMAN, "--limit", "many")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --limit: invalid int value: 'many'\n")
