"""`olog` pauses the cyclic garbage collector while a command runs.

`cli.main` disables the collector after parsing its arguments and, on
every way out, enables it again only if it was enabled before.  The
pause frees nothing late because the commands build no reference
cycles: after the parser is built, `gc.collect()` finds nothing after
each fixture command, error paths included.
"""

import gc

import pytest

from ologs import cli

F = "tests/fixtures"

# One invocation per way out of main: its exit code and its argv.
EXITS = [
    (0, ["read", f"{F}/amino.olog", "--facts"]),
    (1, ["check-instance", f"{F}/father.olog", f"{F}/data/human"]),
    (2, ["check-mapping", f"{F}/marriage.map", "--src-data", "x"]),
    (2, ["validate", "BAD"]),  # a parse error
    (2, ["read", "no/such/file.olog"]),
    (2, ["validate", "--no-such-option"]),
    (0, ["--help"]),
]

# Fixture commands, as CI runs them, and their error paths.  argparse's
# own error exit is not among them: it comes before the pause, and the
# collector frees the few cycles it leaves.
COMMANDS = [
    ["validate", f"{F}/amino.olog"],
    ["validate", f"{F}/address.olog", "--json"],
    ["read", f"{F}/amino.olog", "--facts"],
    ["read", f"{F}/parents.olog", "--facts", "--json"],
    ["check-instance", f"{F}/father.olog", f"{F}/data/bush"],
    ["check-instance", f"{F}/father.olog", f"{F}/data/human"],
    ["check-mapping", f"{F}/marriage.map"],
    ["check-mapping", f"{F}/marriage.map", "--bound", "0", "--json"],
    ["check-mapping", f"{F}/merge_is.map",
     "--src-data", f"{F}/data/human", "--dst-data", f"{F}/data/person"],
    ["search-conforming", f"{F}/merge_is.map",
     "--src-data", f"{F}/data/human", "--dst-data", f"{F}/data/person"],
    ["search-conforming", f"{F}/merge_father.map",
     "--src-data", f"{F}/data/human", "--dst-data", f"{F}/data/person",
     "--limit", "0"],
    ["check-mapping", f"{F}/weight_F.map"],
    ["read", "no/such/file.olog"],
    ["check-instance", f"{F}/father.olog", "no/such/bundle"],
]


@pytest.fixture
def collector():
    """The collector's state before the test, restored after it."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


@pytest.fixture
def at_root(monkeypatch):
    from conftest import TESTS_DIR
    monkeypatch.chdir(TESTS_DIR.parent)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("code, argv", EXITS)
def test_main_leaves_the_collector_as_it_found_it(
        enabled, code, argv, tmp_path, collector, at_root, capsys):
    bad = tmp_path / "bad.olog"
    bad.write_text('olog "bad"\ntype a = "no article"\n', encoding="utf-8")
    (gc.enable if enabled else gc.disable)()
    assert cli.main([str(bad) if a == "BAD" else a for a in argv]) == code
    assert gc.isenabled() is enabled
    parse_error = capsys.readouterr().err.startswith("parse error: ")
    assert parse_error == ("BAD" in argv)


def test_commands_leave_no_cyclic_garbage(tmp_path, collector, at_root,
                                          capsys):
    commands = COMMANDS + [
        ["pullback", f"{F}/marriage.map", "--out", str(tmp_path / "p.olog")],
        ["migrate", f"{F}/merge_is.map", "--dst-data", f"{F}/data/person",
         "--out", str(tmp_path / "m")],
    ]
    gc.enable()
    cli.build_parser()
    found = {}
    for argv in commands:
        gc.collect()
        cli.main(argv)
        found[" ".join(argv)] = gc.collect()
    capsys.readouterr()
    assert found == dict.fromkeys(found, 0)
