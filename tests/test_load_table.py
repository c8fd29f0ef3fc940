"""A bound table has one shape: `load_table` returns `_bind`'s triple.

`load_bundle` stores the (kind, type or aspect, tokens or token
function) triple that `_load_plain` and `_bind` return, and
`load_table(table, o)` must give the same triple, or raise the same
error, for every table and olog: each fixture table against each
fixture olog, and each table of every workload's tiny inputs from
`perfbench/workloads.py` against each olog written beside it.  The
workloads module is imported read-only: no bytecode is written into
`perfbench/`.
"""

import pytest

from conftest import FIXTURES
from ologs.dsl import load_olog
from ologs.instance import _bind, _header_index, load_table, read_table_file
from test_complexity import SEED, load_workloads


def outcome(bind, *args):
    try:
        return bind(*args)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def check_every_pair(directory):
    """Compare the two on every table and olog under `directory`; the
    number of tables that bound without error."""
    ologs = [load_olog(path) for path in sorted(directory.rglob("*.olog"))]
    tables = [read_table_file(path)
              for path in sorted(directory.rglob("*.csv"))]
    assert ologs and tables
    bound = 0
    for o in ologs:
        index = _header_index(o)
        for table in tables:
            found = outcome(load_table, table, o)
            assert found == outcome(_bind, table, index)
            bound += isinstance(found[0], str)
    return bound


def test_fixture_tables():
    assert check_every_pair(FIXTURES) > 0


@pytest.mark.parametrize("name", ["instance-data", "merge-search"])
def test_workload_tables(tmp_path, name):
    workload = load_workloads()[name]
    workload.generate(tmp_path, SEED, workload.tiny)
    assert check_every_pair(tmp_path) > 0


def test_the_other_workloads_write_no_tables(tmp_path):
    for name, workload in load_workloads().items():
        if name not in ("instance-data", "merge-search"):
            workload.generate(tmp_path / name, SEED, workload.tiny)
            assert not list((tmp_path / name).rglob("*.csv"))
