"""tools/reach.py: the lines of src/ologs that invocations never run.

`validate amino.olog` builds the olog's category and checks its labels
and authors, but decides no equation: it runs `validate_olog` and leaves
every line of `PathCategory.path_equal`'s search unrun.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = load_reach()


def traced_validate(fixtures):
    def run():
        cli = reach.ab.load_cli(ROOT, "ologs_reach_test")
        assert reach.ab.call(cli, ["validate", str(fixtures / "amino.olog")]) \
            == (0, "", "")
    return reach.traced(run)


def test_validate_runs_validate_olog_and_no_equality_search(fixtures):
    functions = reach.executable_lines()
    unrun = reach.unrun_lines(traced_validate(fixtures), functions)
    search = functions["category.PathCategory.path_equal"][1]
    assert len(search) > 15
    assert unrun["category.PathCategory.path_equal"] == sorted(search)
    ran = functions["olog.validate_olog"][1] - set(
        unrun.get("olog.validate_olog", ()))
    assert len(ran) > len(functions["olog.validate_olog"][1]) // 2
    assert "dsl.parse_olog" not in unrun


def test_functions_are_listed_by_qualified_name():
    functions = reach.executable_lines()
    assert "dsl.olog_from_document.<locals>.build_path" in functions
    assert "language.ConcatVerb.__repr__" in functions
    assert not any("<listcomp>" in name or "<genexpr>" in name
                   for name in functions)
    # A comprehension's lines count toward the function that holds it.
    filename, lines = functions["olog.restrict_to_author"]
    assert filename.endswith("olog.py") and len(lines) > 10


def test_ranges():
    assert reach.ranges([3, 4, 5, 9, 11, 12]) == "3-5, 9, 11-12"
    assert reach.ranges([]) == ""


def test_the_script_needs_invocations():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                          capture_output=True, text=True, encoding="utf-8",
                          timeout=60)
    assert done.returncode == 2
    assert "give --corpus, --workload or both" in done.stderr


def test_the_script_prints_a_total():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"),
         "--workload", "merge-search", "--seed", "11"],
        capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1].startswith("total: ")
    assert any(line.startswith("category.PathCategory.path_equal: ")
               for line in lines)


def test_a_workload_round_is_traced():
    """The workload's calls run under the script's line trace: a round of
    merge-search runs most of `mapping.search_conforming`."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reach.py"),
         "--workload", "merge-search", "--seed", "11"],
        capture_output=True, text=True, encoding="utf-8", timeout=300)
    assert done.returncode == 0, done.stderr
    prefix = "mapping.search_conforming: "
    unrun = [int(line[len(prefix):].split()[0])
             for line in done.stdout.splitlines() if line.startswith(prefix)]
    lines = reach.executable_lines()["mapping.search_conforming"][1]
    assert len(lines) > 30
    assert sum(unrun) < len(lines) // 2
