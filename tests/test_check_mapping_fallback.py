"""`olog check-mapping` into a target whose completion gives up.

The target's one fact `b ; b = b ; a` completes to an infinite family of
rules, so the image of the source fact `s = t`, `b;b;b = b;a;a`, is
decided by the bounded rewrite search.  It is two rewrites long: at
bound 0 and 1 the map is refused as not proved, and at bound 2 it passes.
The ologs and the map are written here, not under tests/fixtures, whose
files the corpus of `tools/ab.py` counts.
"""

import pytest

from ologs import cli
from ologs.category import Path
from ologs.dsl import load_olog

LOOPS = """\
olog "loops"
type x = "a state" by {A}
aspect a : x -> x = "precedes" by {A}
aspect b : x -> x = "follows" by {A}
fact e0 : [b ; b] ~ [b ; a] by {A}
"""
STEP = """\
olog "step"
type y = "a state" by {A}
aspect s : y -> y = "precedes" by {A}
aspect t : y -> y = "follows" by {A}
fact st : [s] ~ [t] by {A}
"""
MAP = """\
mapping "step"
source "step.olog"
target "loops.olog"
object y -> x
aspect s -> [b ; b ; b]
aspect t -> [b ; a ; a]
component y = "is" by {A}
square s by {A}
square t by {A}
"""


@pytest.fixture
def step_map(tmp_path):
    for name, text in (("loops.olog", LOOPS), ("step.olog", STEP),
                       ("step.map", MAP)):
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path / "step.map"


def check(capsys, *argv):
    code = cli.main(["check-mapping", *map(str, argv)])
    out, err = capsys.readouterr()
    return code, out, err


def test_the_target_gives_up_completion(step_map):
    category = load_olog(step_map.parent / "loops.olog").category
    assert category.rewriting() is None
    assert not category.path_equal(Path("x", ("b", "b", "b")),
                                   Path("x", ("b", "a", "a")), 1)


@pytest.mark.parametrize("bound", [0, 1])
def test_below_the_proof_length_the_image_is_not_proved(step_map, capsys,
                                                        bound):
    assert check(capsys, step_map, "--bound", bound) == (
        1, "", "equation-not-preserved: image of equation 'st' "
               f"not proved equal within bound {bound}\n")


def test_at_the_proof_length_the_map_passes(step_map, capsys):
    assert check(capsys, step_map, "--bound", 2) == (0, "", "")


def test_the_json_report_names_the_bound(step_map, capsys):
    assert check(capsys, step_map, "--bound", 1, "--json") == (
        1, '{"ok": false, "findings": [{"code": "equation-not-preserved", '
           '"message": "image of equation \'st\' not proved equal within '
           'bound 1"}]}\n', "")
