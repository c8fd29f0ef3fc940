"""Record constructors, and the rewrite index built only when used.

Every frozen record of the package, found as tests/test_records.py
finds them, is built alike by positional, keyword and default-argument
calls; its signature lists its fields with their defaults; a missing or
unknown argument is a TypeError; checks in `__post_init__` still run;
and a subclass is built as itself.

`PathCategory` indexes its equations as rewrite rules in the cached
property `_rules`, built on the first rewrite: `olog validate` and
`olog read --facts` do no rewriting, a loaded category holds no index
until a rewrite runs, and `path_equal` builds it and answers as the
union-find oracle does.
"""

import dataclasses
import inspect
from itertools import combinations

import pytest

from ologs import cli
from ologs.category import Path, PathCategory
from ologs.dsl import load_olog
from ologs.errors import BadNounPhrase, BadVerbPhrase
from ologs.instance import InstanceTable
from ologs.language import AtomicVerb, NounPhrase
from oracle import congruence_closure
from test_records import EXAMPLES


def field_values(value):
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_positional_and_keyword_calls_build_equal_records(name):
    value = EXAMPLES[name]
    cls, values = type(value), field_values(value)
    for made in (cls(*values.values()), cls(**values)):
        assert type(made) is cls
        assert made == value and hash(made) == hash(value)
        assert field_values(made) == values


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_defaults_fill_the_omitted_fields(name):
    value = EXAMPLES[name]
    fields = dataclasses.fields(value)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    made = type(value)(*(getattr(value, n) for n in required))
    for f in fields:
        expected = (getattr(value, f.name) if f.name in required
                    else f.default)
        assert getattr(made, f.name) == expected


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_signature_lists_the_fields_with_their_defaults(name):
    cls = type(EXAMPLES[name])
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.kind, p.default) for p in parameters] == [
        (f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
         inspect.Parameter.empty if f.default is dataclasses.MISSING
         else f.default)
        for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_missing_or_unknown_arguments_raise(name):
    value = EXAMPLES[name]
    cls, values = type(value), field_values(value)
    with pytest.raises(TypeError):
        cls(**values, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*values.values(), "one too many")
    required = [f.name for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING]
    for missing in required:
        with pytest.raises(TypeError, match=missing):
            cls(**{k: v for k, v in values.items() if k != missing})


def test_post_init_checks_still_run():
    with pytest.raises(BadNounPhrase):
        NounPhrase("thing")
    with pytest.raises(BadVerbPhrase):
        AtomicVerb("")
    with pytest.raises(ValueError, match="row width"):
        InstanceTable(("a x", "has an y"), (("t", "u"), ("v",)))


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_a_subclass_is_built_as_itself(name):
    value = EXAMPLES[name]
    cls = type(value)
    sub = type(f"{cls.__name__}2", (cls,), {})
    values = field_values(value)
    for made in (sub(*values.values()), sub(**values)):
        assert type(made) is sub
        assert field_values(made) == values
        assert made != value


def test_a_subclass_runs_the_post_init_check():
    class Atomic2(AtomicVerb):
        pass

    assert type(Atomic2("is")) is Atomic2
    with pytest.raises(BadVerbPhrase):
        Atomic2("")


def grid_text(n: int, skip: tuple[int, int]) -> str:
    """An olog of (n+1) x (n+1) objects and n x n commuting squares,
    all but the cell `skip`."""
    lines = ['olog "grid"']
    lines += [f'type v{i}_{j} = "a point {i} {j}" by {{A}}'
              for i in range(n + 1) for j in range(n + 1)]
    lines += [f'aspect h{i}_{j} : v{i}_{j} -> v{i}_{j + 1} = "east" by {{A}}'
              for i in range(n + 1) for j in range(n)]
    lines += [f'aspect d{i}_{j} : v{i}_{j} -> v{i + 1}_{j} = "south" by {{A}}'
              for i in range(n) for j in range(n + 1)]
    lines += [f"fact c{i}_{j} : [h{i}_{j} ; d{i}_{j + 1}] ~ "
              f"[d{i}_{j} ; h{i + 1}_{j}] by {{A}}"
              for i in range(n) for j in range(n) if (i, j) != skip]
    return "\n".join(lines) + "\n"


def monotone_paths(n: int) -> list[Path]:
    """Every east-and-south path from the top-left to the bottom-right."""
    paths = []
    for souths in combinations(range(2 * n), n):
        i = j = 0
        arrows = []
        for step in range(2 * n):
            if step in souths:
                arrows.append(f"d{i}_{j}")
                i += 1
            else:
                arrows.append(f"h{i}_{j}")
                j += 1
        paths.append(Path("v0_0", tuple(arrows)))
    return paths


def test_validate_and_read_build_no_rewrite_index(tmp_path, monkeypatch,
                                                  capsys):
    path = tmp_path / "grid.olog"
    path.write_text(grid_text(3, skip=(1, 1)), encoding="utf-8")
    rewrote = []
    rewrites = PathCategory._rewrites
    monkeypatch.setattr(
        PathCategory, "_rewrites",
        lambda self, *args: rewrote.append(args) or rewrites(self, *args))
    assert cli.main(["validate", str(path)]) == 0
    assert cli.main(["read", str(path), "--facts"]) == 0
    assert "y1 and y2 are the same" in capsys.readouterr().out
    assert rewrote == []
    category = load_olog(path).category
    assert "_rules" not in vars(category)
    p = monotone_paths(3)[0]
    assert category.path_equal(p, p)  # equal as written: no rewrite
    assert rewrote == []
    assert "_rules" not in vars(category)


def test_path_equal_builds_the_index_and_answers_as_the_oracle(tmp_path):
    path = tmp_path / "grid.olog"
    path.write_text(grid_text(2, skip=(0, 1)), encoding="utf-8")
    category = load_olog(path).category
    assert "_rules" not in vars(category)
    paths = monotone_paths(2)
    classes = congruence_closure(category, paths)
    assert classes is not None
    answers = {(p, q): category.path_equal(p, q)
               for p in paths for q in paths}
    assert "_rules" in vars(category)
    assert answers == {(p, q): classes[p] == classes[q]
                       for p in paths for q in paths}
    assert not all(answers.values()) and sum(answers.values()) > len(paths)
