"""Commands that read a composite verb phrase along a very long path.

A chain olog t0 -a1-> t1 -> ... -> tN with a shortcut s : t0 -> tN and
the fact [a1 ; ... ; aN] ~ [s], plus a mapping that sends its one
aspect onto the whole chain.  The reading of the composite verb is
rebuilt here with plain string joins and compared with what `read
--facts`, `pullback` and `migrate` print and write.  On random verb
trees, `read_verb` must agree with the recursive reading it replaced.
"""

import csv
import io
import random

import pytest

from ologs.cli import main
from ologs.language import UNIT, AtomicVerb, ConcatVerb, NounPhrase, read_verb

N = 1200


def thing(i):
    return f"a thing number {i}"


# "leads to a thing number 1, which leads to ... which leads to"
CHAIN_VERB = "leads to" + "".join(
    f" {thing(i)}, which leads to" for i in range(1, N))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    base = tmp_path_factory.mktemp("chain")
    arrows = " ; ".join(f"a{i}" for i in range(1, N + 1))
    lines = ['olog "chain"']
    lines += [f'type t{i} = "{thing(i)}" by {{A}}' for i in range(N + 1)]
    lines += [f'aspect a{i} : t{i - 1} -> t{i} = "leads to" by {{A}}'
              for i in range(1, N + 1)]
    lines.append(f'aspect s : t0 -> t{N} = "skips to" by {{A}}')
    lines.append(f"fact long : [{arrows}] ~ [s] by {{A}}")
    (base / "chain.olog").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (base / "one.olog").write_text(
        'olog "one"\n'
        'type x = "a start" by {A}\n'
        'type y = "an end" by {A}\n'
        'aspect f : x -> y = "reaches" by {A}\n', encoding="utf-8")
    (base / "m.map").write_text(
        'mapping "m"\n'
        'source "one.olog"\n'
        'target "chain.olog"\n'
        f"object x -> t0\n"
        f"object y -> t{N}\n"
        f"aspect f -> [{arrows}]\n"
        'component x = "is" by {A}\n'
        'component y = "is" by {A}\n'
        "square f by {A}\n", encoding="utf-8")
    data = base / "data"
    data.mkdir()

    def table(name, header, row):
        with open(data / f"{name}.csv", "w", newline="", encoding="utf-8") as f:
            csv.writer(f, lineterminator="\n").writerows([header, row])

    for i in range(N + 1):
        table(f"t{i}", [thing(i)], ["x"])
    for i in range(1, N + 1):
        table(f"a{i}", [thing(i - 1), f"leads to {thing(i)}, namely"], ["x", "x"])
    table("s", [thing(0), f"skips to {thing(N)}, namely"], ["x", "x"])
    return base


def recursive_reading(v):
    """read_verb as a recursion over the verb's tree: the reference."""
    if v is UNIT:
        return "is of course"
    if isinstance(v, AtomicVerb):
        return v.text
    return f"{recursive_reading(v.left)} {v.via}, which {recursive_reading(v.right)}"


def random_verb(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return UNIT if rng.random() < 0.2 else AtomicVerb(f"v{rng.randrange(9)}")
    return ConcatVerb(random_verb(rng, depth - 1),
                      NounPhrase(f"a n{rng.randrange(9)}"),
                      random_verb(rng, depth - 1))


def test_read_verb_reads_any_tree_as_the_recursion_does():
    rng = random.Random(1201)
    for _ in range(500):
        v = random_verb(rng, 6)
        assert read_verb(v) == recursive_reading(v)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_read_facts_reads_the_long_composite(chain, capsys):
    code, out, err = run(capsys, "read", chain / "chain.olog", "--facts")
    assert (code, err) == (0, "")
    expected = [f"{thing(i - 1)} leads to {thing(i)}" for i in range(1, N + 1)]
    expected.append(f"{thing(0)} skips to {thing(N)}")
    expected.append(f"{thing(0)} {CHAIN_VERB} {thing(N)}")
    expected.append(f"{thing(0)} skips to {thing(N)}")
    expected.append(
        f"For any thing number 0 x, we know that x {CHAIN_VERB} {thing(N)}, "
        f"that we call y1, and we know that x skips to {thing(N)}, that we "
        f"call y2; and the fact is, y1 and y2 are the same for any x.")
    assert out == "".join(line + "\n" for line in expected)


def test_pullback_writes_the_long_composite(chain, tmp_path, capsys):
    out_file = tmp_path / "pulled.olog"
    code, out, err = run(capsys, "pullback", chain / "m.map", "--out", out_file)
    assert (code, out, err) == (0, "", "")
    assert out_file.read_text(encoding="utf-8") == (
        'olog "m.pullback"\n'
        f'type x = "{thing(0)}" by {{A}}\n'
        f'type y = "{thing(N)}" by {{A}}\n'
        f'aspect f : x -> y = "{CHAIN_VERB}" by {{A}}\n')


def test_migrate_writes_the_long_composite_header(chain, tmp_path, capsys):
    out_dir = tmp_path / "migrated"
    code, out, err = run(capsys, "migrate", chain / "m.map",
                         "--dst-data", chain / "data", "--out", out_dir)
    assert (code, out, err) == (0, "", "")
    assert sorted(p.name for p in out_dir.iterdir()) == ["f.csv", "x.csv", "y.csv"]
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(
        [thing(0), f"{CHAIN_VERB} {thing(N)}, namely"])
    assert (out_dir / "f.csv").read_text(encoding="utf-8") == (
        header.getvalue() + "x,x\n")
    assert (out_dir / "x.csv").read_text(encoding="utf-8") == f"{thing(0)}\nx\n"
    assert (out_dir / "y.csv").read_text(encoding="utf-8") == f"{thing(N)}\nx\n"
