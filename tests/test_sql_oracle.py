"""`check-instance --json` reports exactly the fact violations that SQL finds.

Over randgen ologs that have facts and pass `validate_olog`, random
instances with one planted wrong value each are written by
`write_bundle`.  The (fact, token) pairs of the command's
`fact-violation` findings must equal those of `sql_oracle`, which joins
the raw CSV files in `sqlite3` and takes the schema from the olog
object.  Seeds 9000-9817 give the 500 instances: 1,213 facts, 481 of
them holding, and 1,551 violations.
"""

import ast
import contextlib
import io
import json
import random
import re

from ologs.cli import main
from ologs.dsl import document_from_olog, serialize_olog
from ologs.instance import write_bundle
from ologs.olog import validate_olog
from randgen import random_instance, random_olog
from sql_oracle import fact_violations, load_database

FIRST_SEED = 9000
INSTANCES = 500
VIOLATION = re.compile(r"equation ('.*') fails on token ('.*'): '.*' != '.*'")


def plant_violation(rng, inst):
    """Send one token of one aspect to another token of its target."""
    gens = [g for g in inst.olog.category.generators
            if len(inst.token_set(g.target)) > 1]
    if gens:
        g = rng.choice(gens)
        x = rng.choice(inst.token_set(g.source))
        others = [y for y in inst.token_set(g.target)
                  if y != inst.functions[g.name][x]]
        inst.functions[g.name][x] = rng.choice(others)


def reported_violations(olog_path, bundle):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check-instance", str(olog_path), str(bundle), "--json"])
    pairs = set()
    for finding in json.loads(out.getvalue())["findings"]:
        assert finding["code"] == "fact-violation", finding
        fact, token = VIOLATION.fullmatch(finding["message"]).groups()
        pairs.add((ast.literal_eval(fact), ast.literal_eval(token)))
    assert code == (1 if pairs else 0)
    return pairs


def test_fact_violations_match_the_sql_oracle(tmp_path):
    checked = violations = 0
    seed = FIRST_SEED
    while checked < INSTANCES:
        rng = random.Random(seed)
        seed += 1
        o = random_olog(rng, max_equations=4)
        if not o.category.equations or not validate_olog(o).ok:
            continue
        inst = random_instance(rng, o)
        plant_violation(rng, inst)
        case = tmp_path / str(seed)
        write_bundle(case / "data", inst)
        olog_path = case / "random.olog"
        olog_path.write_text(serialize_olog(document_from_olog(o)),
                             encoding="utf-8")
        with contextlib.closing(load_database(case / "data", o)) as db:
            expected = fact_violations(db, o)
        assert reported_violations(olog_path, case / "data") == expected, seed
        checked += 1
        violations += len(expected)
    assert violations > INSTANCES
