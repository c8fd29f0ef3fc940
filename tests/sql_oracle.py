"""An independent oracle for an instance's fact violations, by SQL.

The paper reads an olog's instance as a database: a type is a
one-column table of tokens and an aspect a two-column table from source
tokens to target tokens.  This oracle loads a bundle's CSV files with
the `csv` module into `sqlite3` tables, takes the schema (types, aspects
and facts) from an olog object, and finds a fact's violating tokens as
the rows of one join where the fact's two paths end apart.  Nothing in
`ologs` imports it, and it imports nothing from the `ologs` loaders.
"""

import csv
import sqlite3
from pathlib import Path


def _table(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def load_database(directory, olog) -> sqlite3.Connection:
    """An in-memory database with one table per type (`tok`) and one per
    aspect (`x`, `y`), filled from `<id>.csv` in directory."""
    db = sqlite3.connect(":memory:")
    kinds = [(obj, ("tok",)) for obj in olog.category.objects]
    kinds += [(g.name, ("x", "y")) for g in olog.category.generators]
    for name, columns in kinds:
        db.execute(f"CREATE TABLE {_table(name)} ({', '.join(columns)})")
        with open(Path(directory) / f"{name}.csv", newline="",
                  encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        marks = ", ".join("?" * len(columns))
        db.executemany(f"INSERT INTO {_table(name)} VALUES ({marks})", rows)
    return db


def _walk(arrows, alias: str, joins: list) -> str:
    """The column that holds the end of a path's walk from `start.tok`;
    appends one join per arrow."""
    end = "start.tok"
    for n, gen in enumerate(arrows):
        step = f"{alias}{n}"
        joins.append(f"JOIN {_table(gen)} AS {step} ON {step}.x = {end}")
        end = f"{step}.y"
    return end


def fact_violations(db: sqlite3.Connection, olog) -> set[tuple[str, str]]:
    """(fact, token) for each token at a fact's source where its two
    paths end at different tokens."""
    found = set()
    for eq in olog.category.equations:
        joins: list[str] = []
        left = _walk(eq.left.arrows, "l", joins)
        right = _walk(eq.right.arrows, "r", joins)
        query = (f"SELECT start.tok FROM {_table(eq.left.source)} AS start "
                 f"{' '.join(joins)} WHERE {left} IS NOT {right}")
        found.update((eq.name, token) for (token,) in db.execute(query))
    return found
