"""An independent oracle for an instance's data checks, by SQL.

The paper reads an olog's instance as a database: a type is a
one-column table of tokens and an aspect a two-column table from source
tokens to target tokens.  This oracle loads a bundle's CSV files with
the `csv` module into `sqlite3` tables, takes the schema (types, aspects
and facts) from an olog object, and finds a fact's violating tokens as
the rows of one join where the fact's two paths end apart.  Along a map,
whose functor it takes from a functor object, it loads both bundles and
the component correspondence tables side by side, finds a naturality
square's failing tokens as the rows where F(g)(p(x)) and p(g(x)) differ,
and computes the tables that `migrate` writes, one join chain per
generator image.  Nothing in `ologs` imports it, and it imports nothing
from the `ologs` loaders.
"""

import csv
import sqlite3
from pathlib import Path


def _table(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _fill(db: sqlite3.Connection, table: str, columns, path) -> None:
    """Create `table` with `columns`, and fill it from the rows of the CSV
    file at path after its header."""
    db.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    marks = ", ".join("?" * len(columns))
    db.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)


def _fill_bundle(db: sqlite3.Connection, schema: str, directory, olog) -> None:
    """One table per type (`tok`) and one per aspect (`x`, `y`) in
    `schema`, filled from `<id>.csv` in directory."""
    kinds = [(obj, ("tok",)) for obj in olog.category.objects]
    kinds += [(g.name, ("x", "y")) for g in olog.category.generators]
    for name, columns in kinds:
        _fill(db, f"{schema}.{_table(name)}", columns,
              Path(directory) / f"{name}.csv")


def load_database(directory, olog) -> sqlite3.Connection:
    """An in-memory database with one table per type (`tok`) and one per
    aspect (`x`, `y`), filled from `<id>.csv` in directory."""
    db = sqlite3.connect(":memory:")
    _fill_bundle(db, "main", directory, olog)
    return db


def load_mapping_database(src_dir, src_olog, dst_dir, dst_olog,
                          tables) -> sqlite3.Connection:
    """An in-memory database with the source bundle in schema `src`, the
    target bundle in `dst`, and in `comp` one table (`x`, `y`) per
    source object, filled from the correspondence table at tables[obj]."""
    db = sqlite3.connect(":memory:")
    for schema in ("src", "dst", "comp"):
        db.execute(f"ATTACH DATABASE ':memory:' AS {schema}")
    _fill_bundle(db, "src", src_dir, src_olog)
    _fill_bundle(db, "dst", dst_dir, dst_olog)
    for obj, path in tables.items():
        _fill(db, f"comp.{_table(obj)}", ("x", "y"), path)
    return db


def _walk(arrows, end: str, alias: str, joins: list,
          schema: str = "main") -> str:
    """The column that holds the end of a path's walk from the column
    `end`; appends one join per arrow, on the aspect tables of `schema`."""
    for n, gen in enumerate(arrows):
        step = f"{alias}{n}"
        joins.append(f"JOIN {schema}.{_table(gen)} AS {step} "
                     f"ON {step}.x = {end}")
        end = f"{step}.y"
    return end


def fact_violations(db: sqlite3.Connection, olog) -> set[tuple[str, str]]:
    """(fact, token) for each token at a fact's source where its two
    paths end at different tokens."""
    found = set()
    for eq in olog.category.equations:
        joins: list[str] = []
        left = _walk(eq.left.arrows, "start.tok", "l", joins)
        right = _walk(eq.right.arrows, "start.tok", "r", joins)
        query = (f"SELECT start.tok FROM {_table(eq.left.source)} AS start "
                 f"{' '.join(joins)} WHERE {left} IS NOT {right}")
        found.update((eq.name, token) for (token,) in db.execute(query))
    return found


def naturality_violations(db: sqlite3.Connection,
                          functor) -> set[tuple[str, str]]:
    """(generator, token) for each token x at a source generator g's
    source where F(g)(p(x)) and p(g(x)) differ, p being the components."""
    found = set()
    for g in functor.source.generators:
        joins = [f"JOIN comp.{_table(g.source)} AS down ON down.x = start.x",
                 f"JOIN comp.{_table(g.target)} AS over ON over.x = start.y"]
        end = _walk(functor.generator_map[g.name].arrows, "down.y", "d",
                    joins, "dst")
        query = (f"SELECT start.x FROM src.{_table(g.name)} AS start "
                 f"{' '.join(joins)} WHERE {end} IS NOT over.y")
        found.update((g.name, token) for (token,) in db.execute(query))
    return found


def migrated_rows(db: sqlite3.Connection, functor) -> dict[str, set[tuple]]:
    """The rows of each table of the target bundle pulled back along the
    functor, by table id: a source type's tokens are those of its image,
    and a source generator's rows pair each token at its image's source
    with the end of its image's walk."""
    tables = {}
    for obj in functor.source.objects:
        image = _table(functor.object_map[obj])
        tables[obj] = set(db.execute(f"SELECT tok FROM dst.{image}"))
    for g in functor.source.generators:
        joins: list[str] = []
        end = _walk(functor.generator_map[g.name].arrows, "start.tok", "d",
                    joins, "dst")
        image = _table(functor.object_map[g.source])
        tables[g.name] = set(db.execute(
            f"SELECT start.tok, {end} FROM dst.{image} AS start "
            f"{' '.join(joins)}"))
    return tables
