"""Presented categories: paths, rewriting, functors."""

import random

import pytest

import randgen
from oracle import _one_step

from ologs.category import (
    CatFunctor,
    Equation,
    Generator,
    Path,
    PathCategory,
    compose_functors,
    identity_functor,
    validate_functor,
)
from ologs.errors import (
    DuplicateId,
    InvalidPath,
    NonComposable,
    ShapeMismatch,
    UnknownEquation,
    UnknownGenerator,
    UnknownObject,
)


def chain_category(equations=()):
    """x --u--> y --v--> z, plus a direct w: x -> z."""
    return PathCategory(
        objects=("x", "y", "z"),
        generators=(
            Generator("u", "x", "y"),
            Generator("v", "y", "z"),
            Generator("w", "x", "z"),
        ),
        equations=tuple(equations),
    )


@pytest.fixture
def chain():
    return chain_category()


@pytest.fixture
def chain_eq():
    return chain_category(
        [Equation("e", Path("x", ("u", "v")), Path("x", ("w",)))]
    )


class TestConstruction:
    def test_duplicate_objects_rejected(self):
        with pytest.raises(UnknownObject):
            PathCategory(("x", "x"), ())

    def test_duplicate_generators_rejected(self):
        with pytest.raises(UnknownGenerator):
            PathCategory(("x",), (Generator("u", "x", "x"),
                                  Generator("u", "x", "x")))

    def test_generator_endpoint_must_exist(self):
        with pytest.raises(UnknownObject):
            PathCategory(("x",), (Generator("u", "x", "nowhere"),))

    def test_duplicate_equation_names_rejected(self):
        eq = Equation("e", Path("x"), Path("x"))
        eq2 = Equation("e", Path("x"), Path("x"))
        with pytest.raises(DuplicateId):
            PathCategory(("x",), (), (eq, eq2))

    def test_equation_sides_must_be_parallel(self, chain):
        with pytest.raises(ShapeMismatch):
            PathCategory(
                chain.objects,
                chain.generators,
                (Equation("e", Path("x", ("u",)), Path("x", ("w",))),),
            )


class TestPaths:
    def test_check_path_accepts_composable_run(self, chain):
        chain.check_path(Path("x", ("u", "v")))

    def test_check_path_rejects_unknown_generator(self, chain):
        with pytest.raises(InvalidPath):
            chain.check_path(Path("x", ("nope",)))

    def test_check_path_rejects_non_composable_run(self, chain):
        with pytest.raises(InvalidPath):
            chain.check_path(Path("x", ("v",)))

    def test_check_path_rejects_unknown_source(self, chain):
        with pytest.raises(InvalidPath):
            chain.check_path(Path("q"))

    def test_target_and_objects_along(self, chain):
        p = Path("x", ("u", "v"))
        assert chain.target_of(p) == "z"
        assert chain.objects_along(p) == ["x", "y", "z"]

    def test_compose_and_identity(self, chain):
        p = chain.compose(Path("x", ("u",)), Path("y", ("v",)))
        assert p == Path("x", ("u", "v"))
        assert chain.compose(chain.identity("x"), p) == p
        assert chain.compose(p, chain.identity("z")) == p
        assert chain.identity("x").is_identity

    def test_compose_rejects_mismatched_endpoints(self, chain):
        with pytest.raises(NonComposable):
            chain.compose(Path("x", ("u",)), Path("x", ("w",)))

    def test_identity_of_unknown_object(self, chain):
        with pytest.raises(UnknownObject):
            chain.identity("q")


class TestPathEqual:
    def test_syntactic_equality(self, chain):
        p = Path("x", ("u", "v"))
        assert chain.path_equal(p, p)

    def test_declared_equation(self, chain_eq):
        assert chain_eq.path_equal(Path("x", ("u", "v")), Path("x", ("w",)))
        assert chain_eq.path_equal(Path("x", ("w",)), Path("x", ("u", "v")))

    def test_unrelated_paths_not_proved(self, chain):
        assert not chain.path_equal(Path("x", ("u", "v")), Path("x", ("w",)))

    def test_shape_mismatch_raises(self, chain):
        with pytest.raises(ShapeMismatch):
            chain.path_equal(Path("x", ("u",)), Path("x", ("w",)))

    def test_transitive_chain_within_bound_two(self):
        # a = b and b = c declared; a = c needs two rewrites.
        cat = PathCategory(
            ("x", "y"),
            (Generator("a", "x", "y"), Generator("b", "x", "y"),
             Generator("c", "x", "y")),
            (Equation("e1", Path("x", ("a",)), Path("x", ("b",))),
             Equation("e2", Path("x", ("b",)), Path("x", ("c",)))),
        )
        assert cat.path_equal(Path("x", ("a",)), Path("x", ("c",)), bound=2)
        assert not cat.path_equal(Path("x", ("a",)), Path("x", ("c",)), bound=1)

    def test_rewrite_inside_longer_path(self, chain_eq):
        cat = PathCategory(
            chain_eq.objects + ("t",),
            chain_eq.generators + (Generator("s", "z", "t"),),
            chain_eq.equations,
        )
        assert cat.path_equal(Path("x", ("u", "v", "s")), Path("x", ("w", "s")))

    def test_identity_side_equation(self):
        # A loop declared equal to the identity.
        cat = PathCategory(
            ("x",),
            (Generator("loop", "x", "x"),),
            (Equation("e", Path("x", ("loop",)), Path("x")),),
        )
        assert cat.path_equal(Path("x", ("loop", "loop")), Path("x"))

    def test_bound_zero_is_syntactic(self, chain_eq):
        assert not chain_eq.path_equal(
            Path("x", ("u", "v")), Path("x", ("w",)), bound=0
        )


def grid_category(n, missing=None):
    """An n x n grid of objects with right arrows r_i_j: (i, j) -> (i, j+1)
    and down arrows d_i_j: (i, j) -> (i+1, j), and one commuting fact per
    cell except the cell `missing`."""
    objects = tuple(f"o{i}_{j}" for i in range(n) for j in range(n))
    gens = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                gens.append(Generator(f"r{i}_{j}", f"o{i}_{j}", f"o{i}_{j + 1}"))
            if i + 1 < n:
                gens.append(Generator(f"d{i}_{j}", f"o{i}_{j}", f"o{i + 1}_{j}"))
    facts = tuple(
        Equation(f"c{i}_{j}",
                 Path(f"o{i}_{j}", (f"r{i}_{j}", f"d{i}_{j + 1}")),
                 Path(f"o{i}_{j}", (f"d{i}_{j}", f"r{i + 1}_{j}")))
        for i in range(n - 1) for j in range(n - 1) if (i, j) != missing
    )
    return PathCategory(objects, tuple(gens), facts)


def grid_boundaries(n):
    """Right along the top then down the right side; down the left side
    then right along the bottom."""
    last = n - 1
    top_right = (tuple(f"r0_{j}" for j in range(last))
                 + tuple(f"d{i}_{last}" for i in range(last)))
    left_bottom = (tuple(f"d{i}_0" for i in range(last))
                   + tuple(f"r{last}_{j}" for j in range(last)))
    return Path("o0_0", top_right), Path("o0_0", left_bottom)


class TestRewriteStep:
    def test_one_step_matches_oracle(self):
        rng = random.Random(4242)
        identity_sided = compared = 0
        for _ in range(300):
            cat = randgen.random_category(rng, max_equations=4)
            identity_sided += any(side.is_identity for eq in cat.equations
                                  for side in eq.sides())
            for p in randgen.enumerate_paths(cat, 3):
                got = {Path(p.source, arrows)
                       for arrows in cat._rewrites(p.source, p.arrows)}
                assert got == set(_one_step(cat, p)), (cat, p)
                compared += 1
        assert identity_sided > 0
        assert compared > 1000

    def test_identity_rules_apply_at_every_position(self):
        cat = PathCategory(
            ("x",),
            (Generator("loop", "x", "x"),),
            (Equation("e", Path("x"), Path("x", ("loop",))),),
        )
        # Inserting `loop` before, between or after gives the same run;
        # removing either `loop` gives the other.
        assert sorted(cat._rewrites("x", ("loop", "loop"))) == [
            ("loop",), ("loop",), ("loop", "loop", "loop"),
            ("loop", "loop", "loop"), ("loop", "loop", "loop")]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_commuting_grid_boundaries_equal(self, n):
        p, q = grid_boundaries(n)
        assert grid_category(n).path_equal(p, q, bound=(n - 1) ** 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_grid_missing_a_fact_exhausts_the_frontier(self, n):
        # Every rewrite flips one cell and no fact flips the missing one,
        # so the reachable paths are finite and never include q.
        p, q = grid_boundaries(n)
        cat = grid_category(n, missing=(n // 2 - 1, n // 2 - 1))
        assert not cat.path_equal(p, q, bound=4 * (n - 1) ** 2)


class TestEquationLookup:
    def test_equation_by_name(self, chain_eq):
        assert chain_eq.equation("e") is chain_eq.equations[0]

    def test_unknown_equation(self, chain_eq):
        with pytest.raises(UnknownEquation):
            chain_eq.equation("nope")


class TestFunctors:
    def test_identity_functor_validates(self, chain_eq):
        assert validate_functor(identity_functor(chain_eq)).ok

    def test_apply_splices_generator_images(self, chain):
        single = PathCategory(("s", "t"), (Generator("g", "s", "t"),))
        f = CatFunctor(single, chain, {"s": "x", "t": "z"},
                       {"g": Path("x", ("u", "v"))})
        assert f.apply(Path("s", ("g",))) == Path("x", ("u", "v"))
        assert f.apply(Path("s")) == Path("x")
        assert validate_functor(f).ok

    def test_apply_unknown_generator(self, chain):
        f = identity_functor(chain)
        with pytest.raises(UnknownGenerator):
            f.apply(Path("x", ("nope",)))

    def test_compose_functors(self, chain):
        single = PathCategory(("s", "t"), (Generator("g", "s", "t"),))
        f = CatFunctor(single, chain, {"s": "x", "t": "z"},
                       {"g": Path("x", ("u", "v"))})
        h = compose_functors(f, identity_functor(chain))
        assert h.object_map == f.object_map
        assert h.generator_map == f.generator_map

    def test_missing_images_reported(self, chain):
        f = CatFunctor(chain, chain, {}, {})
        report = validate_functor(f)
        codes = {finding.code for finding in report.findings}
        assert "missing-object-image" in codes
        assert "missing-generator-image" in codes

    def test_endpoint_violation_reported(self, chain):
        f = CatFunctor(
            chain, chain,
            {"x": "x", "y": "y", "z": "z"},
            {"u": Path("x", ("w",)),          # lands at z, expected y
             "v": Path("y", ("v",)),
             "w": Path("x", ("w",))},
        )
        report = validate_functor(f)
        assert [finding.code for finding in report.findings] == ["endpoint-violation"]

    def test_equation_preservation_checked(self, chain_eq, chain):
        # Collapse the equation's witnesses into a target with no equations.
        f = CatFunctor(
            chain_eq, chain,
            {"x": "x", "y": "y", "z": "z"},
            {"u": Path("x", ("u",)), "v": Path("y", ("v",)),
             "w": Path("x", ("w",))},
        )
        report = validate_functor(f)
        assert [finding.code for finding in report.findings] == [
            "equation-not-preserved"
        ]

    def test_equation_preserved_when_target_has_it(self, chain_eq):
        assert validate_functor(identity_functor(chain_eq)).ok


class TestOneValidatingWalk:
    """target_of and objects_along refuse what check_path refuses."""

    def test_target_of_rejects_non_composable_run(self, chain):
        with pytest.raises(InvalidPath):
            chain.target_of(Path("x", ("v",)))

    def test_objects_along_rejects_non_composable_run(self, chain):
        with pytest.raises(InvalidPath):
            chain.objects_along(Path("x", ("v", "v")))

    @pytest.mark.parametrize("path", [Path("q"), Path("x", ("nope",))])
    def test_unknown_source_or_generator(self, chain, path):
        with pytest.raises(InvalidPath):
            chain.target_of(path)
        with pytest.raises(InvalidPath):
            chain.objects_along(path)

    def test_identity_visits_its_object(self, chain):
        assert chain.objects_along(Path("y")) == ["y"]
        assert chain.target_of(Path("y")) == "y"


def test_equality_reads_only_the_presentation():
    eq = Equation("e", Path("x", ("u", "v")), Path("x", ("w",)))
    assert chain_category() == chain_category()
    assert chain_category([eq]) == chain_category([eq])
    assert chain_category() != chain_category([eq])
    assert chain_category() != "chain"
