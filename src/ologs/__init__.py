"""Ologs: presented categories with linguistic labels, instances, and mappings."""

from .category import (
    CatFunctor,
    DEFAULT_BOUND,
    Equation,
    Generator,
    Path,
    PathCategory,
    compose_functors,
    identity_functor,
    validate_functor,
)
from .errors import OlogError
from .language import (
    AtomicVerb,
    ConcatVerb,
    NounPhrase,
    Sentence,
    UNIT,
    UnitVerb,
    authors,
    intersect_authors,
    read_correspondence,
    read_equivalence,
    read_sentence,
    read_verb,
)
from .olog import (
    AspectLabel,
    LinguisticStructure,
    Olog,
    TypeLabel,
    derived_aspect,
    derived_authors,
    derived_sentence,
    read_fact,
    restrict_to_author,
    validate_olog,
)
from .instance import (
    Instance,
    InstanceTable,
    check_totality,
    evaluate_path,
    load_bundle,
    load_table,
    path_table,
    render_correspondences,
    validate_instance,
)
from .mapping import (
    InstanceMorphism,
    OlogMorphism,
    cartesian_morphism,
    check_co_instantiated,
    check_conformance,
    check_naturality,
    pullback_instance,
    pullback_olog,
    pullback_structure,
    search_conforming,
    validate_linguistic_functor,
)
from .report import Finding, ValidationReport

__version__ = "0.1.0"
