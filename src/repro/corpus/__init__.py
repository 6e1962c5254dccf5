"""Named, seeded, parameterized corpus families.

The registry (:mod:`repro.corpus.registry`) maps family names to lazy
``(name, graph)`` generators; the built-in families
(:mod:`repro.corpus.families`) cover both sides of the Yamashita-Kameda
feasibility criterion, from random trees to deliberately infeasible
vertex-transitive topologies.  Consumers: the engine's entry point
(:func:`repro.engine.run_stream`), ``repro corpus list|emit`` and
``repro sweep --corpus <family>``.
"""

from repro.corpus.registry import (
    FAMILIES,
    CorpusFamily,
    CorpusIter,
    get_family,
    is_family_spec,
    iter_corpus,
    list_families,
    parse_family_spec,
    register_family,
)
import repro.corpus.families  # noqa: F401  (registers the built-ins)

__all__ = [
    "FAMILIES",
    "CorpusFamily",
    "CorpusIter",
    "get_family",
    "is_family_spec",
    "iter_corpus",
    "list_families",
    "parse_family_spec",
    "register_family",
]
