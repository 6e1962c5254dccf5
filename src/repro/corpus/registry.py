"""The corpus-family registry: named, seeded, parameterized graph streams.

A *corpus family* is a lazy generator of ``(name, graph)`` entries — the
unit every sweep consumes.  Families never materialize their corpus:
``CorpusFamily.generate`` returns an iterator that builds one graph at a
time, so a million-entry corpus costs one entry of memory and composes
with the engine's entry point (:func:`repro.engine.run_stream`).

Determinism and the prefix contract
    Every family draws all randomness from one ``random.Random(seed)``
    stream, consumed in entry order.  Entry ``i`` therefore depends only
    on ``(seed, i)`` — never on ``count`` — so the first ``k`` entries of
    ``generate(count=n)`` are *identical* for every ``n >= k``.  This is
    what makes interrupted sweeps resumable: the resumed run re-creates
    the same iterator and skips already-recorded names, and the merged
    result file is byte-identical to an uninterrupted run (see
    :mod:`repro.engine.store`).

Naming
    Entry names are ``<family>-s<seed>-<index>[-<shape>]`` — unique within
    a stream and stable across runs, so ``(name, task)`` keys a result
    record globally (the store's resume key).

Feasibility coverage
    The Yamashita-Kameda criterion (Proposition 2.1) splits port-numbered
    graphs into feasible and infeasible; the registry deliberately covers
    both sides: random trees, caterpillars and random regular graphs are
    (usually) feasible, while tori, hypercubes, circulants, quotient-lifts
    and the vertex-transitive mix are infeasible by construction — the
    workloads that exercise the quotient and stabilization machinery.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

from repro.errors import CorpusError
from repro.graphs.port_graph import PortGraph
from repro.util.rng import make_rng

CorpusIter = Iterator[Tuple[str, PortGraph]]
FamilyFn = Callable[..., CorpusIter]

FAMILIES: Dict[str, "CorpusFamily"] = {}


@dataclass(frozen=True)
class CorpusFamily:
    """One registered family: metadata plus the lazy generator function.

    ``fn(prefix, rng, count, **params)`` must yield ``(name, graph)``
    pairs, drawing randomness only from ``rng`` in entry order (the
    prefix contract above).
    """

    name: str
    description: str
    feasibility: str  # "feasible", "infeasible", or "mixed"
    fn: FamilyFn = field(repr=False)

    @property
    def params(self) -> Dict[str, int]:
        """The family-specific knobs and their defaults (beyond
        ``count`` and ``seed``)."""
        sig = inspect.signature(self.fn)
        return {
            p.name: p.default
            for p in sig.parameters.values()
            if p.name not in ("prefix", "rng", "count")
        }

    def generate(self, count: int, seed: int = 0, **params) -> CorpusIter:
        """Lazily yield ``count`` named graphs for ``seed``; unknown
        ``params`` raise :class:`CorpusError` before the first entry."""
        if count < 0:
            raise CorpusError(f"count must be >= 0, got {count}")
        known = self.params
        for key in params:
            if key not in known:
                raise CorpusError(
                    f"family '{self.name}' has no parameter '{key}'; "
                    f"accepted: {', '.join(sorted(known)) or '(none)'}"
                )
        prefix = f"{self.name}-s{seed}"
        return self.fn(prefix, make_rng(seed), count, **params)


def register_family(
    name: str, description: str, feasibility: str
) -> Callable[[FamilyFn], FamilyFn]:
    """Decorator: register a family generator function under ``name``."""

    def deco(fn: FamilyFn) -> FamilyFn:
        if name in FAMILIES:
            raise ValueError(f"corpus family '{name}' is already registered")
        FAMILIES[name] = CorpusFamily(
            name=name, description=description, feasibility=feasibility, fn=fn
        )
        return fn

    return deco


def get_family(name: str) -> CorpusFamily:
    """Resolve a family name; raise with the list of known names."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise CorpusError(
            f"unknown corpus family '{name}'; known: "
            f"{', '.join(sorted(FAMILIES))}"
        ) from None


def list_families() -> List[CorpusFamily]:
    """All registered families, sorted by name."""
    return [FAMILIES[name] for name in sorted(FAMILIES)]


def parse_family_spec(spec: str) -> Tuple[CorpusFamily, int, int, Dict[str, int]]:
    """Parse ``family[:count[,seed=S,key=val,...]]`` into
    ``(family, count, seed, params)``.

    Examples: ``circulants``, ``random-trees:500``,
    ``lifts:200,seed=7,max_ring=12``.  The default count is 100.
    """
    head, _, argtext = spec.partition(":")
    family = get_family(head)
    count, seed = 100, 0
    params: Dict[str, int] = {}
    if argtext:
        for idx, token in enumerate(argtext.split(",")):
            token = token.strip()
            if not token:
                continue
            try:
                if "=" in token:
                    key, _, value = token.partition("=")
                    key = key.strip()
                    if key == "seed":
                        seed = int(value)
                    elif key == "count":
                        count = int(value)
                    else:
                        params[key] = int(value)
                elif idx == 0:
                    count = int(token)
                else:
                    raise CorpusError(
                        f"corpus spec '{spec}': only the first argument may "
                        f"be positional (count); use key=val for the rest"
                    )
            except ValueError:
                raise CorpusError(
                    f"corpus spec '{spec}': argument '{token}' is not an "
                    f"integer"
                ) from None
    return family, count, seed, params


def iter_corpus(spec: str) -> CorpusIter:
    """Open a family spec (see :func:`parse_family_spec`) as a lazy
    ``(name, graph)`` stream."""
    family, count, seed, params = parse_family_spec(spec)
    return family.generate(count, seed=seed, **params)


def is_family_spec(spec: str) -> bool:
    """Whether ``spec`` names a registered family (the CLI uses this to
    distinguish family specs from single-graph specs)."""
    head, _, _ = spec.partition(":")
    return head in FAMILIES
