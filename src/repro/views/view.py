"""Hash-consed augmented truncated views.

A :class:`View` of depth 0 is ``(degree, ())`` — just the degree, exactly
the paper's B^0 ("leaves labeled by their degrees" collapses to the degree
of the node itself at depth 0).  A view of depth l+1 is
``(degree, ((q_0, child_0), ..., (q_{d-1}, child_{d-1})))`` where the tuple
is indexed by the local port, ``q_i`` is the remote port of that edge, and
``child_i`` is the neighbor's view of depth l.  This is precisely the
inductive definition of V^{l+1} in Section 1 plus the leaf-degree
augmentation: a straightforward induction (unit-tested against the explicit
tree expansion in :func:`explicit_view_tree`) shows that two nodes have
equal B^l iff their depth-l View objects are identical.

Interning is global (a strong table; call :func:`clear_view_caches` to
release memory between experiment batches).  Global interning is a feature:
the lower-bound proofs compare views *across different graphs* (fooling
pairs), which here is again pointer equality.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.graphs.port_graph import PortGraph

_INTERN: Dict[tuple, "View"] = {}
_TRUNCATE_CACHE: Dict[Tuple[int, int], "View"] = {}
#: depth -> every interned view of that depth, in interning order.  The
#: registry feeds the dense per-depth rank tables of
#: :mod:`repro.views.order`: ranking level l needs all views of level
#: l - 1, and a child is always interned before its parent, so walking
#: depths upward over this registry is complete by construction.
_BY_DEPTH: Dict[int, List["View"]] = {}


class View:
    """An interned augmented truncated view.  Do not construct directly;
    use :meth:`View.make`.  Interning makes structural equality identity,
    so a view keeps ``object``'s ``==`` and ``hash``, which run in C."""

    __slots__ = ("degree", "children", "depth")

    degree: int
    children: Tuple[Tuple[int, "View"], ...]
    depth: int

    def __new__(cls, *args, **kwargs):
        raise TypeError("View instances must be created through View.make")

    @staticmethod
    def make(degree: int, children: Tuple[Tuple[int, "View"], ...]) -> "View":
        """Intern-constructor.

        ``children`` must be empty (depth-0 view) or have exactly ``degree``
        entries, one per local port in order, each ``(remote_port, child)``
        with all children at equal depth.
        """
        key = (degree, children)
        found = _INTERN.get(key)
        if found is not None:
            return found
        if children:
            if len(children) != degree:
                raise ValueError(
                    f"view of degree {degree} must have {degree} children, "
                    f"got {len(children)}"
                )
            child_depth = children[0][1].depth
            for _, child in children:
                if child.depth != child_depth:
                    raise ValueError("all children of a view must share a depth")
            depth = child_depth + 1
        else:
            depth = 0
        self = object.__new__(View)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "depth", depth)
        _INTERN[key] = self
        registry = _BY_DEPTH.get(depth)
        if registry is None:
            registry = _BY_DEPTH[depth] = []
        registry.append(self)
        return self

    def __setattr__(self, name, value):  # views are immutable
        raise AttributeError("View objects are immutable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"View(depth={self.depth}, degree={self.degree})"

    # ------------------------------------------------------------------
    def child(self, port: int) -> "View":
        """Depth-(l-1) view of the neighbor through local ``port``."""
        return self.children[port][1]

    def remote_port(self, port: int) -> int:
        """Port number at the far end of the edge through local ``port``."""
        return self.children[port][0]

    def tree_size(self) -> int:
        """Number of nodes of the *expanded* view tree (the count can be
        exponential in depth; the computation is one pass over the
        hash-consed DAG with an explicit stack, so it is safe on views
        whose depth exceeds the interpreter recursion limit)."""
        sizes: Dict["View", int] = {}
        stack = [self]
        while stack:
            v = stack[-1]
            if v in sizes:
                stack.pop()
                continue
            pending = [c for _, c in v.children if c not in sizes]
            if pending:
                stack.extend(pending)
                continue
            sizes[v] = 1 + sum(sizes[c] for _, c in v.children)
            stack.pop()
        return sizes[self]


# ----------------------------------------------------------------------
# computing views of a graph
# ----------------------------------------------------------------------
def view_levels(
    g: PortGraph, max_depth: Optional[int] = None
) -> Iterator[List[View]]:
    """Yield, for depth l = 0, 1, 2, ..., the list ``[B^l(v) for v in
    g.nodes()]``.  Stops after ``max_depth`` levels if given, otherwise
    iterates forever (callers break on their own condition, e.g. partition
    stabilization).

    Runs on the graph's flat CSR arrays (:func:`repro.graphs.csr.csr_of`):
    per node and level, the children tuple is one C-level ``zip`` over the
    static remote-port tuple and the gathered neighbor views."""
    from repro.graphs.csr import csr_of

    csr = csr_of(g)
    degrees = csr.degrees
    nbrs = csr.neighbor_tuples
    rports = csr.remote_port_tuples
    make = View.make
    current: List[View] = [make(d, ()) for d in degrees]
    depth = 0
    yield current
    while max_depth is None or depth < max_depth:
        gather = current.__getitem__
        current = [
            make(degrees[v], tuple(zip(rports[v], map(gather, nbrs[v]))))
            for v in range(csr.n)
        ]
        depth += 1
        yield current


def views_of_graph(g: PortGraph, depth: int) -> List[View]:
    """``[B^depth(v) for v in g.nodes()]``."""
    if depth < 0:
        raise ValueError(f"view depth must be >= 0, got {depth}")
    for d, level in enumerate(view_levels(g, max_depth=depth)):
        if d == depth:
            return level
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# truncation
# ----------------------------------------------------------------------
def truncate_view(view: View, depth: int) -> View:
    """B^l(v) -> B^depth(v): the truncation of a view to a smaller depth.

    O(distinct subviews) with global memoization; raises ``ValueError``
    if ``depth > view.depth`` (a view cannot be extended, only cut).
    """
    if depth > view.depth:
        raise ValueError(
            f"cannot truncate a depth-{view.depth} view to larger depth {depth}"
        )
    if depth == view.depth:
        return view
    key = (id(view), depth)
    found = _TRUNCATE_CACHE.get(key)
    if found is not None:
        return found
    if depth == 0:
        result = View.make(view.degree, ())
    else:
        children = tuple(
            (q, truncate_view(child, depth - 1)) for q, child in view.children
        )
        result = View.make(view.degree, children)
    _TRUNCATE_CACHE[key] = result
    return result


# ----------------------------------------------------------------------
# explicit expansion (cross-validation & small-case debugging)
# ----------------------------------------------------------------------
def explicit_view_tree(g: PortGraph, v: int, depth: int) -> tuple:
    """Directly-recursive (non-interned) construction of B^depth(v) as a
    nested tuple ``(degree, ((remote_port, subtree), ...))``.

    Exponential in depth — this exists to cross-validate the interned
    construction in tests and must only be used on small instances.
    """
    if depth == 0:
        return (g.degree(v), ())
    children = tuple(
        (q, explicit_view_tree(g, u, depth - 1)) for (u, q) in g.ports(v)
    )
    return (g.degree(v), children)


def view_nested_tuple(view: View) -> tuple:
    """Expand an interned view into the nested-tuple form of
    :func:`explicit_view_tree` (exponential; small views only)."""
    return (
        view.degree,
        tuple((q, view_nested_tuple(child)) for q, child in view.children),
    )


# ----------------------------------------------------------------------
def clear_view_caches() -> None:
    """Drop the global intern and truncation tables, the per-depth view
    registry, the order rank tables, the wire-codec caches and every live
    strict-mode message plane (all of which key on view identity or hold
    interned views).  Existing View objects remain valid but newly built
    structurally-equal views will be fresh objects — so never mix views
    from before and after a clear."""
    from repro.sim import strict as _strict
    from repro.sim import trace as _trace
    from repro.views import encoding as _encoding
    from repro.views import order as _order
    from repro.views import wire as _wire

    _INTERN.clear()
    _TRUNCATE_CACHE.clear()
    _BY_DEPTH.clear()
    _order._clear_rank_tables()
    _encoding._B1_CACHE.clear()
    # the tracer's DAG-size cache keys on id(view); once the intern table
    # is dropped those ids can be recycled by fresh views, and a stale
    # entry would silently misprice a different view's transmission cost
    _trace._DAG_SIZE_CACHE.clear()
    # same identity argument for the wire codec's encode/sub-encoding
    # caches, and the decode cache and message planes hold interned views
    # that must never leak into a run started after the clear
    _wire._clear_wire_caches()
    _strict._clear_message_planes()


def intern_table_size() -> int:
    """Number of distinct views currently interned (diagnostics)."""
    return len(_INTERN)
