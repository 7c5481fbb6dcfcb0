"""Subsumption and equivalence reasoning.

The reasoner computes exactly what Whisper's matcher needs from OWL:

* the reflexive-transitive closure of ``rdfs:subClassOf`` (through
  ``owl:equivalentClass`` links),
* equivalence classes (union-find over ``owl:equivalentClass``),
* concept depth and least common ancestors, used for similarity scoring.

Results are memoised for one :attr:`Ontology.version`: every ``add_*`` /
``merge`` bumps it and the next query starts from empty caches.  Call
:meth:`invalidate` only after editing a ``Concept`` object directly.
"""

from __future__ import annotations

from typing import Dict, List, Set

from .ontology import Ontology

__all__ = ["Reasoner"]


class Reasoner:
    """Cached subsumption queries over one ontology."""

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        self._ancestor_cache: Dict[str, Set[str]] = {}
        self._equivalence_root: Dict[str, str] = {}
        self._depth_cache: Dict[str, int] = {}
        self._version = ontology.version

    def invalidate(self) -> None:
        """The version bump by hand: every cache keyed on it starts over."""
        self.ontology.version += 1

    def _sync(self) -> None:
        """Drop memoised results computed at another ontology version."""
        if self._version != self.ontology.version:
            self._version = self.ontology.version
            self._ancestor_cache.clear()
            self._equivalence_root.clear()
            self._depth_cache.clear()

    # -- equivalence (union-find) ------------------------------------------------

    def _find(self, uri: str) -> str:
        """Representative of ``uri``'s equivalence class."""
        self._sync()
        if uri not in self._equivalence_root:
            self._build_equivalence_classes()
        return self._equivalence_root.get(uri, uri)

    def _build_equivalence_classes(self) -> None:
        parent: Dict[str, str] = {uri: uri for uri in self.ontology.concepts}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for concept in self.ontology.concepts.values():
            for equivalent in concept.equivalents:
                if equivalent in parent:
                    root_a, root_b = find(concept.uri), find(equivalent)
                    if root_a != root_b:
                        parent[root_b] = root_a
        self._equivalence_root = {uri: find(uri) for uri in parent}

    def equivalent(self, uri_a: str, uri_b: str) -> bool:
        """True if the two concepts are in the same equivalence class."""
        if uri_a == uri_b:
            return True
        if uri_a not in self.ontology.concepts or uri_b not in self.ontology.concepts:
            return False
        return self._find(uri_a) == self._find(uri_b)

    def equivalence_class(self, uri: str) -> Set[str]:
        """Every concept equivalent to ``uri`` (including itself)."""
        root = self._find(uri)
        return {other for other in self.ontology.concepts if self._find(other) == root}

    # -- subsumption ----------------------------------------------------------------

    def ancestors(self, uri: str) -> Set[str]:
        """Reflexive-transitive superclasses of ``uri``.

        Equivalent concepts share ancestors: the closure walks parent edges
        of every member of each equivalence class it reaches.
        """
        self._sync()
        if uri in self._ancestor_cache:
            return self._ancestor_cache[uri]
        if uri not in self.ontology.concepts:
            return {uri}
        result: Set[str] = set()
        stack: List[str] = [uri]
        while stack:
            current = stack.pop()
            if current in result:
                continue
            result.add(current)
            if current not in self.ontology.concepts:
                continue
            for member in self.equivalence_class(current):
                if member not in result:
                    stack.append(member)
                for parent in self.ontology.concepts[member].parents:
                    if parent not in result:
                        stack.append(parent)
        self._ancestor_cache[uri] = result
        return result

    def descendants(self, uri: str) -> Set[str]:
        """Reflexive-transitive subclasses of ``uri``."""
        return {
            other for other in self.ontology.concepts if uri in self.ancestors(other)
        }

    def is_subsumed_by(self, child: str, parent: str) -> bool:
        """True if ``child`` ⊑ ``parent`` (reflexive, through equivalence)."""
        if child == parent:
            return True
        return parent in self.ancestors(child)

    def subsumes(self, parent: str, child: str) -> bool:
        return self.is_subsumed_by(child, parent)

    # -- similarity helpers ------------------------------------------------------------

    def depth(self, uri: str) -> int:
        """Longest parent-chain length from ``uri`` up to a root."""
        self._sync()
        if uri in self._depth_cache:
            return self._depth_cache[uri]
        if uri not in self.ontology.concepts:
            return 0
        # Iterative longest-path on the (acyclic once validated) parent DAG;
        # equivalence cycles are guarded by treating revisits as depth 0.
        visiting: Set[str] = set()

        def longest(node: str) -> int:
            if node in self._depth_cache:
                return self._depth_cache[node]
            if node in visiting or node not in self.ontology.concepts:
                return 0
            visiting.add(node)
            parents = self.ontology.concepts[node].parents
            value = 0 if not parents else 1 + max(longest(p) for p in parents)
            visiting.discard(node)
            self._depth_cache[node] = value
            return value

        return longest(uri)

    def least_common_ancestors(self, uri_a: str, uri_b: str) -> Set[str]:
        """Deepest concepts subsuming both arguments."""
        common = self.ancestors(uri_a) & self.ancestors(uri_b)
        common = {c for c in common if c in self.ontology.concepts}
        if not common:
            return set()
        best_depth = max(self.depth(c) for c in common)
        return {c for c in common if self.depth(c) == best_depth}

    def similarity(self, uri_a: str, uri_b: str) -> float:
        """Wu–Palmer-style similarity in [0, 1] used for ranking.

        ``2 * depth(lca) / (depth(a) + depth(b))``; equivalent concepts get
        1.0, concepts with no common ancestor get 0.0.
        """
        if self.equivalent(uri_a, uri_b):
            return 1.0
        lcas = self.least_common_ancestors(uri_a, uri_b)
        if not lcas:
            return 0.0
        lca_depth = max(self.depth(c) for c in lcas)
        denominator = self.depth(uri_a) + self.depth(uri_b)
        if denominator == 0:
            return 0.0
        return min(1.0, (2.0 * lca_depth) / denominator)
