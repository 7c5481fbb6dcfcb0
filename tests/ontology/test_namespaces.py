"""Unit tests for namespaces and the prefix registry."""

from repro.ontology import Namespace, NamespaceRegistry, split_uri


class TestSplitUri:
    def test_hash_separator(self):
        assert split_uri("http://x.org/onto#Student") == ("http://x.org/onto#", "Student")

    def test_slash_separator(self):
        assert split_uri("http://x.org/onto/Student") == ("http://x.org/onto/", "Student")

    def test_hash_preferred_over_slash(self):
        namespace, local = split_uri("http://x.org/a/b#C")
        assert namespace == "http://x.org/a/b#"
        assert local == "C"

    def test_bare_name(self):
        assert split_uri("Student") == ("", "Student")


class TestNamespace:
    def test_getitem_joins(self):
        ns = Namespace("http://x.org/o#")
        assert ns["Student"] == "http://x.org/o#Student"


class TestRegistry:
    def test_resolve_curie(self):
        registry = NamespaceRegistry()
        registry.bind("sm", "http://x.org/o#")
        assert registry.resolve("sm:Student") == "http://x.org/o#Student"

    def test_resolve_full_uri_passthrough(self):
        registry = NamespaceRegistry()
        assert registry.resolve("http://y.org/T") == "http://y.org/T"

    def test_resolve_unknown_prefix_passthrough(self):
        registry = NamespaceRegistry()
        assert registry.resolve("zz:Thing") == "zz:Thing"

    def test_rebind_prefix(self):
        registry = NamespaceRegistry()
        registry.bind("sm", "http://old.org#")
        registry.bind("sm", "http://new.org#")
        assert registry.resolve("sm:X") == "http://new.org#X"
