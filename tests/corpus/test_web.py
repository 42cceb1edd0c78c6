"""Synthetic web tests: pages, links, graph, fetching."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.corpus.web import FRONT_PAGE_URL, build_web


class TestStructure:
    def test_front_page_exists(self, small_web):
        page = small_web.fetch(FRONT_PAGE_URL)
        assert page.document is None
        assert page.links  # links to every site hub

    def test_every_document_has_a_page(self, small_web):
        for document in small_web.documents:
            page = small_web.fetch(document.url)
            assert page.text == document.text

    def test_hub_pages_link_to_articles(self, small_web):
        front = small_web.fetch(FRONT_PAGE_URL)
        hub = small_web.fetch(front.links[0])
        assert hub.document is None
        assert all(small_web.has(link) for link in hub.links)

    def test_page_count_exceeds_documents(self, small_web):
        # Hubs + front page on top of the article pages.
        assert len(small_web) > len(small_web.documents)

    def test_404_raises(self, small_web):
        with pytest.raises(KeyError):
            small_web.fetch("http://nowhere.example.com/x.html")

    def test_has(self, small_web):
        assert small_web.has(FRONT_PAGE_URL)
        assert not small_web.has("http://nowhere.example.com/x.html")


class TestGraph:
    def test_graph_nodes_match_pages(self, small_web):
        assert set(small_web.graph.nodes) == set(small_web.urls)

    def test_all_articles_reachable_from_front_page(self, small_web):
        reachable = nx.descendants(small_web.graph, FRONT_PAGE_URL)
        for document in small_web.documents:
            assert document.url in reachable

    def test_links_mirror_edges(self, small_web):
        for url in small_web.urls:
            page = small_web.fetch(url)
            for link in page.links:
                assert small_web.graph.has_edge(url, link)

    def test_related_links_share_a_company(self, small_web):
        for document in small_web.documents[:50]:
            page = small_web.fetch(document.url)
            for link in page.links:
                target = small_web.fetch(link)
                if target.document is None:
                    continue
                shared = set(document.companies) & set(
                    target.document.companies
                )
                assert shared


class TestDeterminism:
    def test_same_size_same_web(self):
        a = build_web(100)
        b = build_web(100)
        assert a.urls == b.urls
        assert a.fetch(a.urls[0]).text == b.fetch(b.urls[0]).text
