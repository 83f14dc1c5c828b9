"""The trace core: span nesting/ordering, exports, and the off switch."""

from __future__ import annotations

import json
import time

from repro.obs import (
    NULL_SPAN,
    Span,
    Tracer,
    TreeRecorder,
    current_span,
    current_tracer,
    enabled,
    span,
    tracing,
)


class TestSpanTree:
    def test_nesting_follows_context_managers(self):
        with tracing() as tracer:
            with tracer.span("outer"):
                with tracer.span("mid"):
                    with tracer.span("inner"):
                        pass
                with tracer.span("sibling"):
                    pass
        root = tracer.root
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["mid", "sibling"]
        assert [c.name for c in root.children[0].children] == ["inner"]

    def test_sibling_ordering_is_open_order(self):
        with tracing() as tracer:
            with tracer.span("root"):
                for name in ("a", "b", "c"):
                    with tracer.span(name):
                        pass
        assert [c.name for c in tracer.root.children] == ["a", "b", "c"]

    def test_durations_are_monotonic_and_inclusive(self):
        with tracing() as tracer:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    time.sleep(0.002)
        outer, inner = tracer.root, tracer.root.children[0]
        assert inner.duration_s >= 0.002
        assert outer.duration_s >= inner.duration_s
        assert outer.self_s() >= 0.0

    def test_counters_events_and_walk(self):
        with tracing() as tracer:
            with tracer.span("work") as s:
                s.incr("hits")
                s.incr("hits", 2)
                s.set("mode", "test")
                s.event("decided", choice="left")
        s = tracer.root
        assert s.attrs["hits"] == 3
        assert s.attrs["mode"] == "test"
        assert s.events == [{"event": "decided", "choice": "left"}]
        assert [x.name for x in s.walk()] == ["work"]

    def test_current_span_tracks_stack(self):
        with tracing() as tracer:
            with tracer.span("a"):
                assert current_span().name == "a"
                with tracer.span("b"):
                    assert current_span().name == "b"
                assert current_span().name == "a"
            assert current_span() is None


class TestExports:
    def _sample(self) -> Tracer:
        with tracing() as tracer:
            with tracer.span("root", kind="demo") as s:
                s.incr("rows", 10)
                with tracer.span("child"):
                    pass
        return tracer

    def test_to_json_round_trips(self):
        tracer = self._sample()
        payload = json.loads(tracer.to_json())
        (root,) = payload["spans"]
        assert root["name"] == "root"
        assert root["attrs"] == {"kind": "demo", "rows": 10}
        assert [c["name"] for c in root["children"]] == ["child"]

    def test_render_mentions_every_span_and_attr(self):
        text = self._sample().root.render()
        assert "root" in text and "child" in text
        assert "rows=10" in text and "ms" in text

    def test_flamegraph_lines_are_collapsed_stacks(self):
        lines = self._sample().root.flamegraph_lines()
        paths = [line.rsplit(" ", 1)[0] for line in lines]
        assert paths == ["root", "root;child"]
        for line in lines:
            assert int(line.rsplit(" ", 1)[1]) >= 0


class TestDisabledMode:
    def test_disabled_by_default(self):
        assert not enabled()
        assert current_tracer() is None
        assert current_span() is None

    def test_span_is_shared_noop_when_disabled(self):
        with span("anything", key="value") as s:
            assert s is NULL_SPAN
            s.incr("n")
            s.set("k", 1)
            s.event("e")
            assert s.child("sub") is s
        assert s.attrs == {}
        assert s.events == []
        assert s.children == []

    def test_tracing_scope_installs_and_removes(self):
        assert not enabled()
        with tracing() as tracer:
            assert enabled()
            assert current_tracer() is tracer
        assert not enabled()

    def test_disabled_span_overhead_smoke(self):
        # The architectural guarantee is one ContextVar read per call;
        # this smoke test just pins it to "far cheaper than real work".
        n = 50_000
        started = time.perf_counter()
        for _ in range(n):
            with span("noop"):
                pass
        per_call = (time.perf_counter() - started) / n
        assert per_call < 50e-6  # generous: real calls are ~1us


class TestTreeRecorder:
    class Node:
        def __init__(self, name, *children):
            self.name = name
            self.kids = children

    def _tree(self):
        return self.Node("root", self.Node("left"), self.Node("right"))

    def _recorder(self, root):
        parent = Span("parent")
        recorder = TreeRecorder(
            root, parent, label=lambda n: n.name, children=lambda n: n.kids
        )
        return parent, recorder

    def test_mirrors_static_tree(self):
        root = self._tree()
        parent, _ = self._recorder(root)
        (root_span,) = parent.children
        assert root_span.name == "root"
        assert [c.name for c in root_span.children] == ["left", "right"]

    def test_unknown_nodes_have_no_span(self):
        root = self._tree()
        _, recorder = self._recorder(root)
        assert recorder.span_of(self.Node("stranger")) is None
        recorder.annotate(self.Node("stranger"), access_path="index")

    def test_annotate_targets_the_right_span(self):
        root = self._tree()
        _, recorder = self._recorder(root)
        recorder.annotate(root.kids[0], access_path="index")
        assert recorder.span_of(root.kids[0]).attrs == {"access_path": "index"}
        assert recorder.span_of(root.kids[1]).attrs == {}
