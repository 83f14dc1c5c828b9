"""GUAVA queries through every pattern layout ≡ the same query on Naive.

The paper's claim for the GUAVA layer is that a g-tree query means the
same thing whatever physical layout a contributor chose.  This suite
draws random screens and random g-tree queries (node selections,
conditions, derivations) and runs each through every chain of
``test_property_patterns._chains()`` — Generic/EAV pivots, Merge,
Split, Multivalue + Lookup + Audit, Encoding + Versioned, Blob,
Partition + Audit — against the Naive layout.  Results must be equal in
content and order (Partition's order is its union of partitions, see
``_layout_order``), both for the full query and for the record-scoped
``execute(record_ids=...)`` path incremental refresh uses.  Along the
way this runs the Pivot, Coerce, Unpivot, IndexLookup and InLookup batch
kernels inside real pattern read paths.
"""

from hypothesis import given, settings, strategies as st

from repro.guava import GTreeQuery, GuavaSource
from repro.patterns import PartitionPattern
from repro.ui import CheckBox, Form, NumericBox, RadioGroup, ReportingTool, TextBox
from tests.test_patterns.test_property_patterns import (
    _CATEGORIES,
    _chains,
    _screen_rows,
)


def _tool() -> ReportingTool:
    """A reporting tool whose forms have the chains' naive schemas."""
    screen = Form(
        "screen",
        "Screen",
        controls=[
            CheckBox("checked", "Checked"),
            RadioGroup("category", "Category", choices=list(_CATEGORIES)),
            NumericBox("amount", "Amount", integer=False),
            NumericBox("count", "Count"),
            TextBox("tags", "Tags"),
        ],
    )
    note = Form("note", "Note", controls=[TextBox("text", "Text")])
    return ReportingTool("differential", "1.0", forms=[screen, note])


_NODES = ("checked", "category", "amount", "count", "tags")

_conditions = st.sampled_from(
    [
        None,
        "checked = TRUE",
        "checked IS NULL",
        "category = 'Current'",
        "category IN ('Never', 'Previous')",
        "amount >= 0",
        "count < 10 OR count IS NULL",
        "tags LIKE 'a%'",
        "checked = FALSE AND category IS NOT NULL",
        "NOT (amount < 0) AND count >= -500",
    ]
)

_derivations = st.sampled_from(
    [None, ("twice", "count * 2"), ("flag", "checked = TRUE OR amount > 50")]
)


def _query(gtree, nodes, condition, derivation) -> GTreeQuery:
    query = GTreeQuery(gtree)
    if nodes:
        query = query.select(*nodes)
    if condition is not None:
        query = query.where(condition)
    if derivation is not None:
        query = query.derive(*derivation)
    return query


def _sources(rows) -> list[GuavaSource]:
    """One source per chain (Naive first), each holding ``rows``."""
    tool = _tool()
    sources = []
    for index, chain in enumerate(_chains()):
        source = GuavaSource(f"layout{index}", tool, chain)
        for record_id, values in enumerate(rows, start=1):
            chain.write(source.db, "screen", {"record_id": record_id, **values})
        chain.write(source.db, "note", {"record_id": 1, "text": "n"})
        sources.append(source)
    return sources


@given(
    rows=_screen_rows,
    nodes=st.lists(st.sampled_from(_NODES), unique=True, max_size=3),
    condition=_conditions,
    derivation=_derivations,
    scope=st.lists(st.integers(1, 16), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_every_layout_answers_like_naive(rows, nodes, condition, derivation, scope):
    naive, *layouts = _sources(rows)
    query = _query(naive.gtree("screen"), nodes, condition, derivation)
    expected = naive.execute(query)
    expected_scoped = naive.execute(query, record_ids=scope)
    assert [row["record_id"] for row in expected_scoped] == [
        row["record_id"] for row in expected if row["record_id"] in set(scope)
    ]
    for source in layouts:
        layout_query = _query(source.gtree("screen"), nodes, condition, derivation)
        order = _layout_order(source, rows)
        assert source.execute(layout_query) == order(expected), source.chain.patterns
        assert (
            source.execute(layout_query, record_ids=scope) == order(expected_scoped)
        ), source.chain.patterns


def _layout_order(source, rows):
    """The layout's row order, as a function of the Naive result.

    Every layout reads records back in Naive (entry) order except
    Partition, whose read path is a union of its partition tables: the
    ``Current`` partition's records first, then the rest, each in entry
    order.
    """
    if not any(isinstance(p, PartitionPattern) for p in source.chain.patterns):
        return lambda result: result
    current = {
        record_id
        for record_id, values in enumerate(rows, start=1)
        if values["category"] == "Current"
    }
    return lambda result: sorted(result, key=lambda row: row["record_id"] not in current)
