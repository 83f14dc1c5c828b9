"""Forms (screens) and the naive schema they imply.

"Informally, we have noticed that reporting tools maintain an in-memory
structure with a simple design: each screen of the tool corresponds to a
table, and each control corresponds to a column.  We call this design the
naïve schema for a tool."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ControlError
from repro.expr.analysis import referenced_identifiers
from repro.expr.ast import Identifier
from repro.expr.compile import CompiledPredicate, lower_predicate
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.ui.controls import Control

#: Synthetic key column present in every naive-schema table: one row per
#: saved screen (e.g. one endoscopy report).
RECORD_ID = "record_id"


@dataclass
class Form:
    """One screen of a reporting tool: a tree of controls."""

    name: str
    title: str
    controls: list[Control] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ControlError(f"form name {self.name!r} must be a valid identifier")
        every = tuple(self.iter_controls())
        names = [control.name for control in every]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ControlError(
                f"form {self.name}: duplicate control names {sorted(duplicates)}"
            )
        if RECORD_ID in names:
            raise ControlError(f"form {self.name}: {RECORD_ID!r} is reserved")
        self._by_name = {control.name: control for control in every}
        self._data_controls = tuple(c for c in every if c.stores_data)
        self._dependents = self._index_enablement(every)
        # Compiled enablement conditions, filled on first use and held here
        # rather than in the process-wide compile memo.
        self._predicates: dict[str, CompiledPredicate | None] = {}
        # The opening screen (validated defaults, disabled controls cleared),
        # filled by the first FormInstance that computes it without raising.
        self._initial_values: dict[str, object] | None = None

    def _index_enablement(
        self, controls: tuple[Control, ...]
    ) -> dict[str, tuple[int, ...]]:
        """Check every enablement reference names a control, and index them.

        Returns control name -> ascending positions (in :meth:`data_controls`
        order) of the data controls whose enablement reads it.  Identifiers
        resolve by their leaf segment, as the evaluator resolves them against
        a screen keyed by control name; self-references count.
        """
        positions = {control.name: i for i, control in enumerate(self._data_controls)}
        dependents: dict[str, set[int]] = {}
        for control in controls:
            if control.enabled_when is None:
                continue
            position = positions.get(control.name)
            for node in control.enabled_when.walk():
                if not isinstance(node, Identifier):
                    continue
                if node.name.split(".")[-1] not in self._by_name:
                    raise ControlError(
                        f"{self.name}.{control.name}: enablement references "
                        f"unknown control {node.name!r}"
                    )
                if position is not None:
                    dependents.setdefault(node.leaf, set()).add(position)
        return {name: tuple(sorted(found)) for name, found in dependents.items()}

    # -- traversal -----------------------------------------------------------

    def iter_controls(self) -> Iterator[Control]:
        """Every control on the form, pre-order."""
        for top in self.controls:
            yield from top.iter_tree()

    def data_controls(self) -> list[Control]:
        """Controls that store data (one naive-schema column each)."""
        return list(self._data_controls)

    def enablement_predicate(self, name: str) -> CompiledPredicate | None:
        """The compiled enablement condition of control ``name`` (None when
        it is always enabled)."""
        predicates = self._predicates
        if name in predicates:
            return predicates[name]
        condition = self.control(name).enabled_when
        compiled = None if condition is None else lower_predicate(condition)
        predicates[name] = compiled
        return compiled

    def control(self, name: str) -> Control:
        """Look up a control by name."""
        if name not in self._by_name:
            raise ControlError(f"form {self.name} has no control {name!r}")
        return self._by_name[name]

    def has_control(self, name: str) -> bool:
        return name in self._by_name

    def enablement_parent(self, control: Control) -> Control | None:
        """The control whose answer enables ``control``, if any.

        When the enablement condition references several controls, the
        parent is the one named by the alphabetically first identifier (by
        its dotted name as written), skipping self-references; the rest
        remain recorded in the condition itself.  So ``zeta = 1 AND
        alpha = 2`` hangs under ``alpha``.
        """
        if control.enabled_when is None:
            return None
        for name in sorted(referenced_identifiers(control.enabled_when)):
            leaf = name.split(".")[-1]
            if leaf in self._by_name and leaf != control.name:
                return self._by_name[leaf]
        return None


def naive_schema(form: Form) -> TableSchema:
    """The naive-schema table for one form: record key + column per control."""
    columns = [Column(RECORD_ID, DataType.INTEGER, nullable=False)]
    for control in form.data_controls():
        assert control.data_type is not None
        columns.append(Column(control.name, control.data_type, nullable=True))
    return TableSchema(form.name, tuple(columns), primary_key=(RECORD_ID,))
