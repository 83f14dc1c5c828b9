"""Simulated data-entry sessions.

A :class:`DataEntrySession` plays the role of a clinician using the
reporting tool: it opens forms, fills controls (respecting enablement and
validation exactly as the real GUI would), and saves.  Saving produces a
*naive row* — the in-memory screen state — which is handed to a writer
callback; in a full source the writer is a design-pattern chain that lays
the row out in the physical database.

This is the substitution for the paper's Windows data-entry application:
it exercises the identical semantics (defaults, required fields, disabled
controls holding no data) that give g-tree nodes their meaning.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Mapping

from repro.errors import (
    DataEntryError,
    DisabledControlError,
    RequiredControlError,
)
from repro.ui.form import RECORD_ID, Form
from repro.ui.toolkit import ReportingTool

NaiveRow = dict[str, object]
Writer = Callable[[str, NaiveRow], None]


class FormInstance:
    """One open screen: current values plus enablement state.

    The screen is *settled* when every control holding data is enabled by
    the current values.  From a settled screen, :meth:`set` re-checks only
    the controls whose conditions read what changed; a condition that
    raises mid-sweep leaves the screen unsettled, and the next :meth:`set`
    falls back to the full sweep (DESIGN.md §5, UI enablement).
    """

    def __init__(self, form: Form, record_id: int):
        self.form = form
        self.record_id = record_id
        initial = form._initial_values
        if initial is not None:
            self._values = dict(initial)
            self._settled = True
            return
        self._values = {
            control.name: control.validate(control.default)
            for control in form._data_controls
        }
        # Controls that open disabled hold no data, even if they declare a
        # default — the GUI greys them out before anything is stored.
        self._clear_disabled()
        form._initial_values = dict(self._values)

    # -- state ----------------------------------------------------------------

    def value(self, control_name: str) -> object:
        """The current value of a control."""
        control = self.form.control(control_name)
        if not control.stores_data:
            raise DataEntryError(f"{control_name} stores no data")
        return self._values[control_name]

    def values(self) -> NaiveRow:
        """A copy of the current screen state (data controls only)."""
        return dict(self._values)

    def is_enabled(self, control_name: str) -> bool:
        """Evaluate the control's enablement condition over current values.

        A control with no condition is always enabled; a condition that
        evaluates to NULL (because its inputs are unanswered) disables.
        """
        predicate = self.form.enablement_predicate(control_name)
        if predicate is None:
            return True
        return predicate(self._values)

    # -- interaction ------------------------------------------------------------

    def set(self, control_name: str, value: object) -> None:
        """Enter ``value`` into a control, as a user would.

        Raises :class:`DisabledControlError` when the control is currently
        disabled — the GUI would not let the user type there — and
        :class:`DataEntryError` on invalid values.  Changing an answer
        re-evaluates enablement; controls that become disabled are cleared,
        mirroring how reporting tools blank out dependent questions.
        """
        control = self.form.control(control_name)
        if not control.stores_data:
            raise DataEntryError(f"cannot enter data into {control_name}")
        if not self.is_enabled(control_name):
            raise DisabledControlError(
                f"{self.form.name}.{control_name} is disabled"
            )
        self._values[control_name] = control.validate(value)
        if self._settled:
            self._clear_dependents(control_name)
        else:
            self._clear_disabled()

    def _clear_disabled(self) -> None:
        """The full sweep: re-check every control until nothing changes."""
        self._settled = False
        # Iterate to a fixed point: clearing one control may disable another.
        changed = True
        while changed:
            changed = False
            for control in self.form._data_controls:
                if self._values[control.name] is not None and not self.is_enabled(
                    control.name
                ):
                    self._values[control.name] = None
                    changed = True
        self._settled = True

    def _clear_dependents(self, changed_name: str) -> None:
        """The full sweep's clears, re-checking only what ``changed_name``
        can reach.

        On a settled screen, a control whose inputs have not changed since
        its last check would evaluate the same way again: enabled, without
        raising.  So the full sweep can only clear a control that reads a
        changed value, and it checks it at the first document position it
        reaches after the change.  This sweep visits exactly those
        positions in the same order.  A dirty position after the cursor is
        taken in the current pass; one at or before it waits for the next
        pass, as it would in the full sweep.
        """
        dependents = self.form._dependents
        queue = list(dependents.get(changed_name, ()))
        if not queue:
            return
        controls = self.form._data_controls
        values = self._values
        self._settled = False
        while queue:
            queued = set(queue)
            next_pass: set[int] = set()
            while queue:
                position = heappop(queue)
                name = controls[position].name
                if values[name] is None or self.is_enabled(name):
                    continue
                values[name] = None
                for dependent in dependents.get(name, ()):
                    if dependent <= position:
                        next_pass.add(dependent)
                    elif dependent not in queued:
                        queued.add(dependent)
                        heappush(queue, dependent)
            queue = sorted(next_pass)
        self._settled = True

    def save(self) -> NaiveRow:
        """Validate required fields and return the naive row.

        Required controls must be answered *when enabled*; a required
        control that is disabled is legitimately empty.
        """
        for control in self.form._data_controls:
            if (
                control.required
                and self.is_enabled(control.name)
                and self._values[control.name] is None
            ):
                raise RequiredControlError(
                    f"{self.form.name}.{control.name} is required"
                )
        row: NaiveRow = {RECORD_ID: self.record_id}
        row.update(self._values)
        return row


class DataEntrySession:
    """A clinician's session with a reporting tool.

    ``writer(form_name, naive_row)`` receives each saved screen; record ids
    are assigned sequentially per form, starting from ``first_record_id``.
    """

    def __init__(
        self,
        tool: ReportingTool,
        writer: Writer | None = None,
        first_record_id: int = 1,
    ):
        self.tool = tool
        self._writer = writer
        self._next_id: dict[str, int] = {
            form.name: first_record_id for form in tool.forms
        }
        self.saved_count = 0

    def open_form(self, form_name: str) -> FormInstance:
        """Open a fresh screen of ``form_name`` with defaults applied."""
        form = self.tool.form(form_name)
        record_id = self._next_id[form_name]
        self._next_id[form_name] = record_id + 1
        return FormInstance(form, record_id)

    def save(self, instance: FormInstance) -> NaiveRow:
        """Save a screen: validate, emit to the writer, return the row."""
        row = instance.save()
        if self._writer is not None:
            self._writer(instance.form.name, row)
        self.saved_count += 1
        return row

    def enter(self, form_name: str, values: Mapping[str, object]) -> NaiveRow:
        """Convenience: open a form, enter ``values`` in order, save.

        Values for currently disabled controls raise, exactly as
        interactive entry would; order your mapping so enabling answers
        come first (Python dicts preserve insertion order).
        """
        instance = self.open_form(form_name)
        for control_name, value in values.items():
            instance.set(control_name, value)
        return self.save(instance)
