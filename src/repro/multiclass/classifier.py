"""Classifiers: declarative ``A <- B`` rule lists (paper Figure 5).

"An analyst creates a classifier to relate nodes in a g-tree with domain
entries in a study schema.  Each classifier is a list of declarative
statements of the form A <- B, where A is an arithmetic calculation and B
is a Boolean condition.  Both clauses use nodes in a g-tree as arguments."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from repro.errors import ClassifierError
from repro.expr.analysis import is_union_of_conjunctions, referenced_identifiers
from repro.expr.ast import Expression, Literal
from repro.expr.compile import compile_expression, compile_predicate
from repro.expr.parser import parse
from repro.guava.gtree import GTree
from repro.multiclass.domain import Domain
from repro.util.annotations import Annotated

Environment = dict[str, object]

#: A compiled classifier: one record's node values in, its value out.
RowKernel = Callable[[Environment], object]

#: Distinct input combinations one kernel remembers.  Clinical inputs
#: cluster into a handful of combinations per classifier; the bound only
#: caps memory on adversarial (e.g. free-text) inputs, past which rows
#: evaluate directly.
_MEMO_LIMIT = 4096

_MISS = object()


@dataclass(frozen=True)
class Rule:
    """One statement ``output <- guard``."""

    output: Expression
    guard: Expression

    @classmethod
    def of(cls, output: str | Expression, guard: str | Expression) -> "Rule":
        return cls(
            parse(output) if isinstance(output, str) else output,
            parse(guard) if isinstance(guard, str) else guard,
        )

    def to_source(self) -> str:
        return f"{self.output.to_source()} <- {self.guard.to_source()}"

    @cached_property
    def inputs(self) -> frozenset[str]:
        """Identifier names the rule reads, dotted as written."""
        return frozenset(
            referenced_identifiers(self.guard) | referenced_identifiers(self.output)
        )


@dataclass
class Classifier(Annotated):
    """Maps g-tree data into one domain of one study-schema attribute.

    Rules are tried top to bottom; the first satisfied guard produces the
    value.  No satisfied guard (or a NULL guard, e.g. the question was
    never answered) leaves the record *unclassified* (NULL), never a
    silently wrong category.
    """

    name: str
    target_entity: str
    target_attribute: str
    target_domain: str
    rules: list[Rule] = field(default_factory=list)
    description: str = ""
    source_form: str = ""

    def __post_init__(self) -> None:
        if not self.rules:
            raise ClassifierError(f"classifier {self.name!r} has no rules")

    # -- evaluation -----------------------------------------------------------

    def classify(self, env: Environment, domain: Domain | None = None) -> object:
        """Apply the rules to one record's node values."""
        value, _ = self.explain(env, domain)
        return value

    def explain(
        self, env: Environment, domain: Domain | None = None
    ) -> tuple[object, int | None]:
        """Like :meth:`classify` but also reports which rule fired (index)."""
        # Guards and outputs compile to closures once per distinct expression
        # (memoized in repro.expr.compile), so classifying N records walks
        # each rule's AST once, not N times.
        for index, rule in enumerate(self.rules):
            if compile_predicate(rule.guard)(env):
                value = compile_expression(rule.output)(env)
                if domain is not None:
                    value = domain.check(value)
                return value, index
        return None, None

    def compile(self, domain: Domain | None = None) -> RowKernel:
        """A row kernel computing :meth:`classify` with ``domain``.

        Built once per run: the rules' compiled closures and the domain
        check are resolved here, not per record.  Classification is a pure
        function of the nodes the rules reference, so the kernel memoizes
        each distinct input combination.  The memo key holds every value
        with its exact type (``True``, ``1`` and ``1.0`` stay apart; a
        float zero is keyed by its repr, so ``-0.0`` and ``0.0`` stay apart
        too).  A record qualifies only when it carries every referenced
        name directly and all those values are hashable; any other record
        (a dotted name resolved by suffix, an unhashable value) evaluates
        directly.  Errors are never memoized: every offending record
        raises exactly what :meth:`classify` raises for it.
        """
        rules = [
            (compile_predicate(rule.guard), compile_expression(rule.output))
            for rule in self.rules
        ]
        check = domain.check if domain is not None else None

        def evaluate(env: Environment) -> object:
            for guard, output in rules:
                if guard(env):
                    value = output(env)
                    return value if check is None else check(value)
            return None

        key_of = _memo_key(tuple(frozenset().union(*[r.inputs for r in self.rules])))
        memo: dict[object, object] = {}

        def kernel(env: Environment) -> object:
            try:
                key = key_of(env)
                value = memo.get(key, _MISS)
            except (KeyError, TypeError):
                # A name the row lacks (suffix resolution) or an
                # unhashable value: the memo cannot see this row.
                return evaluate(env)
            if value is _MISS:
                value = evaluate(env)
                if len(memo) < _MEMO_LIMIT:
                    memo[key] = value
            return value

        return kernel

    # -- static analysis ----------------------------------------------------------

    def input_nodes(self) -> set[str]:
        """G-tree node names this classifier reads (for versioning)."""
        return {name.split(".")[-1] for rule in self.rules for name in rule.inputs}

    def validate_against(self, gtree: GTree) -> list[str]:
        """Node references absent from ``gtree`` (empty list = valid)."""
        return sorted(
            name for name in self.input_nodes() if not gtree.has_node(name)
        )

    def is_union_of_conjunctions(self) -> bool:
        """Hypothesis 3: every guard normalizes to a union of conjunctions."""
        return all(is_union_of_conjunctions(rule.guard) for rule in self.rules)

    @property
    def target(self) -> tuple[str, str, str]:
        return (self.target_entity, self.target_attribute, self.target_domain)

    def to_source(self) -> str:
        """The classifier in the analyst-facing mini-language."""
        from repro.multiclass.language import format_classifier

        return format_classifier(self)

    def __repr__(self) -> str:
        return (
            f"Classifier({self.name!r} -> {self.target_entity}."
            f"{self.target_attribute}:{self.target_domain}, {len(self.rules)} rules)"
        )


def _memo_key(names: tuple[str, ...]) -> Callable[[Environment], object]:
    """Key builder over ``names``: each value paired with its exact type.

    Raises ``KeyError`` when a name is absent from the row; the caller
    treats that (and an unhashable key) as "evaluate directly".
    """
    if len(names) == 1:
        (name,) = names

        def single(env: Environment) -> object:
            value = env[name]
            kind = type(value)
            if kind is float and not value:
                return kind, repr(value)
            return kind, value

        return single

    def several(env: Environment) -> object:
        key: tuple[object, ...] = ()
        for name in names:
            value = env[name]
            kind = type(value)
            key += (kind, repr(value) if kind is float and not value else value)
        return key

    return several


@dataclass
class EntityClassifier(Annotated):
    """Identifies unique objects in a g-tree to bring into the study.

    "An analyst creates an entity classifier just like any other
    classifier, except the target object of the classifier is an entity
    rather than a domain.  Also, the classifier must refer to at least one
    node in the g-tree that represents a form."
    """

    name: str
    target_entity: str
    form: str
    condition: Expression = field(default_factory=lambda: Literal(True))
    description: str = ""
    #: For child entities of the has-a tree: the g-tree node holding the
    #: parent entity's record id (e.g. the finding form's ``procedure_id``).
    #: Study output then carries ``parent_record_id`` so warehouse queries
    #: can traverse the has-a edge.
    parent_link: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.condition, str):
            self.condition = parse(self.condition)

    def admits(self, env: Environment) -> bool:
        """True when a record qualifies as an instance of the entity."""
        return compile_predicate(self.condition)(env)

    def input_nodes(self) -> set[str]:
        names = referenced_identifiers(self.condition)
        return {name.split(".")[-1] for name in names} | {self.form}

    def validate_against(self, gtree: GTree) -> list[str]:
        """Problems with this entity classifier against a g-tree."""
        problems: list[str] = []
        if self.form != gtree.form_name:
            problems.append(
                f"form node {self.form!r} is not the g-tree's form "
                f"({gtree.form_name!r})"
            )
        for name in sorted(self.input_nodes() - {self.form}):
            if not gtree.has_node(name):
                problems.append(f"unknown node {name!r}")
        if self.parent_link is not None and not gtree.has_node(self.parent_link):
            problems.append(f"unknown parent-link node {self.parent_link!r}")
        return problems

    def __repr__(self) -> str:
        return (
            f"EntityClassifier({self.name!r}: {self.form} -> "
            f"{self.target_entity} WHERE {self.condition.to_source()})"
        )
