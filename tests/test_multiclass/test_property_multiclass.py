"""Property-based tests for MultiClass (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DomainError
from repro.multiclass import (
    Classifier,
    Domain,
    Rule,
    format_classifier,
    parse_classifier,
)
from repro.multiclass.cleaning import CleaningRule, Quarantine, apply_rules

# -- strategies -----------------------------------------------------------------

_categories = ("None", "Light", "Moderate", "Heavy")


def _cutoffs():
    return st.lists(
        st.floats(min_value=0.125, max_value=10, allow_nan=False, width=32),
        min_size=3,
        max_size=3,
        unique=True,
    ).map(sorted)


def _threshold_classifier(cutoffs):
    low, mid, high = cutoffs
    return Classifier(
        name="habits_prop",
        target_entity="Procedure",
        target_attribute="Smoking",
        target_domain="habits",
        rules=[
            Rule.of("'None'", "packs = 0"),
            Rule.of("'Light'", f"packs > 0 AND packs < {low}"),
            Rule.of("'Moderate'", f"packs >= {low} AND packs < {mid}"),
            Rule.of("'Heavy'", f"packs >= {mid}"),
        ],
    )


_packs = st.one_of(
    st.floats(min_value=0, max_value=20, allow_nan=False, width=32),
    st.just(0),
    st.none(),
)


class TestClassifierProperties:
    @given(_cutoffs(), _packs)
    @settings(max_examples=200)
    def test_total_on_answered_inputs(self, cutoffs, packs):
        """Threshold classifiers classify every non-NULL input."""
        classifier = _threshold_classifier(cutoffs)
        domain = Domain.categorical("habits", list(_categories))
        label = classifier.classify({"packs": packs}, domain)
        if packs is None:
            assert label is None
        else:
            assert label in _categories

    @given(_cutoffs(), _packs)
    @settings(max_examples=200)
    def test_deterministic(self, cutoffs, packs):
        classifier = _threshold_classifier(cutoffs)
        env = {"packs": packs}
        assert classifier.classify(env) == classifier.classify(env)

    @given(_cutoffs(), st.floats(min_value=0.01, max_value=20, allow_nan=False))
    @settings(max_examples=200)
    def test_monotone_in_input(self, cutoffs, packs):
        """More packs never yields a *lighter* category."""
        classifier = _threshold_classifier(cutoffs)
        rank = {c: i for i, c in enumerate(_categories)}
        lighter = classifier.classify({"packs": packs})
        heavier = classifier.classify({"packs": packs * 1.5 + 0.01})
        assert rank[heavier] >= rank[lighter]

    @given(_cutoffs())
    @settings(max_examples=100)
    def test_language_roundtrip(self, cutoffs):
        classifier = _threshold_classifier(cutoffs)
        again = parse_classifier(format_classifier(classifier))
        assert again.rules == classifier.rules
        assert again.target == classifier.target

    @given(_cutoffs())
    @settings(max_examples=100)
    def test_guards_are_ucq(self, cutoffs):
        assert _threshold_classifier(cutoffs).is_union_of_conjunctions()


_rows = st.lists(
    st.fixed_dictionaries(
        {"a": st.one_of(st.integers(-5, 5), st.none()), "b": st.booleans()}
    ),
    max_size=20,
)


class TestCleaningProperties:
    @given(_rows, st.integers(-5, 5))
    @settings(max_examples=150)
    def test_kept_plus_quarantined_is_total(self, rows, cutoff):
        quarantine = Quarantine()
        rules = [CleaningRule.of("r", f"a >= {cutoff}")]
        kept = apply_rules(rules, list(rows), "s", "record", quarantine)
        assert len(kept) + len(quarantine) == len(rows)

    @given(_rows, st.integers(-5, 5))
    @settings(max_examples=150)
    def test_idempotent(self, rows, cutoff):
        rules = [CleaningRule.of("r", f"a >= {cutoff}")]
        first = apply_rules(rules, list(rows), "s", "record", Quarantine())
        second = apply_rules(rules, list(first), "s", "record", Quarantine())
        assert first == second

    @given(_rows)
    @settings(max_examples=100)
    def test_null_never_discarded(self, rows):
        """An unanswered value must not satisfy a discard condition."""
        rules = [CleaningRule.of("r", "a > 0")]
        quarantine = Quarantine()
        kept = apply_rules(rules, list(rows), "s", "record", quarantine)
        null_rows = [row for row in rows if row["a"] is None]
        assert all(row in kept for row in null_rows)


# -- compiled kernel ≡ classify -------------------------------------------------

_NAN = float("nan")

# Look-alikes on purpose: True/1/1.0 and False/0/0.0/-0.0 compare equal in
# Python, NaN equals nothing, and a list cannot be hashed.
_node_values = st.sampled_from(
    [None, True, False, 0, 1, 2, 0.0, -0.0, 1.0, 0.5, _NAN, "0", "Light", [1]]
)

# ``c`` is also the leaf of the dotted keys, so rows without a plain ``c``
# resolve it by suffix (or fail as unknown or ambiguous).
_ENV_KEYS = ("a", "b", "c", "g.c", "h.c")
# Mostly ``a``, so rules often read one name every row carries.
_REFERENCED = ("a", "a", "a", "b", "c", "g.c")
_LITERALS = ("0", "1", "0.0", "-0.0", "0.5", "TRUE", "FALSE", "NULL", "'Light'")


@st.composite
def _guards(draw, depth=2):
    name = draw(st.sampled_from(_REFERENCED))
    kind = draw(st.integers(0, 5 if depth else 3))
    if kind == 0:
        op = draw(st.sampled_from(["=", "!=", "<", ">="]))
        return f"{name} {op} {draw(st.sampled_from(_LITERALS))}"
    if kind == 1:
        return f"{name} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    if kind == 2:
        items = draw(st.lists(st.sampled_from(_LITERALS), min_size=1, max_size=3))
        return f"{name} IN ({', '.join(items)})"
    if kind == 3:
        return draw(st.sampled_from(["TRUE", "FALSE", "NULL", name]))
    left, right = draw(_guards(depth - 1)), draw(_guards(depth - 1))
    if kind == 4:
        return f"({left}) {draw(st.sampled_from(['AND', 'OR']))} ({right})"
    return f"NOT ({left})"


_outputs = st.one_of(
    st.sampled_from(_REFERENCED),
    st.sampled_from(_LITERALS),
    st.sampled_from(["'None'", "'Light'", "a + 1", "-b", "COALESCE(c, a)"]),
)

_domains = st.sampled_from(
    [
        None,
        Domain.categorical("habits", list(_categories)),
        Domain.boolean("flag"),
        Domain.integer("small", minimum=-1, maximum=1),
        Domain.real("ratio", minimum=0, maximum=1),
        Domain.text("free"),
    ]
)



@st.composite
def _envs(draw):
    """Rows sharing one key set, so equal-comparing inputs meet in a memo."""
    keys = draw(st.sets(st.sampled_from(_ENV_KEYS))) | {"a"}
    row = st.fixed_dictionaries({key: _node_values for key in sorted(keys)})
    return draw(st.lists(row, min_size=1, max_size=8))


def _result(fn):
    """(\"ok\", type, repr) or (\"err\", type, message): exact on both sides."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - parity covers every error
        return ("err", type(exc), str(exc))
    return ("ok", type(value), repr(value))


def _assert_kernel_matches(classifier, domain, envs):
    kernel = classifier.compile(domain)
    for env in envs:
        expected = _result(lambda: classifier.classify(env, domain))
        assert _result(lambda: kernel(env)) == expected, env


class TestCompiledKernelProperties:
    @given(
        st.lists(st.tuples(_outputs, _guards()), min_size=1, max_size=3),
        _domains,
        _envs(),
    )
    @settings(max_examples=200)
    def test_kernel_matches_classify(self, rules, domain, envs):
        classifier = Classifier(
            name="random",
            target_entity="Procedure",
            target_attribute="Smoking",
            target_domain="any",
            rules=[Rule.of(output, guard) for output, guard in rules],
        )
        _assert_kernel_matches(classifier, domain, envs)

    @given(_cutoffs(), st.lists(_node_values, min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_kernel_matches_classify_on_thresholds(self, cutoffs, packs):
        classifier = _threshold_classifier(cutoffs)
        domain = Domain.categorical("habits", list(_categories))
        _assert_kernel_matches(classifier, domain, [{"packs": p} for p in packs])

    def test_equal_comparing_inputs_do_not_share_an_answer(self):
        # True succeeds in a boolean domain; the equal-comparing 1 and 1.0
        # that follow must still raise, and -0.0 must keep its sign.
        classifier = Classifier(
            name="echo",
            target_entity="Procedure",
            target_attribute="Hypoxia",
            target_domain="flag",
            rules=[Rule.of("x", "x IS NOT NULL")],
        )
        flag = Domain.boolean("flag")
        envs = [{"x": True}, {"x": 1}, {"x": 1.0}, {"x": True}]
        _assert_kernel_matches(classifier, flag, envs)
        kernel = classifier.compile(flag)
        assert kernel({"x": True}) is True
        for value in (1, 1.0):
            with pytest.raises(DomainError, match="outside domain 'flag'"):
                kernel({"x": value})
        plain = classifier.compile()
        assert [repr(plain({"x": v})) for v in (0.0, -0.0, 0, False)] == [
            "0.0",
            "-0.0",
            "0",
            "False",
        ]

    def test_errors_are_not_memoized(self):
        classifier = Classifier(
            name="bounded",
            target_entity="Procedure",
            target_attribute="Packs",
            target_domain="small",
            rules=[Rule.of("x", "TRUE")],
        )
        kernel = classifier.compile(Domain.integer("small", minimum=0, maximum=1))
        for _ in range(2):
            with pytest.raises(DomainError, match="value 5 is outside"):
                kernel({"x": 5})
        assert kernel({"x": 1}) == 1
