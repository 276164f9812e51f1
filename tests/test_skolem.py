import itertools

import pytest

import hyperq as hq
from hyperq.formula import BoolProp, SkolemRef, atoms_of, parse_formula
from hyperq.robustness import Trace, Label
from hyperq.skolem import (
    MissingWitnessError,
    NotClosedError,
    WitnessLengthError,
    WitnessTable,
    check_consistency,
    dependency_sets,
    skolemize,
    trace_text,
    witness_key,
)


def prefix_formula(kinds):
    names = " ".join(f"{k} t{i + 1}." for i, k in enumerate(kinds))
    body = " & ".join(f"p@t{i + 1}" for i in range(len(kinds)))
    return parse_formula(f"{names} {body}")


def test_dependency_sets_forall_exists():
    assert dependency_sets(prefix_formula(["forall", "exists"])) == {2: [1]}


def test_dependency_sets_universal_only():
    assert dependency_sets(prefix_formula(["forall", "forall"])) == {}


def test_dependency_sets_exists_forall_exists():
    assert dependency_sets(prefix_formula(["exists", "forall", "exists"])) == {1: [], 3: [2]}


def test_dependency_sets_exhaustive_short_prefixes():
    for n in range(1, 5):
        for kinds in itertools.product(["forall", "exists"], repeat=n):
            got = dependency_sets(prefix_formula(kinds))
            expected = {
                i + 1: [j + 1 for j in range(i) if kinds[j] == "forall"]
                for i in range(n) if kinds[i] == "exists"
            }
            assert got == expected, kinds


def test_dependency_sets_requires_closed():
    f = parse_formula("forall t1. p@t1")
    broken = hq.Formula(f.prefix, BoolProp("p", hq.TraceVar("t9", 9)))
    with pytest.raises(NotClosedError):
        dependency_sets(broken)


def test_skolemize_rescue_structure():
    f = hq.load_formula(hq.bundled("formulas/rescue.hltl"))
    sk = skolemize(f)
    assert len(sk.decls) == 1
    assert sk.decls[0].exist_index == 2
    assert sk.decls[0].deps == (1,)
    assert [v.name for v in sk.universal_vars] == ["t1"]
    # every atom over the existential variable is retagged, the rest untouched
    for atom in atoms_of(sk.body):
        targets = (atom.trace,) if isinstance(atom, BoolProp) else atom.args
        for t in targets:
            if t.index == 2:
                assert isinstance(t, SkolemRef)
            else:
                assert not isinstance(t, SkolemRef)


def test_skolemize_universal_identity():
    f = parse_formula("forall t1. forall t2. F p@t1 & G q@t2")
    sk = skolemize(f)
    assert sk.decls == ()
    assert sk.body == f.body
    assert len(sk.universal_vars) == 2


def test_skolemize_leading_existential_constant_function():
    f = parse_formula("exists t1. F p@t1")
    sk = skolemize(f)
    assert len(sk.decls) == 1
    assert sk.decls[0].deps == ()
    assert sk.universal_vars == ()


def test_skolemize_preserves_atom_count_and_quantifiers():
    for text in (
        "forall t1. exists t2. F p@t1 & (q@t2 U p@t2)",
        "exists t1. forall t2. exists t3. (p@t1 | q@t2) & F r@t3",
    ):
        f = parse_formula(text)
        sk = skolemize(f)
        assert len(list(atoms_of(sk.body))) == len(list(atoms_of(f.body)))
        assert len(sk.decls) + len(sk.universal_vars) == len(f.prefix)
        for d in sk.decls:
            assert list(d.deps) == sorted(d.deps)
            assert all(j < d.exist_index for j in d.deps)


def _trace(*prop_sets):
    return Trace(tuple(Label(frozenset(ps), {}) for ps in prop_sets))


def test_check_consistency_matching_entry():
    univ = _trace({"p"}, set())
    exist = _trace({"q"}, {"q"})
    table = WitnessTable(2, (1,))
    table.entries[witness_key((univ,))] = (trace_text(exist), ("a", "a"))
    assert table.entries == {("p |;|",): ("q |;q |", ("a", "a"))}
    assert check_consistency([univ, exist], [table]) is True


def test_check_consistency_detects_divergence():
    univ = _trace({"p"}, set())
    exist = _trace({"q"}, {"q"})
    other = _trace({"q"}, set())
    table = WitnessTable(2, (1,))
    table.entries[witness_key((univ,))] = (trace_text(exist), ())
    assert check_consistency([univ, other], [table]) is False


def test_check_consistency_vacuous_without_existentials():
    assert check_consistency([_trace({"p"}), _trace(set())], []) is True


def test_check_consistency_missing_entry():
    table = WitnessTable(2, (1,))
    with pytest.raises(MissingWitnessError):
        check_consistency([_trace({"p"}), _trace({"q"})], [table])


@pytest.mark.parametrize("exist_index,deps", [(0, ()), (2, (0,)), (2, (3,)), (3, (1,)),
                                              (-1, ()), (2, (-1,))])
def test_check_consistency_positions_outside_the_prefix(exist_index, deps):
    # every entry a key could name is present, so only the range check can fail
    texts = ("p |", "q |")
    table = WitnessTable(exist_index, deps)
    for key in itertools.product(texts, repeat=len(deps)):
        table.entries[key] = ("q |", ())
    with pytest.raises(MissingWitnessError, match="outside 1..2"):
        check_consistency([_trace({"p"}), _trace({"q"})], [table])


def test_check_consistency_rejects_ragged_lengths():
    table = WitnessTable(2, (1,))
    with pytest.raises(WitnessLengthError):
        check_consistency([_trace({"p"}), _trace({"q"}, {"q"})], [table])


def test_check_consistency_ignores_zero_signs():
    # witness tables hold text, which prints -0.0 as 0, so a run whose
    # existential trace reads -0.0 still matches a witness recorded with 0.0
    univ = _trace({"p"})
    exist = Trace((Label(frozenset(), {"v": -0.0}),))
    recorded = Trace((Label(frozenset(), {"v": 0.0}),))
    assert recorded != exist
    table = WitnessTable(2, (1,))
    table.entries[witness_key((univ,))] = (trace_text(recorded), ())
    assert check_consistency([univ, exist], [table]) is True
