"""Tests for the SPARQL-subset parser."""

import pytest

from repro.errors import ParseError
from repro.query.model import ConjunctiveQuery, Const, Var
from repro.query.parser import parse_sparql

from tests.properties.strategies import LABELS, PHASE2_SHAPES


def test_paper_figure1_query():
    q = parse_sparql(
        "select ?w, ?x, ?y, ?z where { ?w :A ?x . ?x :B ?y . ?y :C ?z . }"
    )
    assert len(q.edges) == 3
    assert [e.predicate for e in q.edges] == ["A", "B", "C"]
    assert q.projection == (Var("w"), Var("x"), Var("y"), Var("z"))
    assert not q.distinct


def test_select_distinct():
    q = parse_sparql("select distinct ?x where { ?x p ?y }")
    assert q.distinct


def test_select_star():
    q = parse_sparql("select * where { ?a p ?b . ?b q ?c }")
    assert q.projection == (Var("a"), Var("b"), Var("c"))


def test_keywords_case_insensitive():
    q = parse_sparql("SELECT DISTINCT ?x WHERE { ?x p ?y }")
    assert q.distinct


def test_projection_without_commas():
    q = parse_sparql("select ?a ?b where { ?a p ?b }")
    assert q.projection == (Var("a"), Var("b"))


def test_iri_predicate_and_terms():
    q = parse_sparql("select ?x where { <http://s> <http://p> ?x . }")
    assert q.edges[0].subject == Const("<http://s>")
    assert q.edges[0].predicate == "<http://p>"


def test_prefix_expansion():
    q = parse_sparql(
        "prefix yago: <http://yago/> select ?x where { ?x yago:actedIn ?m }"
    )
    assert q.edges[0].predicate == "<http://yago/actedIn>"


def test_default_prefix_expansion():
    q = parse_sparql("prefix : <http://d/> select ?x where { ?x :p ?y }")
    assert q.edges[0].predicate == "<http://d/p>"


def test_undeclared_default_prefix_keeps_local_name():
    q = parse_sparql("select ?x where { ?x :actedIn ?m }")
    assert q.edges[0].predicate == "actedIn"


def test_undeclared_named_prefix_kept_verbatim():
    q = parse_sparql("select ?x where { ?x owl:sameAs ?y }")
    assert q.edges[0].predicate == "owl:sameAs"


def test_a_expands_to_rdf_type():
    q = parse_sparql("select ?x where { ?x a ?c }")
    assert "rdf-syntax-ns#type" in q.edges[0].predicate


def test_bare_word_predicate():
    q = parse_sparql("select ?x where { ?x actedIn ?m }")
    assert q.edges[0].predicate == "actedIn"


def test_literal_object():
    q = parse_sparql('select ?x where { ?x name "Alice" }')
    assert q.edges[0].object == Const('"Alice"')


def test_numeric_object():
    q = parse_sparql("select ?x where { ?x age 42 }")
    assert q.edges[0].object == Const("42")


def test_optional_trailing_dot():
    q = parse_sparql("select ?x where { ?x p ?y . ?y q ?z }")
    assert len(q.edges) == 2


#: How a shape's node constants are spelled: as the property suites
#: write them, and as prefixed names whose local part holds more colons
#: (the benchmark fixture's planted ``witness:wD2:z`` nodes).
CONSTANT_SPELLINGS = {
    "plain": {"n0": "n0", "n1": "n1"},
    "two-colon": {"n0": "witness:wD2:z", "n1": "ns:a:b:c"},
}


@pytest.mark.parametrize("spelling", CONSTANT_SPELLINGS.values(),
                         ids=CONSTANT_SPELLINGS.keys())
@pytest.mark.parametrize("shape", PHASE2_SHAPES.values(),
                         ids=PHASE2_SHAPES.keys())
def test_to_sparql_round_trips(shape, spelling):
    query = ConjunctiveQuery([
        (spelling.get(s, s), LABELS[slot], spelling.get(o, o))
        for s, slot, o in shape
    ])
    assert parse_sparql(query.to_sparql()) == query


def test_colons_in_local_part():
    q = parse_sparql(
        "prefix w: <http://w/> select ?x where { ?x p w:a:b . ?x q u:c:d. }"
    )
    assert q.edges[0].object == Const("<http://w/a:b>")
    # A '.' directly after a prefixed name still belongs to its local
    # part; to_sparql() always writes the separating space.
    assert q.edges[1].object == Const("u:c:d.")


def test_comments_ignored():
    q = parse_sparql("select ?x where { ?x p ?y . # inline comment\n }")
    assert len(q.edges) == 1


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "select where { ?x p ?y }",
        "select ?x { ?x p ?y }",
        "select ?x where { }",
        "select ?x where { ?x p ?y",
        "select ?x where { ?x p ?y } trailing",
        "select ?x where { ?x ?p ?y }",  # variable predicates unsupported
        "select * where { p }",
    ],
)
def test_malformed_queries_raise(bad):
    with pytest.raises(ParseError):
        parse_sparql(bad)


def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_sparql("select ?x where { ?x p ?y } extra")
    assert "offset" in str(exc.value)


def test_multiline_query():
    q = parse_sparql(
        """
        select distinct ?x, ?m, ?y
        where {
            ?x linksTo ?m .
            ?x isAffiliatedTo ?y .
        }
        """
    )
    assert len(q.edges) == 2
    assert q.distinct
