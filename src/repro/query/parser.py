"""Parser for the SPARQL subset used throughout the paper.

Grammar (case-insensitive keywords)::

    query       := prefix* "select" "distinct"? projection "where" "{" pattern+ "}"
    prefix      := "prefix" PNAME ":" IRIREF
    projection  := "*" | var (","? var)*
    pattern     := term predicate term "."?
    term        := var | IRIREF | PNAME | literal
    predicate   := IRIREF | PNAME | "a"
    var         := "?" NAME
    literal     := '"' chars '"' | integer

Prefixed names (``:A``, ``yago:actedIn``) expand against declared
prefixes; an undeclared prefix keeps the name as written (the paper's
queries use a bare default ``:`` prefix, which we keep as the plain
local name — so ``:A`` parses to the label ``A``). As in SPARQL's
``PN_LOCAL``, the local part may itself contain ``:`` (``ns:a:b`` is
prefix ``ns``, local ``a:b``). ``a`` expands to ``rdf:type``.
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.query.model import ConjunctiveQuery, Const, Var

_RDF_TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>[{}.,;*])
  | (?P<pname>[A-Za-z_][A-Za-z0-9_\-]*)?:(?P<local>[A-Za-z0-9_\-.:]*)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_\-]*)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "pos", "prefix")

    def __init__(self, kind: str, value: str, pos: int, prefix: str | None = None):
        self.kind = kind
        self.value = value
        self.pos = pos
        self.prefix = prefix

    def __repr__(self) -> str:
        return f"_Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws" and match.group("ws") is None:
            if match.group("iri") is not None:
                tokens.append(_Token("iri", match.group("iri"), pos))
            elif match.group("var") is not None:
                tokens.append(_Token("var", match.group("var")[1:], pos))
            elif match.group("string") is not None:
                tokens.append(_Token("string", match.group("string"), pos))
            elif match.group("punct") is not None:
                tokens.append(_Token("punct", match.group("punct"), pos))
            elif match.group("local") is not None and ":" in match.group(0):
                tokens.append(
                    _Token(
                        "pname",
                        match.group("local"),
                        pos,
                        prefix=match.group("pname") or "",
                    )
                )
            elif match.group("number") is not None:
                tokens.append(_Token("number", match.group("number"), pos))
            elif match.group("word") is not None:
                tokens.append(_Token("word", match.group("word"), pos))
        pos = match.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        token = self.tokens[self.i]
        if token.kind != "eof":
            self.i += 1
        return token

    def expect_word(self, word: str) -> None:
        token = self.advance()
        if token.kind != "word" or token.value.lower() != word:
            raise ParseError(f"expected {word!r}, got {token.value!r}", token.pos)

    def expect_punct(self, punct: str) -> None:
        token = self.advance()
        if token.kind != "punct" or token.value != punct:
            raise ParseError(f"expected {punct!r}, got {token.value!r}", token.pos)

    def at_word(self, word: str) -> bool:
        token = self.current
        return token.kind == "word" and token.value.lower() == word

    def at_punct(self, punct: str) -> bool:
        token = self.current
        return token.kind == "punct" and token.value == punct

    # ------------------------------------------------------------------

    def parse(self) -> ConjunctiveQuery:
        prefixes = self._parse_prefixes()
        self.expect_word("select")
        distinct = False
        if self.at_word("distinct"):
            self.advance()
            distinct = True
        projection = self._parse_projection()
        self.expect_word("where")
        self.expect_punct("{")
        edges = self._parse_patterns(prefixes)
        self.expect_punct("}")
        if self.current.kind != "eof":
            raise ParseError(
                f"unexpected trailing content {self.current.value!r}",
                self.current.pos,
            )
        return ConjunctiveQuery(
            edges, projection=projection or None, distinct=distinct
        )

    def _parse_prefixes(self) -> dict[str, str]:
        prefixes: dict[str, str] = {}
        while self.at_word("prefix"):
            self.advance()
            token = self.advance()
            if token.kind != "pname" or token.value != "":
                raise ParseError("expected 'name:' after PREFIX", token.pos)
            prefix_name = token.prefix or ""
            iri = self.advance()
            if iri.kind != "iri":
                raise ParseError("expected IRI after prefix name", iri.pos)
            prefixes[prefix_name] = iri.value[1:-1]
        return prefixes

    def _parse_projection(self) -> list[str]:
        if self.at_punct("*"):
            self.advance()
            return []
        projection = []
        while True:
            token = self.current
            if token.kind == "var":
                projection.append("?" + token.value)
                self.advance()
                if self.at_punct(","):
                    self.advance()
            else:
                break
        if not projection:
            raise ParseError("projection must list variables or be *", self.current.pos)
        return projection

    def _parse_patterns(self, prefixes: dict[str, str]) -> list[tuple]:
        edges = []
        while not self.at_punct("}"):
            subject = self._parse_term(prefixes)
            predicate = self._parse_predicate(prefixes)
            obj = self._parse_term(prefixes)
            if self.at_punct("."):
                self.advance()
            edges.append((subject, predicate, obj))
            if self.current.kind == "eof":
                raise ParseError("unterminated group pattern (missing '}')",
                                 self.current.pos)
        if not edges:
            raise ParseError("empty group pattern", self.current.pos)
        return edges

    def _expand_pname(self, token: _Token, prefixes: dict[str, str]) -> str:
        base = prefixes.get(token.prefix or "")
        if base is None:
            # Undeclared prefix: keep the local name as the plain label
            # (the paper's ``:A`` style), or prefix:local verbatim.
            if token.prefix:
                return f"{token.prefix}:{token.value}"
            return token.value
        return f"<{base}{token.value}>"

    def _parse_term(self, prefixes: dict[str, str]):
        token = self.advance()
        if token.kind == "var":
            return Var(token.value)
        if token.kind == "iri":
            return Const(token.value)
        if token.kind == "pname":
            return Const(self._expand_pname(token, prefixes))
        if token.kind == "string":
            return Const(token.value)
        if token.kind == "number":
            return Const(token.value)
        if token.kind == "word":
            # Bare-word ground terms, matching the bare-label predicate
            # style used throughout the paper's examples.
            return Const(token.value)
        raise ParseError(f"expected a term, got {token.value!r}", token.pos)

    def _parse_predicate(self, prefixes: dict[str, str]) -> str:
        token = self.advance()
        if token.kind == "iri":
            return token.value
        if token.kind == "pname":
            return self._expand_pname(token, prefixes)
        if token.kind == "word":
            if token.value == "a":
                return _RDF_TYPE
            return token.value
        raise ParseError(f"expected a predicate, got {token.value!r}", token.pos)


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse SPARQL CQ text into a :class:`ConjunctiveQuery`.

    >>> q = parse_query("select ?w, ?x where { ?w :A ?x . ?x :B ?y . }")
    >>> [str(v) for v in q.projection]
    ['?w', '?x']
    >>> q.edges[0].predicate
    'A'
    """
    return _Parser(text).parse()


#: Historical name for :func:`parse_query`; the top-level facade
#: (``repro.parse_sparql``) additionally emits a ``DeprecationWarning``.
parse_sparql = parse_query
