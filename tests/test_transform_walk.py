"""The one-walk AST+ transformation against the tree it describes.

:func:`repro.core.transform.transform_statement` computes a statement's
name paths, structural key and original identifiers in one walk over
the parsed tree, without building the transformed tree.  The tree
construction behind :attr:`AstPlusStatement.root` stays as the reference
these tests compare the walk with; production code never calls it.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.analysis.origins import compute_origins
from repro.core import transform
from repro.core.namepath import extract_name_paths
from repro.core.persistence import load_namer, save_namer
from repro.core.prepare import PrepareError, prepare_file_checked
from repro.core.transform import AstPlusStatement, TransformConfig, transform_statement
from repro.lang import parse_source
from repro.lang.astir import StatementAst, node, terminal
from repro.lang.python_frontend import parse_statement
from tests import goldens as g

CONFIGS = {
    "origins": TransformConfig(),
    "no-origins": TransformConfig(use_origins=False),
    "max-subtokens-2": TransformConfig(max_subtokens=2),
}


def assert_walk_matches_tree(stmt: AstPlusStatement) -> None:
    """Paths, key and originals of the walk equal the built tree's."""
    tree = stmt.root
    assert stmt.name_paths == extract_name_paths(tree)
    assert stmt.structural_key() == tree.structural_key()
    leaves = list(tree.terminals())
    assert len(stmt.originals) == len(leaves)
    for leaf, original in zip(leaves, stmt.originals):
        assert original == leaf.meta.get("original")
        # only identifier subtokens carry an original
        assert (original is None) == ("st_index" not in leaf.meta)
    for cut in range(len(leaves) + 2):
        assert extract_name_paths(stmt, max_paths=cut) == extract_name_paths(
            tree, max_paths=cut
        )


# ----------------------------------------------------------------------
# Differential: every statement of both golden corpora
# ----------------------------------------------------------------------


@pytest.mark.parametrize("language", g.LANGUAGES)
def test_walk_equals_tree_on_golden_corpus(language):
    statements = decorated = 0
    for repo, source in g.corpus(language).files():
        try:
            module = parse_source(
                source.source, source.language, source.path, repo.name
            )
        except ValueError:
            continue
        envs = compute_origins(module).per_statement  # k=5, the default
        for stmt, env in zip(module.statements, envs):
            with_origins = transform_statement(stmt, env, CONFIGS["origins"])
            assert_walk_matches_tree(with_origins)
            assert_walk_matches_tree(
                transform_statement(stmt, env, CONFIGS["no-origins"])
            )
            statements += 1
            decorated += bool(with_origins.origins)
    assert statements > 500
    assert decorated > 50  # the origin step is exercised, not just skipped


# ----------------------------------------------------------------------
# Hand-built cases
# ----------------------------------------------------------------------


def ident(name: str, role: str = "object"):
    leaf = terminal("Ident", name)
    leaf.meta["role"] = role
    return leaf


def load(name: str, role: str = "object"):
    return node("NameLoad", ident(name, role))


ENV = {"self": "TestCase", "f": "module", "g": "G", "x": "Foo", "a": "int"}

HAND_BUILT = {
    "over-max-subtokens": node(
        "Assign", node("NameStore", ident("a_b_c_d_e")), load("x")
    ),
    "underscore-only": node("Assign", node("NameStore", ident("_")), load("__")),
    "num": node("Assign", node("NameStore", ident("x")), node("Num", terminal("NumLit", "90"))),
    "str": node("Return", node("Str", terminal("StrLit", "s"))),
    "bool": node("Bool", terminal("BoolLit", "True")),
    "Call": node("Call", load("f", "func"), load("x"), node("Num", terminal("NumLit", "1"))),
    "FunctionDef": node(
        "FunctionDef",
        node("FuncDefName", ident("f", "func")),
        node("Params", node("Param", ident("a", "param")), node("Param", ident("b", "param"))),
    ),
    "MethodDecl": node(
        "MethodDecl",
        node("MethodDeclName", ident("run", "func")),
        node("ReturnType", ident("void", "type")),
        node("Params"),
    ),
    "MethodCall": node(
        "MethodCall",
        node("AttributeLoad", load("x"), node("Attr", ident("go", "func"))),
        load("a"),
    ),
    "MethodCall-under-receiver": node(
        "Call",
        node("AttributeLoad", load("self"), node("MethodCall", node("Attr", ident("f", "func")))),
    ),
    "New": node("New", load("Foo"), load("a")),
    "self.f()": parse_statement("self.f()").root,
    "f()": parse_statement("f()").root,
    "g().f()": parse_statement("g().f()").root,
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_walk_equals_tree_on_hand_built_case(case, config):
    stmt = StatementAst(root=HAND_BUILT[case], source=case)
    assert_walk_matches_tree(transform_statement(stmt, ENV, CONFIGS[config]))


def rendered(source: str) -> list[str]:
    stmt = transform_statement(parse_statement(source), ENV)
    return [str(p) for p in stmt.name_paths]


class TestReceivers:
    def test_attribute_call_takes_the_receiver_origin(self):
        assert rendered("self.f()") == [
            "NumArgs(0) 0 Call 0 AttributeLoad 0 NameLoad 0 NumST(1) 0 TestCase 0 self",
            "NumArgs(0) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 TestCase 0 f",
        ]

    def test_plain_call_takes_the_function_origin(self):
        assert rendered("f()") == ["NumArgs(0) 0 Call 0 NameLoad 0 NumST(1) 0 module 0 f"]

    def test_call_through_an_expression_has_no_receiver(self):
        assert rendered("g().f()") == [
            "NumArgs(0) 0 Call 0 AttributeLoad 0 NumArgs(0) 0 Call 0 NameLoad 0 NumST(1) 0 G 0 g",
            "NumArgs(0) 0 Call 0 AttributeLoad 1 Attr 0 NumST(1) 0 f",
        ]

    def test_walk_records_only_the_origins_it_used(self):
        stmt = transform_statement(parse_statement("g().f()"), ENV)
        assert stmt.origins == {"g": "G"}


class TestOriginals:
    def test_long_identifier_kept_whole(self):
        stmt = transform_statement(
            parse_statement("a_b_c_d = 1"), {}, TransformConfig(max_subtokens=2)
        )
        assert [str(p) for p in stmt.name_paths][0].endswith("NumST(1) 0 a_b_c_d")
        assert stmt.originals == ["a_b_c_d", None]

    def test_original_of_each_subtoken(self):
        stmt = transform_statement(parse_statement("self.assertTrue(x, 90)"), ENV)
        by_end = {p.end: stmt.original_of(p.prefix) for p in stmt.name_paths}
        assert by_end == {
            "self": "self",
            "assert": "assertTrue",
            "True": "assertTrue",
            "x": "x",
            "NUM": None,
        }

    def test_unknown_prefix_has_no_original(self):
        stmt = transform_statement(parse_statement("x = 1"), ENV)
        assert stmt.original_of(stmt.name_paths[0].prefix[:-1]) is None


# ----------------------------------------------------------------------
# Pickles carry the walk and the parsed root, never the built tree
# ----------------------------------------------------------------------


class TestPickle:
    def test_round_trip_keeps_walk_results(self):
        stmt = transform_statement(
            parse_statement("self.assertTrue(picture.rotate_angle, 90)"), ENV
        )
        built_key = stmt.root.structural_key()  # the dropped tree exists
        payload = pickle.dumps(stmt)
        restored = pickle.loads(payload)
        assert isinstance(restored, AstPlusStatement)
        assert "_root" not in restored.__dict__
        # every node built for a name or literal is a SubToken
        assert b"SubToken" not in payload
        assert restored.name_paths == stmt.name_paths
        assert restored.structural_key() == stmt.structural_key() == built_key
        assert restored.originals == stmt.originals
        assert restored == stmt  # the rebuilt tree equals the dropped one

    def test_parsed_root_is_shared_with_the_module(self):
        module = parse_source("x = f(1)\ny = x.g()\n", "python", "m.py", "r")
        stmts = [transform_statement(s) for s in module.statements]
        restored_module, restored = pickle.loads(pickle.dumps((module, stmts)))
        for parsed, stmt in zip(restored_module.statements, restored):
            assert stmt.parsed_root is parsed.root


# ----------------------------------------------------------------------
# Production never builds the tree
# ----------------------------------------------------------------------


def _refuse(self, n, receiver):
    raise AssertionError("the AST+ tree was built on a production path")


@pytest.mark.parametrize("language", g.LANGUAGES)
def test_production_never_builds_the_tree(language, monkeypatch, tmp_path):
    monkeypatch.setattr(transform._Transformer, "rewrite", _refuse)
    namer = g.train(g.mine(language), language)  # mine, all_violations, train
    assert namer.all_violations()
    save_namer(namer, tmp_path / "namer.json")
    loaded = load_namer(tmp_path / "namer.json")
    prepared = []
    for repo, source in g.corpus(language).files():
        try:
            prepared.append(prepare_file_checked(source, repo=repo.name))
        except PrepareError:
            pass
    rows = [[r.to_json() for r in group] for group in loaded.detect_many(prepared)]
    assert sum(map(len, rows)) > 0

    monkeypatch.undo()
    assert rows == loaded.detect_many_rows(prepared)
    digests = {
        pf.path: g.sha256(json.dumps(file_rows, separators=(",", ":")))
        for pf, file_rows in zip(prepared, rows)
    }
    assert digests == g.load_goldens()[language]["reports"]
