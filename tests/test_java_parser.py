"""Tests for the Java parser and frontend."""

import time

import pytest

from repro.core.prepare import PrepareError, prepare_file_checked
from repro.corpus.model import SourceFile
from repro.lang.java.frontend import JavaFrontendError, parse_java


def statements_of(source):
    return parse_java(source).statements


def wrap(body: str) -> str:
    return f"public class T {{\n    public void m() {{\n{body}\n    }}\n}}"


class TestDeclarations:
    def test_class_with_extends_implements(self):
        module = parse_java(
            "public class A extends B implements C, D { }"
        )
        header = module.statements[0].root
        assert header.kind == "ClassDecl"
        bases = next(c for c in header.children if c.kind == "Bases")
        names = [b.children[0].value for b in bases.children]
        assert names == ["B", "C", "D"]

    def test_interface(self):
        module = parse_java("interface I { void m(); }")
        kinds = [s.root.kind for s in module.statements]
        assert kinds == ["ClassDecl", "MethodDecl"]

    def test_enum_constants_skipped(self):
        module = parse_java("enum E { A, B, C; public void m() { } }")
        assert [s.root.kind for s in module.statements] == ["ClassDecl", "MethodDecl"]

    def test_constructor_named_init(self):
        module = parse_java("class A { A(int x) { this.x = x; } }")
        method = module.statements[1].root
        assert method.kind == "MethodDecl"
        assert method.children[0].children[0].value == "__init__"

    def test_field_with_initializer(self):
        module = parse_java("class A { private int count = 0; }")
        decl = module.statements[1].root
        assert decl.kind == "FieldDecl"
        assert decl.children[0].children[0].value == "int"

    def test_generic_method_signature(self):
        module = parse_java(
            "class A { public List<Map<String, Integer>> get() { return null; } }"
        )
        assert any(s.root.kind == "MethodDecl" for s in module.statements)

    def test_varargs_params(self):
        module = parse_java("class A { void m(String... parts) { } }")
        method = module.statements[1].root
        params = next(c for c in method.children if c.kind == "Params")
        assert len(params.children) == 1

    def test_throws_clause(self):
        module = parse_java("class A { void m() throws IOException { } }")
        method = module.statements[1].root
        assert any(c.kind == "Throws" for c in method.children)

    def test_annotations_skipped(self):
        module = parse_java('@Override @SuppressWarnings("x") class A { }')
        assert module.statements[0].root.kind == "ClassDecl"

    def test_package_and_imports(self):
        module = parse_java("package a.b;\nimport java.util.List;\nclass A { }")
        assert module.statements[0].root.kind == "ImportFrom"


class TestStatements:
    def test_local_var_decl(self):
        stmts = statements_of(wrap("        int total = 0;"))
        decl = next(s.root for s in stmts if s.root.kind == "VarDecl")
        assert decl.children[0].children[0].value == "int"
        assert decl.children[1].meta["decl_type"] == "int"

    def test_multi_declarator(self):
        stmts = statements_of(wrap("        int a = 1, b = 2;"))
        assert sum(1 for s in stmts if s.root.kind == "VarDecl") == 2

    def test_assignment(self):
        stmts = statements_of(wrap("        this.name = name;"))
        assign = next(s.root for s in stmts if s.root.kind == "Assign")
        assert assign.children[0].kind == "AttributeStore"

    def test_classic_for(self):
        stmts = statements_of(wrap("        for (int i = 0; i < n; i++) { use(i); }"))
        header = next(s.root for s in stmts if s.root.kind == "For")
        assert [c.kind for c in header.children[:3]] == [
            "ForInit", "ForCond", "ForUpdate",
        ]

    def test_enhanced_for(self):
        stmts = statements_of(wrap("        for (String s : items) { use(s); }"))
        header = next(s.root for s in stmts if s.root.kind == "ForEach")
        assert header.children[0].children[0].value == "String"

    def test_if_else(self):
        stmts = statements_of(wrap("        if (a > b) { f(); } else { g(); }"))
        assert any(s.root.kind == "If" for s in stmts)

    def test_while_and_do(self):
        stmts = statements_of(wrap("        while (x) { f(); } do { g(); } while (y);"))
        kinds = {s.root.kind for s in stmts}
        assert "While" in kinds and "DoWhile" in kinds

    def test_try_catch_finally(self):
        body = (
            "        try { f(); } catch (IOException e) { g(); }"
            " finally { h(); }"
        )
        stmts = statements_of(wrap(body))
        catch = next(s.root for s in stmts if s.root.kind == "Catch")
        assert catch.children[0].children[0].value == "IOException"
        assert catch.children[1].meta["decl_type"] == "IOException"

    def test_multicatch_keeps_first_type(self):
        stmts = statements_of(
            wrap("        try { f(); } catch (IOException | SQLException e) { }")
        )
        catch = next(s.root for s in stmts if s.root.kind == "Catch")
        assert catch.children[0].children[0].value == "IOException"

    def test_try_with_resources(self):
        stmts = statements_of(
            wrap('        try (Reader r = open("f")) { use(r); }')
        )
        assert any(s.root.kind == "Call" for s in stmts)

    def test_switch(self):
        body = (
            "        switch (x) { case 1: f(); break; default: g(); }"
        )
        stmts = statements_of(wrap(body))
        assert any(s.root.kind == "Switch" for s in stmts)

    def test_return_and_throw(self):
        stmts = statements_of(wrap("        if (x) { return 1; } throw new Error();"))
        kinds = {s.root.kind for s in stmts}
        assert "Return" in kinds and "Raise" in kinds

    def test_synchronized(self):
        stmts = statements_of(wrap("        synchronized (lock) { f(); }"))
        assert any(s.root.kind == "Call" for s in stmts)

    def test_assert_statement(self):
        stmts = statements_of(wrap('        assert x > 0 : "bad";'))
        assert any(s.root.kind == "Assert" for s in stmts)


class TestExpressions:
    def test_method_call_structure(self):
        stmts = statements_of(wrap("        context.startActivity(intent);"))
        call = next(s.root for s in stmts if s.root.kind == "Call")
        assert call.children[0].kind == "AttributeLoad"
        assert call.children[1].kind == "NameLoad"

    def test_chained_calls(self):
        stmts = statements_of(wrap("        a.b().c().d();"))
        assert any(s.root.kind == "Call" for s in stmts)

    def test_new_object(self):
        stmts = statements_of(wrap("        Intent i = new Intent(context, X.class);"))
        decl = next(s.root for s in stmts if s.root.kind == "VarDecl")
        new = decl.children[2]
        assert new.kind == "New"
        assert new.children[0].children[0].value == "Intent"

    def test_new_array(self):
        stmts = statements_of(wrap("        int[] xs = new int[10];"))
        assert any(s.root.kind == "VarDecl" for s in stmts)

    def test_cast(self):
        stmts = statements_of(wrap("        double r = (double) count / 4;"))
        decl = next(s.root for s in stmts if s.root.kind == "VarDecl")
        assert any(n.kind == "Cast" for n in decl.walk())

    def test_ternary(self):
        stmts = statements_of(wrap('        String m = f ? "y" : "n";'))
        decl = next(s.root for s in stmts if s.root.kind == "VarDecl")
        assert any(n.kind == "IfExp" for n in decl.walk())

    def test_instanceof(self):
        stmts = statements_of(wrap("        boolean b = x instanceof String;"))
        decl = next(s.root for s in stmts if s.root.kind == "VarDecl")
        assert any(n.kind == "InstanceOf" for n in decl.walk())

    def test_lambda_single_param(self):
        stmts = statements_of(wrap("        items.forEach(x -> x.close());"))
        assert any(
            n.kind == "Lambda" for s in stmts for n in s.root.walk()
        )

    def test_lambda_parenthesized_params(self):
        stmts = statements_of(wrap("        map.forEach((k, v) -> use(k, v));"))
        assert any(n.kind == "Lambda" for s in stmts for n in s.root.walk())

    def test_method_reference(self):
        stmts = statements_of(wrap("        items.forEach(System.out::println);"))
        assert any(n.kind == "MethodRef" for s in stmts for n in s.root.walk())

    def test_array_access(self):
        stmts = statements_of(wrap("        int x = xs[0];"))
        decl = next(s.root for s in stmts if s.root.kind == "VarDecl")
        assert any(n.kind == "SubscriptLoad" for n in decl.walk())

    def test_string_concat(self):
        stmts = statements_of(wrap('        String s = "a" + name + 1;'))
        assert any(s.root.kind == "VarDecl" for s in stmts)

    def test_increment(self):
        stmts = statements_of(wrap("        count++;"))
        assert any(s.root.kind == "PostIncDec" for s in stmts)

    def test_literals(self):
        stmts = statements_of(
            wrap("        Object o = true ? null : 'c';")
        )
        assert stmts


class TestErrors:
    def test_unbalanced_brace(self):
        with pytest.raises(JavaFrontendError):
            parse_java("class A { void m() {")

    def test_garbage(self):
        with pytest.raises(JavaFrontendError):
            parse_java("not a java file at all ###")

    def test_roles(self):
        module = parse_java(wrap("        context.startActivity(intent);"))
        call = next(s.root for s in module.statements if s.root.kind == "Call")
        callee_ident = call.children[0].children[1].children[0]
        assert callee_ident.meta["role"] == "func"


def _shape(n) -> str:
    """A binary expression tree as fully parenthesized text."""
    if n.kind == "BinOp":
        return f"({_shape(n.children[0])} {n.value} {_shape(n.children[1])})"
    if n.kind == "InstanceOf":
        return f"({_shape(n.children[0])} instanceof {n.children[1].children[0].value})"
    return n.children[0].value


def _initializer(expression: str):
    stmts = statements_of(wrap(f"        boolean v = {expression};"))
    return next(s.root for s in stmts if s.root.kind == "VarDecl").children[-1]


class TestPrecedence:
    @pytest.mark.parametrize(
        "expression, shape",
        [
            (
                "a || b && c | d ^ e & f == g < h << i + j * k",
                "(a BinOpOr (b BinOpAnd (c BinOpBitOr (d BinOpBitXor (e BinOpBitAnd"
                " (f BinOpEq (g BinOpLt (h BinOpLShift (i BinOpAdd (j BinOpMult k))))))))))",
            ),
            ("a * b + c - d", "(((a BinOpMult b) BinOpAdd c) BinOpSub d)"),
            ("a - b * c / d % e", "(a BinOpSub (((b BinOpMult c) BinOpDiv d) BinOpMod e))"),
            ("a < b instanceof T", "((a BinOpLt b) instanceof T)"),
            ("a == b instanceof T && c", "((a BinOpEq (b instanceof T)) BinOpAnd c)"),
            ("a instanceof T == b", "((a instanceof T) BinOpEq b)"),
        ],
    )
    def test_binary_tree_shape(self, expression, shape):
        assert _shape(_initializer(expression)) == shape

    def test_no_tighter_operator_after_instanceof_type(self):
        # `(a instanceof T) + b` is not Java: a shift or additive
        # operand cannot be a relational expression.
        with pytest.raises(JavaFrontendError):
            parse_java(wrap("        boolean v = a instanceof T + b;"))


def _nested_call(depth: int) -> SourceFile:
    value = "f(" * depth + "1" + ")" * depth
    return SourceFile(
        path="Deep.java",
        source=f"class Deep {{ void m() {{ int x = {value}; }} }}\n",
        language="java",
    )


class TestNestingDepth:
    """Each nesting level costs a handful of parser frames, not one per
    precedence level, so deep but valid code parses."""

    def test_depth_150_prepares(self):
        prepared = prepare_file_checked(_nested_call(150))
        assert prepared.statements

    def test_depth_1000_is_a_parse_error_in_under_a_second(self):
        started = time.perf_counter()
        with pytest.raises(PrepareError) as caught:
            prepare_file_checked(_nested_call(1000))
        assert caught.value.stage == "parse"
        assert time.perf_counter() - started < 1.0
