"""Tests for origin computation (Section 4.1's deliverable)."""

from repro.analysis.origins import compute_origins
from repro.lang.java.frontend import parse_java
from repro.lang.python_frontend import parse_module


def python_origins(source):
    return compute_origins(parse_module(source))


class TestPythonOrigins:
    def test_self_origin_is_parent_class(self):
        src = (
            "class TestPicture(TestCase):\n"
            "    def test_a(self):\n"
            "        self.assertTrue(x, 90)\n"
        )
        result = python_origins(src)
        assert result.by_function["TestPicture.test_a"]["self"] == "TestCase"

    def test_primitive_origins(self):
        src = "def f():\n    name = 'x'\n    count = 3\n    flag = True\n"
        env = python_origins(src).by_function["f"]
        assert env == {"name": "Str", "count": "Num", "flag": "Bool"}

    def test_primitive_flows_through_move(self):
        src = "def f():\n    a = 1\n    b = a\n"
        assert python_origins(src).by_function["f"]["b"] == "Num"

    def test_import_alias_module_level(self):
        result = python_origins("import numpy as np\nx = 1\n")
        assert result.per_statement[1]["np"] == "numpy"

    def test_opaque_assignment_tops_out(self):
        src = "def f():\n    x = 1\n    x += 2\n"
        env = python_origins(src).by_function.get("f", {})
        assert "x" not in env

    def test_conflicting_origins_top_out(self):
        src = (
            "class A:\n    pass\nclass B:\n    pass\n"
            "def f(flag):\n"
            "    x = A()\n"
            "    x = B()\n"
        )
        env = python_origins(src).by_function.get("f", {})
        assert "x" not in env

    def test_constructor_literal_flow(self):
        src = (
            "class Conf:\n"
            "    def __init__(self, name, port):\n"
            "        self.name = name\n"
            "        self.port = port\n"
            "def make():\n    return Conf('api', 8080)\n"
        )
        env = python_origins(src).by_function["Conf.__init__"]
        assert env["name"] == "Str" and env["port"] == "Num"

    def test_per_statement_env_scoping(self):
        src = "x = 1\ndef f():\n    y = 'a'\n    z = y\n"
        result = python_origins(src)
        module_env = result.per_statement[0]
        inner_env = result.per_statement[2]
        assert module_env.get("x") == "Num"
        assert inner_env.get("y") == "Str"
        assert "y" not in module_env


class TestJavaOrigins:
    def test_this_and_decl_types(self):
        src = (
            "public class A extends Activity {\n"
            "    public void m(Context context) {\n"
            "        Intent intent = new Intent();\n"
            "        double ratio = 1.5;\n"
            "        ratio += 1;\n"
            "    }\n"
            "}\n"
        )
        env = compute_origins(parse_java(src)).by_function["A.m"]
        assert env["this"] == "Activity"
        assert env["intent"] == "Intent"
        assert env["context"] == "Context"
        # declared type survives the opaque +=
        assert env["ratio"] == "Num"

    def test_catch_variable(self):
        src = (
            "class A { void m() { try { f(); } catch (Exception e) {"
            " e.printStackTrace(); } } }"
        )
        env = compute_origins(parse_java(src)).by_function["A.m"]
        assert env["e"] == "Exception"

    def test_string_param(self):
        src = "class A { A(String publickKey) { this.publicKey = publickKey; } }"
        env = compute_origins(parse_java(src)).by_function["A.__init__"]
        assert env["publickKey"] == "Str"


class TestInFileCallResolution:
    """Same-named methods in two classes: each call binds to the
    caller's own class, independent of the process hash seed."""

    SOURCE = (
        "class ResponseValidator:\n"
        "    def assertTrue(self, value, expected):\n"
        "        if value != expected:\n"
        "            self.errors += 1\n"
        "    def check_weight(self, record):\n"
        "        self.assertTrue(record.weight, 3)\n"
        "\n"
        "class DeviceValidator:\n"
        "    def assertTrue(self, value, expected):\n"
        "        if value != expected:\n"
        "            self.errors += 1\n"
        "    def check_weight(self, record):\n"
        "        self.assertTrue(record.weight, 89)\n"
    )

    def test_each_method_receives_its_own_callers_literal(self):
        by_function = python_origins(self.SOURCE).by_function
        for cls in ("ResponseValidator", "DeviceValidator"):
            assert by_function[f"{cls}.assertTrue"]["expected"] == "Num"

    def test_call_binds_to_callers_class(self):
        from repro.analysis.facts import extract_facts

        facts = extract_facts(parse_module(self.SOURCE))
        resolved = {
            site.partition("@")[2]: callee for site, callee in facts.resolves_to
        }
        assert resolved == {
            "ResponseValidator.check_weight": "ResponseValidator.assertTrue",
            "DeviceValidator.check_weight": "DeviceValidator.assertTrue",
        }
