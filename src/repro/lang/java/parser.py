"""A recursive-descent Java parser producing the neutral statement AST.

Covers the Java subset that dominates real repositories: packages and
imports, class/interface/enum declarations with extends/implements,
fields, methods and constructors (with generics, arrays, varargs,
throws), the full statement grammar (blocks, if/while/do/for/foreach,
try/catch/finally with resources, switch, synchronized, assert, return,
throw, break/continue) and the full expression grammar with Java
precedence, casts, ``new``, lambdas and method references.

The output reuses the same neutral node vocabulary as the Python
frontend wherever the construct is shared (``Call``, ``AttributeLoad``,
``Assign``, ``NameLoad`` ...), so the transformation, mining, and
analysis layers are language-agnostic.  Java-specific information —
declared types — appears as ``DeclType`` nodes, which both enrich name
paths (e.g. the ``double`` loop index of the paper's Table 6) and feed
the origin analysis through ``NameStore`` metadata.

Constructors are registered under the name ``__init__`` so that the
fact extractor's constructor-resolution logic is shared across
languages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.astir import Node, StatementAst, node, terminal
from repro.lang.java.lexer import Token, TokenKind, tokenize

__all__ = ["JavaParseError", "JavaParser"]

#: Java primitive types mapped to the neutral primitive origin names.
PRIMITIVE_ORIGINS = {
    "int": "Num", "long": "Num", "short": "Num", "byte": "Num",
    "float": "Num", "double": "Num", "char": "Str", "boolean": "Bool",
}

_PRIMITIVES = frozenset(PRIMITIVE_ORIGINS) | {"void"}

_MODIFIERS = frozenset(
    """public private protected static final abstract native synchronized
    transient volatile strictfp default sealed""".split()
)

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}


#: Binary operators by precedence, loosest first; all are
#: left-associative.
_BINARY_LEVELS = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">=", "instanceof"),
    ("<<", ">>", ">>>"),
    ("+", "-"),
    ("*", "/", "%"),
]

#: Each binary operator's level in :data:`_BINARY_LEVELS`.
_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}


class JavaParseError(ValueError):
    """Raised when the parser cannot make progress."""


@dataclass
class JavaParser:
    source: str
    file_path: str = ""
    repo: str = ""
    statements: list[StatementAst] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.tokens = tokenize(self.source)
        self.pos = 0
        self._lines = self.source.splitlines()

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def expect_sep(self, sep: str) -> Token:
        if not self.cur.is_sep(sep):
            raise JavaParseError(
                f"{self.file_path}:{self.cur.line}: expected {sep!r}, got {self.cur.text!r}"
            )
        return self.advance()

    def expect_op(self, op: str) -> Token:
        if not self.cur.is_op(op):
            raise JavaParseError(
                f"{self.file_path}:{self.cur.line}: expected {op!r}, got {self.cur.text!r}"
            )
        return self.advance()

    def expect_ident(self) -> Token:
        if self.cur.kind is not TokenKind.IDENT:
            raise JavaParseError(
                f"{self.file_path}:{self.cur.line}: expected identifier, got {self.cur.text!r}"
            )
        return self.advance()

    def _split_gt(self) -> None:
        """Split a ``>>``/``>>>`` token so nested generics close cleanly."""
        tok = self.cur
        if tok.is_op(">>", ">>>", ">="):
            rest = tok.text[1:]
            self.tokens[self.pos] = Token(TokenKind.OPERATOR, rest, tok.line, tok.column + 1)
            self.tokens.insert(
                self.pos, Token(TokenKind.OPERATOR, ">", tok.line, tok.column)
            )

    # ------------------------------------------------------------------
    # Compilation unit
    # ------------------------------------------------------------------

    def parse_compilation_unit(self) -> Node:
        root = node("Module")
        if self.cur.is_kw("package"):
            self.advance()
            name = self._qualified_name()
            self.expect_sep(";")
            root.add(node("Package", self._ident(name, role="type")))
        while self.cur.is_kw("import"):
            root.add(self._import())
        while self.cur.kind is not TokenKind.EOF:
            root.add(self._type_declaration())
        return root

    def _import(self) -> Node:
        line = self.cur.line
        self.advance()
        if self.cur.is_kw("static"):
            self.advance()
        name = self._qualified_name()
        if self.cur.is_sep("."):
            self.advance()
            self.expect_op("*")
            name += ".*"
        self.expect_sep(";")
        result = node("ImportFrom")
        module, _, symbol = name.rpartition(".")
        result.add(node("ImportModule", self._ident(module or name, role="type")))
        result.add(node("ImportName", self._ident(symbol or name, role="type")))
        self._register(result, line)
        return result

    def _qualified_name(self) -> str:
        parts = [self.expect_ident().text]
        while self.cur.is_sep(".") and self.peek().kind is TokenKind.IDENT:
            self.advance()
            parts.append(self.expect_ident().text)
        return ".".join(parts)

    # ------------------------------------------------------------------
    # Type declarations and members
    # ------------------------------------------------------------------

    def _skip_modifiers_and_annotations(self) -> None:
        while True:
            if self.cur.is_op("@"):
                self.advance()
                self._qualified_name()
                if self.cur.is_sep("("):
                    self._skip_balanced("(", ")")
                continue
            if self.cur.kind is TokenKind.KEYWORD and self.cur.text in _MODIFIERS:
                self.advance()
                continue
            return

    def _skip_balanced(self, open_sep: str, close_sep: str) -> None:
        depth = 0
        while self.cur.kind is not TokenKind.EOF:
            if self.cur.is_sep(open_sep):
                depth += 1
            elif self.cur.is_sep(close_sep):
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            self.advance()

    def _type_declaration(self) -> Node:
        self._skip_modifiers_and_annotations()
        if self.cur.is_kw("class", "interface", "enum", "record"):
            return self._class_declaration()
        raise JavaParseError(
            f"{self.file_path}:{self.cur.line}: expected type declaration, got {self.cur.text!r}"
        )

    def _class_declaration(self) -> Node:
        line = self.cur.line
        keyword = self.advance().text
        name = self.expect_ident().text
        header = node("ClassDecl")
        header.meta["declaration_kind"] = keyword
        header.add(node("ClassDeclName", self._ident(name, role="type")))
        if self.cur.is_op("<"):
            self._skip_type_params()
        bases = node("Bases")
        if keyword == "record" and self.cur.is_sep("("):
            self._skip_balanced("(", ")")
        if self.cur.is_kw("extends"):
            self.advance()
            bases.add(node("NameLoad", self._ident(self._type_name(), role="type")))
            while self.cur.is_sep(","):
                self.advance()
                bases.add(node("NameLoad", self._ident(self._type_name(), role="type")))
        if self.cur.is_kw("implements", "permits"):
            self.advance()
            bases.add(node("NameLoad", self._ident(self._type_name(), role="type")))
            while self.cur.is_sep(","):
                self.advance()
                bases.add(node("NameLoad", self._ident(self._type_name(), role="type")))
        header.add(bases)
        self._register(header.clone(), line, header)

        body = node("Body")
        self.expect_sep("{")
        if keyword == "enum":
            self._skip_enum_constants()
        while not self.cur.is_sep("}") and self.cur.kind is not TokenKind.EOF:
            member = self._member(class_name=name)
            if member is not None:
                body.add(member)
        self.expect_sep("}")
        header.add(body)
        return header

    def _skip_enum_constants(self) -> None:
        while self.cur.kind is TokenKind.IDENT:
            self.advance()
            if self.cur.is_sep("("):
                self._skip_balanced("(", ")")
            if self.cur.is_sep(","):
                self.advance()
                continue
            break
        if self.cur.is_sep(";"):
            self.advance()

    def _skip_type_params(self) -> None:
        depth = 0
        while self.cur.kind is not TokenKind.EOF:
            self._split_gt()
            if self.cur.is_op("<"):
                depth += 1
            elif self.cur.is_op(">"):
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            self.advance()

    def _member(self, class_name: str) -> Node | None:
        self._skip_modifiers_and_annotations()
        if self.cur.is_sep(";"):
            self.advance()
            return None
        if self.cur.is_sep("{"):  # instance/static initializer
            return self._block()
        if self.cur.is_kw("class", "interface", "enum", "record"):
            return self._class_declaration()
        if self.cur.is_op("<"):
            self._skip_type_params()
        # Constructor: ClassName followed by '('
        if (
            self.cur.kind is TokenKind.IDENT
            and self.cur.text == class_name
            and self.peek().is_sep("(")
        ):
            return self._method_rest(name="__init__", return_type=None, line=self.cur.line, skip_name=True)
        # Otherwise: type then name, then method or field
        saved = self.pos
        try:
            decl_type = self._type_name()
        except JavaParseError:
            self.pos = saved
            raise
        name_tok = self.expect_ident()
        if self.cur.is_sep("("):
            return self._method_rest(
                name=name_tok.text, return_type=decl_type, line=name_tok.line
            )
        return self._field_rest(decl_type, name_tok)

    def _method_rest(
        self, name: str, return_type: str | None, line: int, skip_name: bool = False
    ) -> Node:
        if skip_name:
            self.advance()  # the constructor name token
        header = node("MethodDecl")
        header.add(node("MethodDeclName", self._ident(name, role="func")))
        if return_type is not None:
            header.add(node("ReturnType", self._ident(return_type, role="type")))
        header.add(self._params())
        if self.cur.is_kw("throws"):
            self.advance()
            throws = node("Throws")
            throws.add(node("NameLoad", self._ident(self._type_name(), role="type")))
            while self.cur.is_sep(","):
                self.advance()
                throws.add(node("NameLoad", self._ident(self._type_name(), role="type")))
            header.add(throws)
        self._register(header.clone(), line, header)
        if self.cur.is_sep(";"):  # abstract/interface method
            self.advance()
            return header
        header.add(self._block())
        return header

    def _params(self) -> Node:
        params = node("Params")
        self.expect_sep("(")
        while not self.cur.is_sep(")"):
            self._skip_modifiers_and_annotations()
            decl_type = self._type_name()
            if self.cur.is_op("..."):
                self.advance()
            name = self.expect_ident().text
            while self.cur.is_sep("["):
                self.advance()
                self.expect_sep("]")
            param = node(
                "Param",
                node("DeclType", self._ident(decl_type, role="type")),
                self._ident(name, role="param"),
            )
            params.add(param)
            if self.cur.is_sep(","):
                self.advance()
        self.expect_sep(")")
        return params

    def _field_rest(self, decl_type: str, first_name: Token) -> Node:
        group = node("FieldDeclGroup")
        name_tok = first_name
        while True:
            decl = node("FieldDecl")
            decl.add(node("DeclType", self._ident(decl_type, role="type")))
            store = node("NameStore", self._ident(name_tok.text, role="object"))
            store.meta["decl_type"] = decl_type
            decl.add(store)
            while self.cur.is_sep("["):
                self.advance()
                self.expect_sep("]")
            if self.cur.is_op("="):
                self.advance()
                decl.add(self._expression())
            group.add(decl)
            self._register(decl, name_tok.line)
            if self.cur.is_sep(","):
                self.advance()
                name_tok = self.expect_ident()
                continue
            break
        self.expect_sep(";")
        return group

    # ------------------------------------------------------------------
    # Types
    # ------------------------------------------------------------------

    def _type_name(self) -> str:
        """Parse a type and return its *simple* head name (generics and
        array dimensions are consumed but abstracted away)."""
        if self.cur.kind is TokenKind.KEYWORD and self.cur.text in _PRIMITIVES:
            head = self.advance().text
        elif self.cur.is_kw("var"):
            head = self.advance().text
        elif self.cur.kind is TokenKind.IDENT:
            head = self.expect_ident().text
            while self.cur.is_sep(".") and self.peek().kind is TokenKind.IDENT:
                self.advance()
                head = self.expect_ident().text  # keep the last segment
        else:
            raise JavaParseError(
                f"{self.file_path}:{self.cur.line}: expected type, got {self.cur.text!r}"
            )
        if self.cur.is_op("<"):
            self._skip_type_args()
        while self.cur.is_sep("[") and self.peek().is_sep("]"):
            self.advance()
            self.advance()
        return head

    def _skip_type_args(self) -> None:
        depth = 0
        while self.cur.kind is not TokenKind.EOF:
            self._split_gt()
            if self.cur.is_op("<"):
                depth += 1
                self.advance()
            elif self.cur.is_op(">"):
                depth -= 1
                self.advance()
                if depth == 0:
                    return
            else:
                self.advance()

    def _looks_like_type(self) -> bool:
        """Heuristic lookahead: does a local variable declaration start
        here?  Used to disambiguate ``Foo bar = ...`` from ``foo.bar()``."""
        tok = self.cur
        if tok.kind is TokenKind.KEYWORD and (tok.text in _PRIMITIVES or tok.text == "var"):
            return True
        if tok.kind is not TokenKind.IDENT:
            return False
        saved = self.pos
        try:
            self._type_name()
            ok = self.cur.kind is TokenKind.IDENT and (
                self.peek().is_op("=") or self.peek().is_sep(";") or self.peek().is_sep(",")
                or self.peek().is_sep("[") or self.peek().is_op(":")
            )
        except JavaParseError:
            ok = False
        finally:
            self.pos = saved
        return ok

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _block(self) -> Node:
        body = node("Body")
        self.expect_sep("{")
        while not self.cur.is_sep("}") and self.cur.kind is not TokenKind.EOF:
            body.add(self._statement())
        self.expect_sep("}")
        return body

    def _statement(self) -> Node:
        tok = self.cur
        if tok.is_sep("{"):
            return self._block()
        if tok.is_sep(";"):
            self.advance()
            return node("Pass")
        if tok.is_kw("if"):
            return self._if()
        if tok.is_kw("while"):
            return self._while()
        if tok.is_kw("do"):
            return self._do_while()
        if tok.is_kw("for"):
            return self._for()
        if tok.is_kw("try"):
            return self._try()
        if tok.is_kw("switch"):
            return self._switch()
        if tok.is_kw("return"):
            return self._return()
        if tok.is_kw("throw"):
            return self._throw()
        if tok.is_kw("break"):
            self.advance()
            if self.cur.kind is TokenKind.IDENT:
                self.advance()
            self.expect_sep(";")
            return node("Break")
        if tok.is_kw("continue"):
            self.advance()
            if self.cur.kind is TokenKind.IDENT:
                self.advance()
            self.expect_sep(";")
            return node("Continue")
        if tok.is_kw("synchronized"):
            self.advance()
            self.expect_sep("(")
            guard = self._expression()
            self.expect_sep(")")
            return node("Synchronized", guard, self._block())
        if tok.is_kw("assert"):
            self.advance()
            expr = self._expression()
            result = node("Assert", expr)
            if self.cur.is_op(":"):
                self.advance()
                result.add(self._expression())
            self.expect_sep(";")
            self._register(result, tok.line)
            return result
        if tok.is_kw("class", "interface", "enum", "record") or (
            tok.is_kw("final", "abstract", "static")
            and self.peek().is_kw("class", "interface", "enum", "record")
        ):
            self._skip_modifiers_and_annotations()
            return self._class_declaration()
        if tok.is_kw("final") or self._looks_like_type():
            if tok.is_kw("final"):
                self.advance()
            return self._local_var_decl()
        return self._expression_statement()

    def _local_var_decl(self) -> Node:
        line = self.cur.line
        decl_type = self._type_name()
        group = node("VarDeclList")
        while True:
            name = self.expect_ident().text
            while self.cur.is_sep("["):
                self.advance()
                self.expect_sep("]")
            decl = node("VarDecl")
            decl.add(node("DeclType", self._ident(decl_type, role="type")))
            store = node("NameStore", self._ident(name, role="object"))
            store.meta["decl_type"] = decl_type
            decl.add(store)
            if self.cur.is_op("="):
                self.advance()
                decl.add(self._expression())
            group.add(decl)
            self._register(decl, line)
            if self.cur.is_sep(","):
                self.advance()
                continue
            break
        self.expect_sep(";")
        return group if len(group.children) > 1 else group.children[0]

    def _expression_statement(self) -> Node:
        line = self.cur.line
        expr = self._expression()
        self.expect_sep(";")
        self._register(expr, line)
        return node("ExprStmt", expr)

    def _if(self) -> Node:
        line = self.advance().line
        self.expect_sep("(")
        test = self._expression()
        self.expect_sep(")")
        header = node("If", test)
        self._register(header.clone(), line, header)
        header.add(self._body_or_single())
        if self.cur.is_kw("else"):
            self.advance()
            header.add(node("OrElse", self._body_or_single()))
        return header

    def _while(self) -> Node:
        line = self.advance().line
        self.expect_sep("(")
        test = self._expression()
        self.expect_sep(")")
        header = node("While", test)
        self._register(header.clone(), line, header)
        header.add(self._body_or_single())
        return header

    def _do_while(self) -> Node:
        self.advance()
        body = self._body_or_single()
        if not self.cur.is_kw("while"):
            raise JavaParseError(f"{self.file_path}:{self.cur.line}: expected while")
        line = self.advance().line
        self.expect_sep("(")
        test = self._expression()
        self.expect_sep(")")
        self.expect_sep(";")
        header = node("DoWhile", test)
        self._register(header.clone(), line, header)
        header.add(body)
        return header

    def _for(self) -> Node:
        line = self.advance().line
        self.expect_sep("(")
        # Enhanced for: [final] Type name : iterable
        saved = self.pos
        if self._is_enhanced_for():
            if self.cur.is_kw("final"):
                self.advance()
            decl_type = self._type_name()
            name = self.expect_ident().text
            self.expect_op(":")
            iterable = self._expression()
            self.expect_sep(")")
            store = node("NameStore", self._ident(name, role="object"))
            store.meta["decl_type"] = decl_type
            header = node(
                "ForEach",
                node("DeclType", self._ident(decl_type, role="type")),
                store,
                iterable,
            )
            self._register(header.clone(), line, header)
            header.add(self._body_or_single())
            return header
        self.pos = saved
        header = node("For")
        init = node("ForInit")
        if not self.cur.is_sep(";"):
            if self._looks_like_type() or self.cur.is_kw("final"):
                if self.cur.is_kw("final"):
                    self.advance()
                init.add(self._for_var_decl())
            else:
                init.add(self._expression())
                while self.cur.is_sep(","):
                    self.advance()
                    init.add(self._expression())
                self.expect_sep(";")
        else:
            self.advance()
        header.add(init)
        cond = node("ForCond")
        if not self.cur.is_sep(";"):
            cond.add(self._expression())
        self.expect_sep(";")
        header.add(cond)
        update = node("ForUpdate")
        if not self.cur.is_sep(")"):
            update.add(self._expression())
            while self.cur.is_sep(","):
                self.advance()
                update.add(self._expression())
        self.expect_sep(")")
        header.add(update)
        self._register(header.clone(), line, header)
        header.add(self._body_or_single())
        return header

    def _for_var_decl(self) -> Node:
        """Variable declaration inside a classic for-init (no trailing
        semicolon consumed by the caller)."""
        decl_type = self._type_name()
        group = node("VarDeclList")
        while True:
            name = self.expect_ident().text
            decl = node("VarDecl")
            decl.add(node("DeclType", self._ident(decl_type, role="type")))
            store = node("NameStore", self._ident(name, role="object"))
            store.meta["decl_type"] = decl_type
            decl.add(store)
            if self.cur.is_op("="):
                self.advance()
                decl.add(self._expression())
            group.add(decl)
            if self.cur.is_sep(","):
                self.advance()
                continue
            break
        self.expect_sep(";")
        return group if len(group.children) > 1 else group.children[0]

    def _is_enhanced_for(self) -> bool:
        saved = self.pos
        try:
            if self.cur.is_kw("final"):
                self.advance()
            self._type_name()
            if self.cur.kind is not TokenKind.IDENT:
                return False
            self.advance()
            return self.cur.is_op(":")
        except JavaParseError:
            return False
        finally:
            self.pos = saved

    def _try(self) -> Node:
        self.advance()
        result = node("Try")
        if self.cur.is_sep("("):  # try-with-resources
            self.advance()
            resources = node("Resources")
            while not self.cur.is_sep(")"):
                if self.cur.is_kw("final"):
                    self.advance()
                if self._looks_like_type():
                    decl_type = self._type_name()
                    name = self.expect_ident().text
                    self.expect_op("=")
                    value = self._expression()
                    store = node("NameStore", self._ident(name, role="object"))
                    store.meta["decl_type"] = decl_type
                    resources.add(
                        node(
                            "VarDecl",
                            node("DeclType", self._ident(decl_type, role="type")),
                            store,
                            value,
                        )
                    )
                else:
                    resources.add(self._expression())
                if self.cur.is_sep(";"):
                    self.advance()
            self.expect_sep(")")
            result.add(resources)
        result.add(self._block())
        while self.cur.is_kw("catch"):
            line = self.advance().line
            self.expect_sep("(")
            if self.cur.is_kw("final"):
                self.advance()
            decl_type = self._type_name()
            while self.cur.is_op("|"):  # multi-catch: keep the first type
                self.advance()
                self._type_name()
            name = self.expect_ident().text
            self.expect_sep(")")
            store = node("NameStore", self._ident(name, role="object"))
            store.meta["decl_type"] = decl_type
            clause = node(
                "Catch", node("DeclType", self._ident(decl_type, role="type")), store
            )
            self._register(clause.clone(), line, clause)
            clause.add(self._block())
            result.add(clause)
        if self.cur.is_kw("finally"):
            self.advance()
            result.add(node("Finally", self._block()))
        return result

    def _switch(self) -> Node:
        line = self.advance().line
        self.expect_sep("(")
        selector = self._expression()
        self.expect_sep(")")
        header = node("Switch", selector)
        self._register(header.clone(), line, header)
        self.expect_sep("{")
        body = node("Body")
        while not self.cur.is_sep("}") and self.cur.kind is not TokenKind.EOF:
            if self.cur.is_kw("case"):
                self.advance()
                case = node("Case", self._expression())
                while self.cur.is_sep(","):
                    self.advance()
                    case.add(self._expression())
                if self.cur.is_op(":"):
                    self.advance()
                elif self.cur.is_op("->"):
                    self.advance()
                    case.add(self._statement())
                body.add(case)
            elif self.cur.is_kw("default"):
                self.advance()
                if self.cur.is_op(":"):
                    self.advance()
                elif self.cur.is_op("->"):
                    self.advance()
                body.add(node("DefaultCase"))
            else:
                body.add(self._statement())
        self.expect_sep("}")
        header.add(body)
        return header

    def _return(self) -> Node:
        line = self.advance().line
        result = node("Return")
        if not self.cur.is_sep(";"):
            result.add(self._expression())
        self.expect_sep(";")
        self._register(result, line)
        return result

    def _throw(self) -> Node:
        line = self.advance().line
        result = node("Raise", self._expression())
        self.expect_sep(";")
        self._register(result, line)
        return result

    def _body_or_single(self) -> Node:
        if self.cur.is_sep("{"):
            return self._block()
        return node("Body", self._statement())

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    # Each nested call costs one frame per method on the chain
    # _expression -> _ternary -> _binary -> _unary -> _call (parentheses
    # go through _primary instead of _call), and the recursion limit
    # bounds the nesting depth; so the chain is kept short, with every
    # binary precedence level one loop in _binary, not one frame each.

    def _expression(self) -> Node:
        left = self._ternary()
        if self.cur.kind is TokenKind.OPERATOR and self.cur.text in _ASSIGN_OPS:
            op = self.advance().text
            right = self._expression()
            target = _to_store(left)
            if op == "=":
                return node("Assign", target, right)
            return node("AugAssign", target, right, value=f"AugAssign{op}")
        return left

    def _ternary(self) -> Node:
        # Single-identifier lambda: x -> expr
        if self.cur.kind is TokenKind.IDENT and self.peek().is_op("->"):
            param = self.advance().text
            self.advance()
            body = self._lambda_body()
            cond = node(
                "Lambda", node("Params", node("Param", self._ident(param, role="param"))), body
            )
        else:
            cond = self._binary(0)
        if self.cur.is_op("?"):
            self.advance()
            then = self._expression()
            self.expect_op(":")
            other = self._ternary()
            return node("IfExp", cond, then, other)
        return cond

    def _lambda_body(self) -> Node:
        if self.cur.is_sep("{"):
            return self._block()
        return self._expression()

    def _binary(self, min_level: int) -> Node:
        """Precedence climbing over :data:`_BINARY_LEVELS`: the operators
        at ``min_level`` or tighter, all left-associative.

        Levels along the left spine never rise: a right operand takes
        every tighter operator after it, and a tighter operator after
        ``instanceof``'s type is left to the caller, as one recursive
        method per level would."""
        left = self._unary()
        max_level = len(_BINARY_LEVELS)
        while True:
            tok = self.cur
            if tok.kind is TokenKind.OPERATOR or tok.is_kw("instanceof"):
                level = _BINARY_LEVEL.get(tok.text, -1)
            else:
                return left
            if not min_level <= level <= max_level:
                return left
            max_level = level
            if tok.kind is TokenKind.KEYWORD:
                self.advance()
                type_name = self._type_name()
                if self.cur.kind is TokenKind.IDENT:  # pattern variable
                    self.advance()
                left = node(
                    "InstanceOf", left, node("NameLoad", self._ident(type_name, role="type"))
                )
                continue
            # '<' or '>' might be generics in odd spots; expressions
            # never contain bare generics here, safe to treat as ops.
            op = self.advance().text
            right = self._binary(level + 1)
            left = node("BinOp", left, right, value=f"BinOp{_op_name(op)}")

    def _unary(self) -> Node:
        """Prefix operators and casts, then a primary and its postfix
        chain (member access, calls, method references, indexing)."""
        tok = self.cur
        if tok.is_op("+", "-", "!", "~"):
            op = self.advance().text
            return node("UnaryOp", self._unary(), value=f"UnaryOp{_op_name(op)}")
        if tok.is_op("++", "--"):
            op = self.advance().text
            return node("PreIncDec", self._unary(), value=f"PreIncDec{op}")
        if tok.is_sep("(") and self._looks_like_cast():
            self.advance()
            cast_type = self._type_name()
            self.expect_sep(")")
            return node(
                "Cast", node("DeclType", self._ident(cast_type, role="type")), self._unary()
            )
        if tok.kind is TokenKind.IDENT and self.peek().is_sep("("):
            # A call by plain name, parsed here rather than in _primary
            # so that nested calls cost one frame less.
            self.advance()
            expr = self._call(node("NameLoad", self._ident(tok.text, role="func")))
        else:
            expr = self._primary()
        while True:
            if self.cur.is_sep("."):
                # method reference or member access
                self.advance()
                if self.cur.is_op("<"):
                    self._skip_type_args()
                if self.cur.is_kw("new", "this", "super", "class"):
                    member = self.advance().text
                else:
                    member = self.expect_ident().text
                if self.cur.is_sep("("):
                    callee = node(
                        "AttributeLoad", expr, node("Attr", self._ident(member, role="func"))
                    )
                    expr = self._call(callee)
                else:
                    expr = node(
                        "AttributeLoad", expr, node("Attr", self._ident(member, role="attr"))
                    )
                continue
            if self.cur.is_op("::"):
                self.advance()
                if self.cur.is_kw("new"):
                    member = self.advance().text
                else:
                    member = self.expect_ident().text
                expr = node(
                    "MethodRef", expr, node("Attr", self._ident(member, role="func"))
                )
                continue
            if self.cur.is_sep("["):
                self.advance()
                index = self._expression()
                self.expect_sep("]")
                expr = node("SubscriptLoad", expr, node("Index", index))
                continue
            if self.cur.is_op("++", "--"):
                op = self.advance().text
                expr = node("PostIncDec", expr, value=f"PostIncDec{op}")
                continue
            return expr

    def _looks_like_cast(self) -> bool:
        saved = self.pos
        try:
            self.advance()  # '('
            if self.cur.kind is TokenKind.KEYWORD and self.cur.text in _PRIMITIVES:
                self._type_name()
                return self.cur.is_sep(")")
            if self.cur.kind is not TokenKind.IDENT:
                return False
            self._type_name()
            if not self.cur.is_sep(")"):
                return False
            nxt = self.peek()
            return (
                nxt.kind in (TokenKind.IDENT, TokenKind.INT, TokenKind.FLOAT,
                             TokenKind.STRING, TokenKind.CHAR)
                or nxt.is_kw("this", "new", "true", "false", "null", "super")
                or nxt.is_sep("(")
                or nxt.is_op("!", "~")
            )
        except JavaParseError:
            return False
        finally:
            self.pos = saved

    def _call(self, callee: Node) -> Node:
        result = node("Call", callee)
        self.expect_sep("(")
        while not self.cur.is_sep(")"):
            result.add(self._expression())
            if self.cur.is_sep(","):
                self.advance()
        self.expect_sep(")")
        return result

    def _primary(self) -> Node:
        tok = self.cur
        if tok.kind is TokenKind.INT or tok.kind is TokenKind.FLOAT:
            self.advance()
            return node("Num", terminal("NumLit", tok.text))
        if tok.kind is TokenKind.STRING:
            self.advance()
            return node("Str", terminal("StrLit", tok.text))
        if tok.kind is TokenKind.CHAR:
            self.advance()
            return node("Str", terminal("StrLit", tok.text))
        if tok.is_kw("true", "false"):
            self.advance()
            return node("Bool", terminal("BoolLit", tok.text.capitalize()))
        if tok.is_kw("null"):
            self.advance()
            return node("NoneLit")
        if tok.is_kw("this"):
            self.advance()
            return node("NameLoad", self._ident("this", role="object"))
        if tok.is_kw("super"):
            self.advance()
            return node("NameLoad", self._ident("super", role="object"))
        if tok.is_kw("new"):
            return self._new()
        if tok.is_sep("("):
            # Parenthesized expression or multi-param lambda
            if self._looks_like_lambda_params():
                return self._lambda_params()
            self.advance()
            inner = self._expression()
            self.expect_sep(")")
            return inner
        if tok.kind is TokenKind.KEYWORD and tok.text in _PRIMITIVES:
            # e.g. int.class — rare; treat as a type load
            self.advance()
            return node("NameLoad", self._ident(tok.text, role="type"))
        if tok.kind is TokenKind.IDENT:
            self.advance()
            return node("NameLoad", self._ident(tok.text, role="object"))
        raise JavaParseError(
            f"{self.file_path}:{tok.line}: unexpected token {tok.text!r} in expression"
        )

    def _looks_like_lambda_params(self) -> bool:
        saved = self.pos
        try:
            self.advance()  # '('
            depth = 1
            while depth > 0 and self.cur.kind is not TokenKind.EOF:
                if self.cur.is_sep("("):
                    depth += 1
                elif self.cur.is_sep(")"):
                    depth -= 1
                self.advance()
            return self.cur.is_op("->")
        finally:
            self.pos = saved

    def _lambda_params(self) -> Node:
        params = node("Params")
        self.expect_sep("(")
        while not self.cur.is_sep(")"):
            if self._looks_like_type() or self.cur.is_kw("final", "var"):
                if self.cur.is_kw("final"):
                    self.advance()
                self._type_name()
            name = self.expect_ident().text
            params.add(node("Param", self._ident(name, role="param")))
            if self.cur.is_sep(","):
                self.advance()
        self.expect_sep(")")
        self.expect_op("->")
        return node("Lambda", params, self._lambda_body())

    def _new(self) -> Node:
        self.advance()  # 'new'
        type_name = self._type_name()
        if self.cur.is_sep("["):
            result = node("NewArray", node("NameLoad", self._ident(type_name, role="type")))
            while self.cur.is_sep("["):
                self.advance()
                if not self.cur.is_sep("]"):
                    result.add(self._expression())
                self.expect_sep("]")
            if self.cur.is_sep("{"):
                self._skip_balanced("{", "}")
            return result
        result = node("New", node("NameLoad", self._ident(type_name, role="type")))
        self.expect_sep("(")
        while not self.cur.is_sep(")"):
            result.add(self._expression())
            if self.cur.is_sep(","):
                self.advance()
        self.expect_sep(")")
        if self.cur.is_sep("{"):  # anonymous class body
            self._skip_balanced("{", "}")
        return result

    # ------------------------------------------------------------------

    def _register(self, projection: Node, line: int, tree_node: Node | None = None) -> None:
        index = len(self.statements)
        projection.meta["stmt_index"] = index
        (tree_node if tree_node is not None else projection).meta["stmt_index"] = index
        source = self._lines[line - 1].strip() if 1 <= line <= len(self._lines) else ""
        self.statements.append(
            StatementAst(
                root=projection,
                source=source,
                file_path=self.file_path,
                repo=self.repo,
                line=line,
            )
        )

    @staticmethod
    def _ident(name: str, role: str) -> Node:
        ident = terminal("Ident", name)
        ident.meta["role"] = role
        return ident


def _to_store(expr: Node) -> Node:
    """Rewrite a load expression used as an assignment target."""
    if expr.kind == "NameLoad":
        return Node(kind="NameStore", value="NameStore", children=expr.children, meta=dict(expr.meta))
    if expr.kind == "AttributeLoad":
        return Node(
            kind="AttributeStore", value="AttributeStore", children=expr.children, meta=dict(expr.meta)
        )
    if expr.kind == "SubscriptLoad":
        return Node(
            kind="SubscriptStore", value="SubscriptStore", children=expr.children, meta=dict(expr.meta)
        )
    return expr


_OP_NAMES = {
    "+": "Add", "-": "Sub", "*": "Mult", "/": "Div", "%": "Mod",
    "<<": "LShift", ">>": "RShift", ">>>": "URShift",
    "&": "BitAnd", "|": "BitOr", "^": "BitXor",
    "&&": "And", "||": "Or", "==": "Eq", "!=": "NotEq",
    "<": "Lt", ">": "Gt", "<=": "LtE", ">=": "GtE",
    "!": "Not", "~": "Invert",
}


def _op_name(op: str) -> str:
    return _OP_NAMES.get(op, "Op")
