"""Extracting Datalog facts from a parsed module (Section 4.1).

Every file is analyzed in isolation; every public function or method is
a possible entry point.  The extractor walks the neutral AST of a
:class:`~repro.lang.moduleir.ModuleIr` and emits the input relations of
the pointer analysis (the encoding follows Smaragdakis & Balatsouras):

========================  =====================================================
``Alloc(var, heap, fn)``    ``x = C(...)`` where ``C`` is a class (in-file or
                            imported); also the implicit allocation of ``self``
``Move(to, from, fn)``      ``x = y``
``Load(to, base, fld, fn)`` ``x = y.f``
``Store(base, fld, from, fn)`` ``x.f = y``
``FormalParam(fn, i, var)`` declared parameters
``ActualParam(site, i, var)`` call arguments that are plain variables
``FormalReturn(fn, var)``   ``return x``
``ActualReturn(site, var)`` ``x = f(...)``
``CallSiteIn(site, fn)``    textual call sites per function
``ResolvesTo(site, callee)`` in-file resolution by name
``ExternalCall(site, name)`` calls leaving the file (fresh allocation)
``PrimAssign(var, type, fn)`` ``x = literal``
``ImportAlias(var, origin)``  ``import numpy as np`` / ``from m import X``
========================  =====================================================

Variables are identified per enclosing function; module-level code is
the synthetic function ``<module>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.astir import Node
from repro.lang.moduleir import ModuleIr

__all__ = ["FileFacts", "ClassInfo", "extract_facts", "MODULE_FUNC"]

MODULE_FUNC = "<module>"


@dataclass
class ClassInfo:
    """A class declared in the analyzed file."""

    name: str
    bases: list[str]
    methods: list[str] = field(default_factory=list)


@dataclass
class FileFacts:
    """All base relations extracted from one file."""

    alloc: list[tuple[str, str, str]] = field(default_factory=list)
    move: list[tuple[str, str, str]] = field(default_factory=list)
    load: list[tuple[str, str, str, str]] = field(default_factory=list)
    store: list[tuple[str, str, str, str]] = field(default_factory=list)
    formal_param: list[tuple[str, int, str]] = field(default_factory=list)
    actual_param: list[tuple[str, int, str]] = field(default_factory=list)
    formal_return: list[tuple[str, str]] = field(default_factory=list)
    actual_return: list[tuple[str, str]] = field(default_factory=list)
    call_site_in: list[tuple[str, str]] = field(default_factory=list)
    resolves_to: list[tuple[str, str]] = field(default_factory=list)
    external_call: list[tuple[str, str]] = field(default_factory=list)
    prim_assign: list[tuple[str, str, str]] = field(default_factory=list)
    import_alias: list[tuple[str, str]] = field(default_factory=list)
    #: assignments whose right-hand side the analysis cannot track; the
    #: variable's origin is then top ("modified after its creation")
    opaque_assign: list[tuple[str, str]] = field(default_factory=list)
    #: statically declared types (Java): (var, origin, func).  Declared
    #: origins survive reassignment — the static type never changes.
    decl_type: list[tuple[str, str, str]] = field(default_factory=list)
    #: definition sites: (var, func, stmt_index).  Used to make the
    #: per-statement origin environments flow-sensitive: a variable's
    #: origin only applies to statements at or after its first
    #: definition in the enclosing function.
    def_site: list[tuple[str, str, int]] = field(default_factory=list)
    #: heap-site id -> origin string (class or base-class name)
    heap_origin: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: list[str] = field(default_factory=list)
    #: statement index (``meta["stmt_index"]``) -> enclosing function id,
    #: for building per-statement origin environments later
    stmt_function: dict[int, str] = field(default_factory=dict)

    def entry_points(self) -> list[str]:
        """Public functions/methods (paper: every public method is a
        possible entry point), plus module-level code."""
        entries = [MODULE_FUNC]
        entries.extend(
            fn for fn in self.functions if not fn.rsplit(".", 1)[-1].startswith("_")
        )
        return entries


def extract_facts(module: ModuleIr) -> FileFacts:
    """Extract all relations from one parsed module."""
    extractor = _Extractor()
    extractor.visit_module(module.root)
    facts = extractor.facts
    facts.functions = list(extractor.seen_functions)
    _synthesize_value_heaps(facts)
    return facts


def _synthesize_value_heaps(facts: FileFacts) -> None:
    """Model value origins as pseudo allocation sites.

    Primitive literals allocate ``prim:<Type>`` heaps and calls leaving
    the file allocate ``ext:<callee>`` heaps, so value origins propagate
    through moves, parameters and returns exactly like object origins.
    """
    for variable, prim_type, func in facts.prim_assign:
        heap = f"prim:{prim_type}"
        facts.heap_origin[heap] = prim_type
        facts.alloc.append((variable, heap, func))
    external_by_site = dict(facts.external_call)
    for site, target in facts.actual_return:
        callee = external_by_site.get(site)
        if callee is not None:
            func = site.partition("@")[2]
            heap = f"ext:{callee}@{site}"
            facts.heap_origin[heap] = callee
            facts.alloc.append((target, heap, func))


class _Extractor:
    def __init__(self) -> None:
        self.facts = FileFacts()
        self.seen_functions: list[str] = []
        #: qualified names of in-file functions, in file order (a dict
        #: used as an ordered set: call resolution falls back to the
        #: first definition, which must not depend on the hash seed)
        self.known_functions: dict[str, None] = {}
        self._site_counter = 0
        self._heap_counter = 0
        #: statement index currently being visited (for def sites)
        self._stmt_index: int = -1

    def _record_def(self, var: str | None, func: str) -> None:
        if var:
            self.facts.def_site.append((var, func, self._stmt_index))

    # ------------------------------------------------------------------

    def visit_module(self, root: Node) -> None:
        self._collect_classes(root)
        self._collect_functions(root, class_name=None)
        self._visit_body(root, MODULE_FUNC, class_name=None)

    def _collect_functions(self, n: Node, class_name: str | None) -> None:
        """Pre-pass: every function's qualified name, so call sites
        resolve regardless of definition order in the file."""
        for child in n.children:
            if child.kind in ("ClassDef", "ClassDecl"):
                self._collect_functions(child, _class_name(child) or "<anon>")
            elif child.kind in ("FunctionDef", "MethodDecl"):
                fname = _func_name(child)
                qualified = f"{class_name}.{fname}" if class_name else fname
                self.known_functions.setdefault(qualified)
                self._collect_functions(child, class_name)
            else:
                self._collect_functions(child, class_name)

    def _collect_classes(self, root: Node) -> None:
        """First pass: class declarations, so allocations resolve."""
        for n in root.walk():
            if n.kind in ("ClassDef", "ClassDecl"):
                name = _class_name(n)
                bases = _class_bases(n)
                if name:
                    methods = [
                        _func_name(m)
                        for m in n.walk()
                        if m.kind in ("FunctionDef", "MethodDecl") and m is not n
                    ]
                    self.facts.classes[name] = ClassInfo(
                        name=name, bases=bases, methods=methods
                    )

    def _visit_body(self, n: Node, func: str, class_name: str | None) -> None:
        for child in n.children:
            self._visit_stmt(child, func, class_name)

    def _visit_stmt(self, n: Node, func: str, class_name: str | None) -> None:
        kind = n.kind
        index = n.meta.get("stmt_index")
        if index is None and kind == "ExprStmt" and n.children:
            # Expression statements project onto the bare expression,
            # so the index marker lives on the inner node.
            index = n.children[0].meta.get("stmt_index")
        if isinstance(index, int):
            self.facts.stmt_function[index] = func
            self._stmt_index = index
        if kind in ("ClassDef", "ClassDecl"):
            name = _class_name(n) or "<anon>"
            for child in n.children:
                if child.kind == "Body":
                    self._visit_body(child, func, class_name=name)
            return
        if kind in ("FunctionDef", "MethodDecl"):
            self._visit_function(n, class_name)
            return
        if kind == "Body":
            self._visit_body(n, func, class_name)
            return
        self._visit_exec_stmt(n, func)
        # Compound statements contain nested bodies and containers.
        for child in n.children:
            if child.kind in _CONTAINER_KINDS:
                self._visit_stmt(child, func, class_name)

    def _visit_function(self, n: Node, class_name: str | None) -> None:
        fname = _func_name(n)
        func = f"{class_name}.{fname}" if class_name else fname
        self.seen_functions.append(func)
        params = _params(n)
        # Methods drop the implicit receiver from positional indexing so
        # that ActualParam(site, i) lines up with FormalParam(callee, i).
        positional = params
        if class_name and params and params[0] in ("self", "this"):
            positional = params[1:]
        for index, pname in enumerate(positional):
            self.facts.formal_param.append((func, index, pname))
        # Parameters (and the receiver) are defined at the header.
        for pname in params:
            self._record_def(pname, func)
        if class_name:
            # The receiver: Python's explicit ``self`` parameter or
            # Java's implicit ``this``.
            receiver = (
                params[0] if params and params[0] in ("self", "this") else "this"
            )
            heap = self._fresh_heap()
            origin = self._self_origin(class_name)
            self.facts.heap_origin[heap] = origin
            self.facts.alloc.append((receiver, heap, func))
            self._record_def(receiver, func)
        # Declared parameter types (Java) provide static origins.
        for child in n.children:
            if child.kind == "Params":
                for param in child.children:
                    self._record_decl_type_of(param, func)
        for child in n.children:
            if child.kind == "Body":
                self._visit_body(child, func, class_name)

    def _self_origin(self, class_name: str) -> str:
        """Origin of ``self``: the root of the in-file inheritance chain
        (Figure 2: ``self`` in TestPicture(TestCase) originates from
        TestCase)."""
        seen = set()
        current = class_name
        while True:
            if current in seen:
                return current
            seen.add(current)
            info = self.facts.classes.get(current)
            if info is None or not info.bases:
                return current
            current = info.bases[0]

    # ------------------------------------------------------------------
    # Executable statements
    # ------------------------------------------------------------------

    def _visit_exec_stmt(self, n: Node, func: str) -> None:
        kind = n.kind
        if kind in ("Import", "ImportFrom"):
            self._visit_import(n)
            return
        if kind == "Assign":
            self._visit_assign(n, func)
            return
        if kind in ("AugAssign",) or kind.startswith("AugAssign"):
            target = _simple_name(n.children[0]) if n.children else None
            if target is not None:
                self.facts.opaque_assign.append((target, func))
            return
        if kind in ("VarDecl", "FieldDecl"):
            self._visit_var_decl(n, func)
            return
        if kind in ("ForEach", "Catch"):
            for child in n.children:
                if child.kind == "NameStore":
                    self._record_decl_type(child, func)
            return
        if kind == "Return" and n.children:
            value = n.children[0]
            var = _simple_name(value)
            if var is not None:
                self.facts.formal_return.append((func, var))
            elif value.kind == "Call":
                site = self._visit_call(value, func)
                if site is not None:
                    tmp = f"<ret@{site}>"
                    self.facts.actual_return.append((site, tmp))
                    self.facts.formal_return.append((func, tmp))
            return
        # Any other statement: collect the call sites it contains, but
        # stop at nested bodies — those are visited as statements of
        # their own and would otherwise register duplicate sites.
        for call in _shallow_calls(n):
            self._visit_call(call, func)

    def _visit_var_decl(self, n: Node, func: str) -> None:
        """Java ``Type x = expr;`` / field declarations."""
        store = next((c for c in n.children if c.kind == "NameStore"), None)
        if store is None:
            return
        self._record_decl_type(store, func)
        target = _terminal_value(store)
        value_children = [
            c for c in n.children if c.kind not in ("DeclType", "NameStore")
        ]
        if value_children and target:
            self._bind_value(target, value_children[-1], func)

    def _record_decl_type(self, store: Node, func: str) -> None:
        decl = store.meta.get("decl_type")
        name = _terminal_value(store)
        if isinstance(decl, str) and decl and name:
            self.facts.decl_type.append((name, _type_origin(decl), func))
            self._record_def(name, func)

    def _record_decl_type_of(self, param: Node, func: str) -> None:
        """Param nodes: Java carries a DeclType child before the name."""
        decl = None
        name = None
        for child in param.children:
            if child.kind == "DeclType":
                decl = _terminal_value(child)
            elif child.is_terminal:
                name = child.value
        if decl and name:
            self.facts.decl_type.append((name, _type_origin(decl), func))

    def _visit_import(self, n: Node) -> None:
        module_name = ""
        if n.kind == "ImportFrom" and n.children:
            module_name = _terminal_value(n.children[0])
        for child in n.children:
            if child.kind != "ImportName":
                continue
            imported = _terminal_value(child)
            alias = imported
            for sub in child.children:
                if sub.kind == "ImportAlias":
                    alias = _terminal_value(sub)
            if n.kind == "Import":
                origin = imported.split(".")[0]
                local = alias if alias != imported else imported.split(".")[0]
                self.facts.import_alias.append((local, origin))
            else:
                self.facts.import_alias.append((alias, imported))

    def _visit_assign(self, n: Node, func: str) -> None:
        if len(n.children) < 2:
            return
        *targets, value = n.children
        for target in targets:
            self._flow_into(target, value, func)

    def _flow_into(self, target: Node, value: Node, func: str) -> None:
        target_name = _simple_name(target)
        if target.kind in ("AttributeStore", "FieldStore") and len(target.children) == 2:
            base = _simple_name(target.children[0])
            fld = _terminal_value(target.children[1])
            source = _simple_name(value)
            if base and fld and source:
                self.facts.store.append((base, fld, source, func))
            elif base and fld:
                # Store of a complex expression: route through a temp.
                tmp = self._value_into_temp(value, func)
                if tmp:
                    self.facts.store.append((base, fld, tmp, func))
            return
        if target_name is None:
            return
        self._bind_value(target_name, value, func)

    def _value_into_temp(self, value: Node, func: str) -> str | None:
        tmp = f"<tmp{self._site_counter}>"
        self._site_counter += 1
        before = (
            len(self.facts.alloc),
            len(self.facts.move),
            len(self.facts.load),
            len(self.facts.prim_assign),
            len(self.facts.actual_return),
        )
        self._bind_value(tmp, value, func)
        after = (
            len(self.facts.alloc),
            len(self.facts.move),
            len(self.facts.load),
            len(self.facts.prim_assign),
            len(self.facts.actual_return),
        )
        return tmp if after != before else None

    def _bind_value(self, target: str, value: Node, func: str) -> None:
        self._record_def(target, func)
        source = _simple_name(value)
        if source is not None:
            self.facts.move.append((target, source, func))
            return
        if value.kind in ("AttributeLoad", "FieldAccess") and len(value.children) == 2:
            base = _simple_name(value.children[0])
            fld = _terminal_value(value.children[1])
            if base and fld:
                self.facts.load.append((target, base, fld, func))
            return
        if value.kind in ("Num", "Str", "Bool"):
            self.facts.prim_assign.append((target, _prim_type(value.kind), func))
            return
        if value.kind in ("Call", "MethodCall", "New"):
            site = self._visit_call(value, func)
            if site is not None:
                self.facts.actual_return.append((site, target))
            return
        # Anything else (BinOp over names, comprehension, ...) is opaque:
        # the value was "modified after its creation", i.e. origin = top.
        self.facts.opaque_assign.append((target, func))

    def _visit_call(self, call: Node, func: str) -> str | None:
        """Register one call site; returns the site id."""
        if not call.children:
            return None
        site = f"site{self._site_counter}@{func}"
        self._site_counter += 1
        callee = call.children[0]
        callee_name = _callee_name(callee) or _terminal_value(callee)
        if not callee_name:
            return None
        self.facts.call_site_in.append((site, func))

        if call.kind == "New" or callee_name in self.facts.classes:
            heap = self._fresh_heap()
            self.facts.heap_origin[heap] = callee_name
            # ``x = C()`` becomes Alloc via a synthetic return variable.
            tmp = f"<new@{site}>"
            self.facts.alloc.append((tmp, heap, callee_name))
            self.facts.resolves_to.append((site, callee_name))
            self.facts.formal_return.append((callee_name, tmp))
            # Constructors of in-file classes are reachable entry stubs.
            if callee_name not in self.seen_functions:
                self.seen_functions.append(callee_name)
            # Constructor arguments additionally flow into __init__'s
            # formals (indexing already excludes the receiver).
            info = self.facts.classes.get(callee_name)
            if info is not None and "__init__" in info.methods:
                self.facts.resolves_to.append((site, f"{callee_name}.__init__"))
        else:
            resolved = self._resolve_in_file(callee_name, callee, func)
            if resolved is not None:
                self.facts.resolves_to.append((site, resolved))
            else:
                self.facts.external_call.append((site, callee_name))

        for index, arg in enumerate(call.children[1:]):
            name = _simple_name(arg)
            if name is not None:
                self.facts.actual_param.append((site, index, name))
            elif arg.kind in ("Num", "Str", "Bool"):
                # Literal arguments flow through a synthetic temporary so
                # their primitive origin reaches the callee's formal.
                tmp = f"<lit{index}@{site}>"
                self.facts.prim_assign.append((tmp, _prim_type(arg.kind), func))
                self.facts.actual_param.append((site, index, tmp))
            # Register each call under the argument once: a registered
            # call walks its own arguments, leaving only its callee.
            stack = [arg]
            while stack:
                node = stack.pop()
                rest = node.children
                if node.kind in ("Call", "MethodCall"):
                    if self._visit_call(node, func) is not None:
                        rest = node.children[:1]
                stack.extend(reversed(rest))
        return site

    def _resolve_in_file(
        self, callee_name: str, callee: Node, func: str
    ) -> str | None:
        """Resolve a call to a function defined in the same file.

        A method call binds to the caller's own class first
        (``self.check()`` inside ``A.run`` means ``A.check``), and
        otherwise to the first same-named method in file order.
        """
        if callee_name in self.known_functions:
            return callee_name
        # Method call: resolve by name within the file's classes.
        if callee.kind in ("AttributeLoad", "FieldAccess") and callee.children:
            owner = func.rpartition(".")[0]
            if owner and f"{owner}.{callee_name}" in self.known_functions:
                return f"{owner}.{callee_name}"
            for fn in self.known_functions:
                if fn.endswith("." + callee_name):
                    return fn
        return None

    def _fresh_heap(self) -> str:
        self._heap_counter += 1
        return f"H{self._heap_counter}"


# ----------------------------------------------------------------------
# Tree inspection helpers
# ----------------------------------------------------------------------

#: Children of a statement that hold further statements.
_CONTAINER_KINDS = frozenset(
    [
        "Body", "OrElse", "Finally", "ExceptHandler", "WithItem",
        "Catch", "Resources", "Case", "VarDeclList", "FieldDeclGroup",
    ]
)


def _shallow_calls(n: Node) -> list[Node]:
    """Call nodes under ``n`` without descending into nested bodies or
    definitions."""
    out: list[Node] = []
    stack = list(n.children)
    if n.kind in ("Call", "MethodCall", "New"):
        out.append(n)
        stack = []
    while stack:
        current = stack.pop()
        if current.kind in _CONTAINER_KINDS or current.kind in (
            "FunctionDef", "MethodDecl", "ClassDef", "ClassDecl",
        ):
            continue
        if current.kind in ("Call", "MethodCall", "New"):
            out.append(current)
            continue  # _visit_call recurses into its own arguments
        stack.extend(current.children)
    return out


def _terminal_value(n: Node) -> str:
    for t in n.terminals():
        return t.value
    return ""


def _simple_name(n: Node) -> str | None:
    if n.kind in ("NameLoad", "NameStore") and n.children and n.children[0].is_terminal:
        return n.children[0].value
    return None


def _callee_name(callee: Node) -> str | None:
    if callee.kind in ("AttributeLoad", "FieldAccess") and len(callee.children) == 2:
        return _terminal_value(callee.children[1])
    return _simple_name(callee)


def _class_name(n: Node) -> str:
    for child in n.children:
        if child.kind in ("ClassDefName", "ClassDeclName"):
            return _terminal_value(child)
    return ""


def _class_bases(n: Node) -> list[str]:
    bases: list[str] = []
    for child in n.children:
        if child.kind in ("Bases", "Extends", "Implements"):
            for b in child.children:
                name = _simple_name(b) or _terminal_value(b)
                if name:
                    bases.append(name)
    return bases


def _func_name(n: Node) -> str:
    for child in n.children:
        if child.kind in ("FuncDefName", "MethodDeclName"):
            return _terminal_value(child)
    return "<anon>"


def _params(n: Node) -> list[str]:
    for child in n.children:
        if child.kind == "Params":
            return [_terminal_value(p) for p in child.children]
    return []


def _prim_type(kind: str) -> str:
    return {"Num": "Num", "Str": "Str", "Bool": "Bool"}[kind]


def _type_origin(decl: str) -> str:
    """Map a declared Java type to its origin name."""
    primitives = {
        "int": "Num", "long": "Num", "short": "Num", "byte": "Num",
        "float": "Num", "double": "Num", "char": "Str", "boolean": "Bool",
        "String": "Str",
    }
    return primitives.get(decl, decl)
