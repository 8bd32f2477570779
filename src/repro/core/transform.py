"""AST+ transformation (Section 3.1, steps 1-4).

Given a parsed statement AST, produce the *transformed* AST on which
name paths are extracted:

1. Abstract literals: numeric values become ``NUM``, strings ``STR``,
   booleans ``BOOL``.
2. Insert ``NumArgs(k)`` above every function call and definition,
   where ``k`` is the argument count.
3. Split identifier terminals into subtokens and wrap them in a
   ``NumST(k)`` node.
4. Decorate names with the *origin* of the underlying object, computed
   by the interprocedural points-to / data flow analyses (Section 4.1).
   Origin nodes are inserted between the ``NumST`` node and each
   subtoken, exactly as in Figure 2(c).

Step 4 is optional (the ``w/o A`` ablation of Tables 2 and 5 disables
it), so the transformation accepts an optional per-statement origin
environment.

The pipeline reads three things of the transformed AST: its name
paths, its structural key and the original identifier behind each
path.  :func:`transform_statement` computes them in one walk over the
parsed tree and builds the transformed tree only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.namepath import NamePath, PathStep
from repro.lang.astir import (
    BOOL_TOKEN,
    NUM_TOKEN,
    STR_TOKEN,
    Node,
    StatementAst,
    terminal,
)
from repro.naming.subtokens import split_identifier

__all__ = ["AstPlusStatement", "TransformConfig", "transform_statement"]

#: Kinds of literal wrapper nodes and the abstract token each maps to.
_LITERAL_TOKENS = {"Num": NUM_TOKEN, "Str": STR_TOKEN, "Bool": BOOL_TOKEN}

#: Kinds that receive a NumArgs(k) parent.
_CALLABLE_KINDS = {"Call", "FunctionDef", "MethodDecl", "MethodCall", "New"}

#: The prefix step from a literal's ``NumST(1)`` node to its token.
_LITERAL_STEP = PathStep("NumST(1)", 0)

#: Builds named tuples without their generated ``__new__`` frame.
_new = tuple.__new__


@dataclass(frozen=True)
class TransformConfig:
    """Knobs for the AST+ transformation.

    Attributes:
        use_origins: Apply step 4 (origin decoration).  Disabled for the
            "w/o A" ablation.
        max_subtokens: Identifiers splitting into more subtokens than
            this are kept whole (regularization; extremely long names
            only add noise to the FP tree).
    """

    use_origins: bool = True
    max_subtokens: int = 8


class AstPlusStatement(StatementAst):
    """A statement's AST+ (Section 3.1), held as the results of one walk.

    The walk over the parsed tree applies the four transformation
    steps without allocating a node; what the pipeline reads of the
    transformed tree is recorded instead:

    Attributes:
        name_paths: Every concrete name path, in extraction order
            (:func:`~repro.core.namepath.extract_name_paths` returns a
            cut of this list).
        originals: Aligned with ``name_paths``: the full identifier the
            path's end subtoken was split from, or ``None`` for literal
            and other non-identifier leaves.
        key: The structural key of the transformed tree.
        origins: The origins the walk looked up: enough, with
            ``config``, to rebuild the tree.

    ``root`` builds the transformed tree on first read; nothing on the
    mining, detection or reporting path reads it.  Pickles carry the
    walk results and the parsed root, never the built tree.
    """

    def __init__(
        self,
        parsed: StatementAst,
        name_paths: list[NamePath],
        originals: list[str | None],
        key: str,
        origins: dict[str, str],
        config: TransformConfig,
    ) -> None:
        self.parsed_root = parsed.root
        self.name_paths = name_paths
        self.originals = originals
        self.key = key
        self.origins = origins
        self.config = config
        self.source = parsed.source
        self.file_path = parsed.file_path
        self.repo = parsed.repo
        self.line = parsed.line

    @property
    def root(self) -> Node:
        built = self.__dict__.get("_root")
        if built is None:
            transformer = _Transformer(self.origins, self.config)
            built = self.__dict__["_root"] = transformer.rewrite(
                self.parsed_root, receiver=None
            )
        return built

    def structural_key(self) -> str:
        return self.key

    def original_of(self, prefix: tuple[PathStep, ...]) -> str | None:
        """The original identifier of the path with ``prefix``, if any."""
        for path, original in zip(self.name_paths, self.originals):
            if path.prefix == prefix:
                return original
        return None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_root", None)
        return state


def transform_statement(
    stmt: StatementAst,
    origins: Mapping[str, str] | None = None,
    config: TransformConfig = TransformConfig(),
) -> AstPlusStatement:
    """Transform one parsed statement into its AST+ in a single walk.

    Args:
        stmt: A parsed statement projection from a frontend.
        origins: Maps identifier names visible in this statement to
            their origin (allocation-site class, returning function,
            or library root); ``None`` or missing entries leave names
            undecorated.
        config: Transformation options.
    """
    env = origins if (config.use_origins and origins is not None) else {}
    walk = _Walk(env, config.max_subtokens)
    key = walk.visit(stmt.root, None)
    return AstPlusStatement(stmt, walk.paths, walk.originals, key, walk.used, config)


class _Walk:
    """Applies the four steps to a parsed tree without building the new
    tree, mirroring :meth:`_Transformer.rewrite` step for step.

    :meth:`visit` returns the transformed tree's structural key and
    leaves on the walk every name path in the order
    :func:`~repro.core.namepath.extract_name_paths` finds them
    (``paths``), each path's original identifier (``originals``) and
    the origins looked up (``used``).

    Plain methods over explicit state, never nested functions: a
    recursive closure refers to itself through its cell, and that cycle
    would keep every path of the statement alive until the cycle
    collector ran (``tests/test_heap.py`` pins the walk as acyclic).
    """

    __slots__ = ("env", "max_subtokens", "prefix", "paths", "originals", "used")

    def __init__(self, env: Mapping[str, str], max_subtokens: int) -> None:
        self.env = env
        self.max_subtokens = max_subtokens
        self.prefix: list[PathStep] = []
        self.paths: list[NamePath] = []
        self.originals: list[str | None] = []
        self.used: dict[str, str] = {}

    def leaf(self, end: str, original: str | None) -> None:
        self.paths.append(_new(NamePath, (tuple(self.prefix), end)))
        self.originals.append(original)

    def identifier(self, n: Node, receiver: str | None) -> str:
        name = n.value
        subtokens = split_identifier(name)
        if len(subtokens) > self.max_subtokens:
            subtokens = [name]
        numst = f"NumST({len(subtokens)})"
        origin = None
        env = self.env
        if env:
            role = n.meta.get("role", "object")
            if role == "func":
                lookup = receiver
            elif role == "object" or role == "param":
                lookup = name
            else:
                lookup = None
            if lookup is not None:
                origin = env.get(lookup)
                if origin is not None:
                    self.used[lookup] = origin
        prefix = self.prefix
        if origin is None:
            for index, sub in enumerate(subtokens):
                prefix.append(_new(PathStep, (numst, index)))
                self.leaf(sub, name)
                prefix.pop()
            return f"{numst}({','.join(subtokens)})"
        origin_step = _new(PathStep, (origin, 0))
        parts = []
        for index, sub in enumerate(subtokens):
            prefix.append(_new(PathStep, (numst, index)))
            prefix.append(origin_step)
            self.leaf(sub, name)
            prefix.pop()
            prefix.pop()
            parts.append(f"{origin}({sub})")
        return f"{numst}({','.join(parts)})"

    def visit(self, n: Node, receiver: str | None) -> str:
        kind = n.kind
        value = n.value
        prefix = self.prefix
        token = _LITERAL_TOKENS.get(kind)
        if token is not None:
            prefix.append(_new(PathStep, (value, 0)))
            prefix.append(_LITERAL_STEP)
            self.leaf(token, None)
            prefix.pop()
            prefix.pop()
            return f"{value}(NumST(1)({token}))"
        children = n.children
        if not children:
            if kind == "Ident":
                return self.identifier(n, receiver)
            self.leaf(value, None)
            return value

        wrapped = kind in _CALLABLE_KINDS
        if wrapped:
            numargs = f"NumArgs({_argument_count(n)})"
            prefix.append(_new(PathStep, (numargs, 0)))
        parts = []
        if kind == "Call" or kind == "MethodCall":
            # Only the callee subtree of a call sees the receiver (the
            # call's own for a Call, the inherited one for a
            # MethodCall); argument subtrees start fresh.
            callee = children[0]
            callee_receiver = _receiver_name(n) if kind == "Call" else receiver
            for index, child in enumerate(children):
                prefix.append(_new(PathStep, (value, index)))
                parts.append(
                    self.visit(child, callee_receiver if child is callee else None)
                )
                prefix.pop()
        else:
            for index, child in enumerate(children):
                prefix.append(_new(PathStep, (value, index)))
                parts.append(self.visit(child, receiver))
                prefix.pop()
        key = f"{value}({','.join(parts)})"
        if wrapped:
            prefix.pop()
            return f"{numargs}({key})"
        return key


@dataclass
class _Transformer:
    """Builds the transformed tree that :class:`_Walk` only describes.

    Read by :attr:`AstPlusStatement.root` (the Figure 2 example and the
    walk's differential tests); no production path builds it.
    """

    env: Mapping[str, str]
    config: TransformConfig

    def rewrite(self, n: Node, receiver: str | None) -> Node:
        """Recursively rebuild ``n`` applying all four steps."""
        if n.kind in _LITERAL_TOKENS:
            return self._literal(n)
        if n.is_terminal and n.kind == "Ident":
            return self._identifier(n, receiver)
        if n.is_terminal:
            return n.clone()

        # Compute the receiver name of a call so the callee identifier
        # can be decorated with the receiver's origin (step 4).
        child_receiver = receiver
        if n.kind == "Call":
            child_receiver = _receiver_name(n)

        rebuilt = Node(kind=n.kind, value=n.value, meta=dict(n.meta))
        for child in n.children:
            if n.kind in ("Call", "MethodCall"):
                # Only the callee subtree of a Call sees the receiver;
                # argument subtrees start fresh.
                inherited = child_receiver if _is_callee(n, child) else None
            else:
                inherited = receiver
            rebuilt.add(self.rewrite(child, inherited))

        if n.kind in _CALLABLE_KINDS:
            k = _argument_count(n)
            wrapper = Node(kind="NumArgs", value=f"NumArgs({k})")
            wrapper.add(rebuilt)
            return wrapper
        return rebuilt

    def _literal(self, n: Node) -> Node:
        """Step 1 + step 3 for literals: ``Num -> NumST(1) -> NUM``."""
        token = _LITERAL_TOKENS[n.kind]
        leaf = terminal("SubToken", token)
        leaf.meta["role"] = "literal"
        wrapper = Node(kind="NumST", value="NumST(1)", children=[leaf])
        return Node(kind=n.kind, value=n.value, children=[wrapper], meta=dict(n.meta))

    def _identifier(self, n: Node, receiver: str | None) -> Node:
        """Steps 3 + 4 for identifier terminals."""
        name = n.value
        subtokens = split_identifier(name)
        if len(subtokens) > self.config.max_subtokens:
            subtokens = [name]
        role = n.meta.get("role", "object")
        origin = self._origin_for(name, role, receiver)

        wrapper = Node(kind="NumST", value=f"NumST({len(subtokens)})")
        for index, sub in enumerate(subtokens):
            leaf = terminal("SubToken", sub)
            leaf.meta.update(n.meta)
            leaf.meta["original"] = name
            leaf.meta["st_index"] = index
            if origin is not None:
                origin_node = Node(kind="Origin", value=origin, children=[leaf])
                wrapper.add(origin_node)
            else:
                wrapper.add(leaf)
        return wrapper

    def _origin_for(self, name: str, role: str, receiver: str | None) -> str | None:
        """Resolve the origin to decorate with, if any.

        Object names use their own origin; called function names use the
        origin of the receiver object (Section 3.1, step 4).
        """
        if not self.env:
            return None
        if role == "func":
            if receiver is not None:
                return self.env.get(receiver)
            return None
        if role in ("object", "param"):
            return self.env.get(name)
        return None


def _argument_count(n: Node) -> int:
    """Number of arguments of a call or definition node."""
    if n.kind in ("Call", "MethodCall", "New"):
        return max(0, len(n.children) - 1)
    # FunctionDef/MethodDecl: count Param-ish children of the Params node.
    for child in n.children:
        if child.kind == "Params":
            return len(child.children)
    return 0


def _is_callee(parent: Node, child: Node) -> bool:
    """True when ``child`` is the callee subtree of a Call node."""
    return parent.kind in ("Call", "MethodCall") and parent.children and parent.children[0] is child


def _receiver_name(call: Node) -> str | None:
    """Extract the simple receiver name of ``call``, if syntactic.

    ``self.assertTrue(...)`` has receiver ``self``; a call through a
    complex expression (``foo().bar()``) has no simple receiver.
    """
    if not call.children:
        return None
    callee = call.children[0]
    if callee.kind in ("AttributeLoad", "FieldAccess") and callee.children:
        base = callee.children[0]
        if base.kind in ("NameLoad", "NameStore") and base.children:
            ident = base.children[0]
            if ident.is_terminal:
                return ident.value
    if callee.kind in ("NameLoad",) and callee.children:
        # Plain function call: the "receiver" is the function name itself,
        # letting module-level origins (e.g. an imported module) attach.
        ident = callee.children[0]
        if ident.is_terminal:
            return ident.value
    return None
