"""Control-flow graphs over kernel *device code* ASTs.

Device code (see :mod:`repro.gpusim.kernelapi`) is a restricted Python
dialect: straight-line statements, ``if``/``for``/``while`` control flow,
early ``return`` guards, and block barriers written as
``yield ctx.syncthreads()``.  :func:`device_fn` parses a kernel's
``device_code`` and :func:`device_args` names its ``ctx`` argument and
launch parameters, for every analysis alike.  :func:`build_cfg` turns
one device-code function definition into a statement-level CFG whose
nodes carry

* the originating AST statement (and, for branches/loops, the test),
* the enclosing *control stack* — which ``if`` arm / loop body the
  statement sits in — used by the barrier-divergence pass, and
* ``barrier`` markers, so race detection can reason about
  barrier-delimited path segments (including loop back edges).

The abstract interpreter (:mod:`repro.analysis.absint`) keys the facts
it records by node id; the graph is tiny (one node per statement), so
the passes in :mod:`repro.analysis.kernelcheck` simply BFS it.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Optional

from repro.gpusim.launch import Kernel

__all__ = [
    "CFG",
    "CFGNode",
    "Frame",
    "Liveness",
    "build_cfg",
    "compute_liveness",
    "ctx_call",
    "device_args",
    "device_fn",
    "is_barrier_stmt",
    "node_defs_uses",
    "parse_device_fn",
]


def parse_device_fn(source: str) -> ast.FunctionDef:
    """The first function definition in ``source`` (dedented)."""
    module = ast.parse(textwrap.dedent(source))
    return next(n for n in module.body if isinstance(n, ast.FunctionDef))


def device_fn(kernel: Kernel) -> Optional[ast.FunctionDef]:
    """Parse a kernel's ``device_code`` override, if it has one."""
    if type(kernel).device_code is Kernel.device_code:
        return None
    return parse_device_fn(inspect.getsource(type(kernel).device_code))


def device_args(fn: ast.FunctionDef) -> tuple[str, list[str]]:
    """The ``ctx`` argument's name and the launch parameters of ``fn``.

    ``ctx`` is the argument named so, else the one after ``self``, else
    the first; every other argument but ``self`` is a launch parameter.
    """
    names = [
        a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
    ]
    ctx = "ctx"
    if "ctx" not in names and names:
        ctx = names[1] if names[0] == "self" and len(names) > 1 else names[0]
    return ctx, [n for n in names if n not in ("self", ctx)]


def ctx_call(node: Optional[ast.AST], ctx_name: str, method: str) -> Optional[ast.Call]:
    """``node`` if it is a ``<ctx_name>.<method>(...)`` call, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == ctx_name
    ):
        return node
    return None


@dataclass(frozen=True)
class Frame:
    """One level of the control stack enclosing a statement."""

    kind: str  #: ``"if"`` or ``"loop"``
    node_id: int  #: CFG node id of the branch / loop-head node
    arm: str = ""  #: ``"then"`` / ``"else"`` for ``if`` frames


@dataclass
class CFGNode:
    """One statement (or control-flow head) of the device function."""

    id: int
    kind: str  #: ``entry`` | ``exit`` | ``stmt`` | ``barrier`` | ``branch`` | ``loop``
    stmt: Optional[ast.AST] = None
    test: Optional[ast.expr] = None  #: branch condition / ``while`` test
    succs: list[int] = field(default_factory=list)
    preds: list[int] = field(default_factory=list)
    stack: tuple[Frame, ...] = ()

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


class CFG:
    """A per-function control-flow graph."""

    def __init__(self) -> None:
        self.nodes: list[CFGNode] = []
        self.entry: int = 0
        self.exit: int = 0

    def node(self, node_id: int) -> CFGNode:
        return self.nodes[node_id]

    def add(
        self,
        kind: str,
        stmt: Optional[ast.AST] = None,
        test: Optional[ast.expr] = None,
        stack: tuple[Frame, ...] = (),
    ) -> CFGNode:
        n = CFGNode(id=len(self.nodes), kind=kind, stmt=stmt, test=test, stack=stack)
        self.nodes.append(n)
        return n

    def edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    # -- queries used by the analysis passes ---------------------------
    def barriers(self) -> list[CFGNode]:
        return [n for n in self.nodes if n.kind == "barrier"]

    def statements(self) -> list[CFGNode]:
        return [n for n in self.nodes if n.kind in ("stmt", "branch", "loop")]

    def reachable_without_barrier(self, src: int) -> set[int]:
        """Node ids reachable from ``src`` along paths that never *cross*
        a barrier (barrier nodes terminate the walk; loop back edges are
        followed, so a node can reach itself)."""
        seen: set[int] = set()
        work = list(self.nodes[src].succs)
        while work:
            nid = work.pop()
            if nid in seen:
                continue
            seen.add(nid)
            if self.nodes[nid].kind == "barrier":
                continue
            work.extend(self.nodes[nid].succs)
        return seen


def is_barrier_stmt(stmt: ast.stmt) -> bool:
    """Match the canonical barrier form ``yield ctx.syncthreads()``."""
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Yield):
        return False
    call = stmt.value.value
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "syncthreads"
    )


class _Builder:
    """Recursive-descent CFG construction with loop break/continue plumbing."""

    def __init__(self) -> None:
        self.cfg = CFG()
        entry = self.cfg.add("entry")
        exit_ = self.cfg.add("exit")
        self.cfg.entry, self.cfg.exit = entry.id, exit_.id
        #: per enclosing loop: (loop-head id, break-target collector)
        self._loops: list[tuple[int, list[int]]] = []

    def build(self, fn: ast.FunctionDef) -> CFG:
        frontier = self._body(fn.body, [self.cfg.entry], ())
        for nid in frontier:
            self.cfg.edge(nid, self.cfg.exit)
        return self.cfg

    # ------------------------------------------------------------------
    def _body(
        self, stmts: list[ast.stmt], preds: list[int], stack: tuple[Frame, ...]
    ) -> list[int]:
        frontier = list(preds)
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier, stack)
            if not frontier:  # everything returned/broke/continued
                break
        return frontier

    def _stmt(
        self, stmt: ast.stmt, preds: list[int], stack: tuple[Frame, ...]
    ) -> list[int]:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            branch = cfg.add("branch", stmt, stmt.test, stack)
            for p in preds:
                cfg.edge(p, branch.id)
            then_stack = (*stack, Frame("if", branch.id, "then"))
            then_f = self._body(stmt.body, [branch.id], then_stack)
            if stmt.orelse:
                else_stack = (*stack, Frame("if", branch.id, "else"))
                else_f = self._body(stmt.orelse, [branch.id], else_stack)
            else:
                else_f = [branch.id]  # fall-through edge
            return then_f + else_f

        if isinstance(stmt, (ast.For, ast.While)):
            test = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            head = cfg.add("loop", stmt, test, stack)
            for p in preds:
                cfg.edge(p, head.id)
            breaks: list[int] = []
            self._loops.append((head.id, breaks))
            body_stack = (*stack, Frame("loop", head.id))
            body_f = self._body(stmt.body, [head.id], body_stack)
            self._loops.pop()
            for nid in body_f:
                cfg.edge(nid, head.id)  # back edge
            # the zero-trip / loop-exit path falls out of the head
            out = [head.id, *breaks]
            if stmt.orelse:
                out = self._body(stmt.orelse, out, stack)
            return out

        if isinstance(stmt, ast.Return):
            node = cfg.add("stmt", stmt, None, stack)
            for p in preds:
                cfg.edge(p, node.id)
            cfg.edge(node.id, cfg.exit)
            return []

        if isinstance(stmt, ast.Continue):
            node = cfg.add("stmt", stmt, None, stack)
            for p in preds:
                cfg.edge(p, node.id)
            if self._loops:
                cfg.edge(node.id, self._loops[-1][0])
            return []

        if isinstance(stmt, ast.Break):
            node = cfg.add("stmt", stmt, None, stack)
            for p in preds:
                cfg.edge(p, node.id)
            if self._loops:
                self._loops[-1][1].append(node.id)
            return []

        if isinstance(stmt, ast.With):
            node = cfg.add("stmt", stmt, None, stack)
            for p in preds:
                cfg.edge(p, node.id)
            return self._body(stmt.body, [node.id], stack)

        if isinstance(stmt, ast.Try):
            # device code has no try/except in practice; flatten body,
            # else, handlers and finally in turn, so the analysis never
            # crashes on one and every statement gets a node
            f = self._body(stmt.body, preds, stack)
            f = self._body(stmt.orelse, f, stack)
            for handler in stmt.handlers:
                f = self._body(handler.body, f, stack)
            if stmt.finalbody:
                f = self._body(stmt.finalbody, f, stack)
            return f

        kind = "barrier" if is_barrier_stmt(stmt) else "stmt"
        node = cfg.add(kind, stmt, None, stack)
        for p in preds:
            cfg.edge(p, node.id)
        return [node.id]


def build_cfg(fn: ast.FunctionDef) -> CFG:
    """Build the statement-level CFG of one device-code function."""
    return _Builder().build(fn)


# ======================================================================
# def/use + liveness (feeds the KC006 register-pressure estimate)
# ======================================================================
def node_defs_uses(node: CFGNode) -> tuple[frozenset[str], frozenset[str]]:
    """Names *defined* and *used* by one CFG node.

    Only the node's own header is considered — a branch contributes its
    test, a ``for`` head its target and iterable — never the nested
    body, which has its own nodes.  ``buf[i] = x`` defines nothing
    (``buf`` and ``i`` are uses); an augmented assignment both defines
    and uses its target.
    """
    s = node.stmt
    exprs: list[ast.expr] = []
    aug_target: Optional[ast.expr] = None
    if node.kind == "branch":
        exprs = [node.test] if node.test is not None else []
    elif node.kind == "loop":
        if isinstance(s, ast.For):
            exprs = [s.target, s.iter]
        elif node.test is not None:
            exprs = [node.test]
    elif isinstance(s, ast.Assign):
        exprs = [*s.targets, s.value]
    elif isinstance(s, ast.AnnAssign):
        exprs = [e for e in (s.target, s.value) if e is not None]
    elif isinstance(s, ast.AugAssign):
        exprs = [s.target, s.value]
        aug_target = s.target
    elif isinstance(s, ast.Expr):
        exprs = [s.value]
    elif isinstance(s, ast.Return):
        exprs = [s.value] if s.value is not None else []
    elif isinstance(s, ast.With):
        exprs = [i.context_expr for i in s.items]
        exprs += [i.optional_vars for i in s.items if i.optional_vars is not None]
    defs: set[str] = set()
    uses: set[str] = set()
    for e in exprs:
        for sub in ast.walk(e):
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, ast.Store):
                    defs.add(sub.id)
                elif isinstance(sub.ctx, ast.Load):
                    uses.add(sub.id)
    if isinstance(aug_target, ast.Name):
        uses.add(aug_target.id)
    return frozenset(defs), frozenset(uses)


@dataclass
class Liveness:
    """Per-node def/use sets and the live-variable fixpoint.

    ``loop_carried`` holds names whose value survives a loop back edge
    (live into the loop head along a back edge *and* redefined inside
    that loop) — the values a compiler must keep resident across an
    entire iteration rather than within one.
    """

    defs: dict[int, frozenset[str]]
    uses: dict[int, frozenset[str]]
    live_in: dict[int, frozenset[str]]
    live_out: dict[int, frozenset[str]]
    loop_carried: frozenset[str]


def _in_loop(node: CFGNode, head_id: int) -> bool:
    return any(fr.kind == "loop" and fr.node_id == head_id for fr in node.stack)


def compute_liveness(cfg: CFG) -> Liveness:
    """Backward live-variable dataflow over the statement CFG."""
    defs: dict[int, frozenset[str]] = {}
    uses: dict[int, frozenset[str]] = {}
    for n in cfg.nodes:
        defs[n.id], uses[n.id] = node_defs_uses(n)
    empty: frozenset[str] = frozenset()
    live_in = {n.id: empty for n in cfg.nodes}
    live_out = {n.id: empty for n in cfg.nodes}
    changed = True
    while changed:
        changed = False
        for n in reversed(cfg.nodes):
            out = empty.union(*(live_in[s] for s in n.succs)) if n.succs else empty
            inn = uses[n.id] | (out - defs[n.id])
            if out != live_out[n.id] or inn != live_in[n.id]:
                live_out[n.id], live_in[n.id] = out, inn
                changed = True

    carried: set[str] = set()
    for u in cfg.nodes:
        for v_id in u.succs:
            head = cfg.node(v_id)
            # a succ edge into a loop head from inside its own body is
            # the back edge (entry edges come from outside the frame)
            if head.kind != "loop" or not _in_loop(u, v_id):
                continue
            inside = [w for w in cfg.nodes if w.id == v_id or _in_loop(w, v_id)]
            defined_inside = empty.union(*(defs[w.id] for w in inside))
            carried |= live_out[u.id] & live_in[v_id] & defined_inside
    return Liveness(defs, uses, live_in, live_out, frozenset(carried))
