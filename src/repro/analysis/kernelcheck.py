"""kernelcheck — static verification of simulated-GPU device kernels.

The runtime gpusanitizer (:mod:`repro.gpusim.sanitizer`) can only judge
schedules that actually execute; this module verifies the kernel
invariants **over all paths, before any launch**, by analyzing the
``device_code`` generator of each :class:`~repro.gpusim.launch.Kernel`
(AST → CFG via :mod:`repro.analysis.cfg` → dataflow).  Six passes:

``KC001`` — barrier divergence
    A ``yield ctx.syncthreads()`` that is control-dependent on a
    *thread-dependent* condition (dataflow taint from
    ``ctx.thread_idx`` / ``ctx.global_id`` through assignments) without
    a matching barrier on the sibling path, a barrier inside a loop
    whose trip count is thread-dependent, or a thread-dependent early
    ``return`` that skips a downstream barrier.  All are the UB class
    :class:`~repro.gpusim.kernelapi.BarrierDivergenceError` catches at
    runtime — on the one schedule that ran.

``KC002`` — shared-memory race
    A write to a ``ctx.shared(...)`` buffer and a read/write of the
    same buffer connected by a barrier-free CFG path (loop back edges
    included), where the two accesses may come from different threads
    and may touch the same slot.  Per-thread slots (identical
    tid-affine index expressions) and same-single-thread-guarded
    accesses (``if tid == 0:``) are exempt.

``KC003`` — uncoalesced global access
    Global-buffer index expressions that are affine in the thread id
    with |stride| > 1, or non-affine pure functions of the thread id
    (``tid * tid``).  Runtime-dependent gathers (index loaded from
    another array, symbolic strides) are no longer skipped: the
    abstract interpreter (:mod:`repro.analysis.absint`) classifies each
    access uniform / coalesced / strided / bounded-stride /
    gather-bounded / gather-unbounded in the report's access table.

``KC004`` — static resources / occupancy
    Shared bytes are extracted from the ``ctx.shared`` shapes as a
    function of ``block_dim`` and cross-checked against the kernel's
    declared ``shared_mem_per_block``; the declared footprint plus the
    register estimate feed :func:`repro.gpusim.occupancy.occupancy` to
    predict occupancy per ``(block_dim, DeviceSpec)`` — the exact
    computation :func:`repro.gpusim.launch.launch` performs, so the
    static table provably matches the simulator's achieved occupancy.

``KC005`` — static bounds proofs
    The abstract interpreter (interval × tid-affine product domain with
    widening, :mod:`repro.analysis.absint`) attempts to prove every
    global/shared array access in-bounds against the buffer-length and
    value contracts each kernel declares via
    :meth:`~repro.gpusim.launch.Kernel.value_invariants`.  A shared
    access that can exceed its declared shape, or a contract-covered
    global access whose index interval is not contained in
    ``[0, len)``, is an error — caught before the runtime memcheck
    ever launches.  Global accesses with no contract are reported as
    *assumed*, never as findings.

``KC006`` — register-pressure estimate
    Backward liveness over the statement CFG
    (:func:`repro.analysis.cfg.compute_liveness`) gives max-live-across-
    program-points of the kernel's locals, with loop-carried values
    weighted double (they stay resident across whole iterations).  The
    estimate replaces the old locals+params count proxy and is checked
    against the kernel's declared ``registers_per_thread``; declaring
    fewer registers than the estimate is a warning because the
    occupancy table would be optimistic.

``analyze_shipped()`` runs all passes over the registered kernel set
(:func:`repro.kernels.shipped_kernels`); the CLI front end is
``repro analyze kernels [--format json] [--fail-on warn|error]``.
"""

from __future__ import annotations

import ast
import inspect
import json
import sys
import textwrap
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, TypeGuard

import numpy as np

from repro.analysis.absint import (
    AbsintResult,
    AccessRecord,
    ContractError,
    KernelInvariants,
    interpret_kernel,
)
from repro.analysis.cfg import CFG, CFGNode, build_cfg, compute_liveness
from repro.analysis.costmodel import KernelCostModel, derive_cost_from_result
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import Kernel
from repro.gpusim.occupancy import OccupancyLimits, occupancy

__all__ = [
    "Finding",
    "KernelReport",
    "OccupancyEntry",
    "SharedDecl",
    "analyze_device_source",
    "analyze_kernel",
    "analyze_shipped",
    "static_occupancy_table",
    "main",
]

#: block dims the static occupancy table is evaluated at by default
DEFAULT_BLOCK_DIMS: tuple[int, ...] = (64, 128, 256)

SEVERITY_ORDER = {"warn": 0, "error": 1}


# ======================================================================
# report datatypes
# ======================================================================
@dataclass(frozen=True)
class Finding:
    """One static-analysis violation in one kernel."""

    rule: str  #: KC001..KC004
    severity: str  #: ``"error"`` or ``"warn"``
    kernel: str
    line: int  #: 1-based line within the ``device_code`` source
    message: str

    def render(self) -> str:
        return f"{self.kernel}:{self.line}: {self.rule} [{self.severity}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "kernel": self.kernel,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class OccupancyEntry:
    """Predicted occupancy for one ``(block_dim, DeviceSpec)`` pair."""

    block_dim: int
    spec: str
    shared_bytes: int
    registers_per_thread: int
    feasible: bool
    active_blocks_per_sm: int = 0
    active_warps_per_sm: int = 0
    max_warps_per_sm: int = 0
    fraction: float = 0.0
    limiter: str = ""

    def as_dict(self) -> dict:
        return {
            "block_dim": self.block_dim,
            "spec": self.spec,
            "shared_bytes": self.shared_bytes,
            "registers_per_thread": self.registers_per_thread,
            "feasible": self.feasible,
            "active_blocks_per_sm": self.active_blocks_per_sm,
            "active_warps_per_sm": self.active_warps_per_sm,
            "max_warps_per_sm": self.max_warps_per_sm,
            "fraction": round(self.fraction, 6),
            "limiter": self.limiter,
        }


@dataclass(frozen=True)
class SharedDecl:
    """One ``ctx.shared(name, shape, dtype)`` declaration site."""

    name: str
    shape: str  #: unparsed shape expression
    dtype: str
    itemsize: Optional[int]
    line: int

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "shape": self.shape,
            "dtype": self.dtype,
            "itemsize": self.itemsize,
            "line": self.line,
        }


@dataclass
class KernelReport:
    """Full static-analysis result for one kernel."""

    kernel: str
    has_device_code: bool
    barriers: int
    registers_per_thread: int
    register_proxy: Optional[int]
    shared_decls: list[SharedDecl]
    static_shared_bytes: dict[int, Optional[int]]
    declared_shared_bytes: dict[int, int]
    occupancy: list[OccupancyEntry]
    findings: list[Finding] = field(default_factory=list)
    #: KC006 weighted max-live register estimate (None = no device code)
    register_estimate: Optional[int] = None
    #: KC005/KC003 per-access table (AccessRecord dicts)
    accesses: list[dict] = field(default_factory=list)
    #: KC007 symbolic cost model report (None = no device code)
    cost: Optional[dict] = None

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "has_device_code": self.has_device_code,
            "barriers": self.barriers,
            "registers_per_thread": self.registers_per_thread,
            "register_proxy": self.register_proxy,
            "shared_decls": [d.as_dict() for d in self.shared_decls],
            "static_shared_bytes": {
                str(k): v for k, v in self.static_shared_bytes.items()
            },
            "declared_shared_bytes": {
                str(k): v for k, v in self.declared_shared_bytes.items()
            },
            "occupancy": [e.as_dict() for e in self.occupancy],
            "findings": [f.as_dict() for f in self.findings],
            "register_estimate": self.register_estimate,
            "accesses": self.accesses,
            "cost": self.cost,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# ======================================================================
# thread-dependence ("taint") dataflow values
# ======================================================================
@dataclass(frozen=True)
class Val:
    """Abstract value of an expression for one thread.

    ``tid`` is the coefficient of the thread id if the value is affine
    in it with a compile-time-constant coefficient (``None`` = unknown
    or non-affine); ``uniform`` means identical across all threads of a
    block; ``pure`` means built only from the thread id and literals;
    ``const`` is a known compile-time integer value.
    """

    tid: Optional[int]
    uniform: bool
    pure: bool
    const: Optional[int] = None

    @staticmethod
    def constant(k: Optional[int] = None) -> "Val":
        return Val(0, True, True, k)

    @staticmethod
    def uniform_sym() -> "Val":
        return Val(0, True, False, None)

    @staticmethod
    def data() -> "Val":
        return Val(None, False, False, None)

    def join(self, other: "Val") -> "Val":
        return Val(
            self.tid if self.tid == other.tid else None,
            self.uniform and other.uniform,
            self.pure and other.pure,
            self.const if self.const == other.const else None,
        )


def _join_all(vals: Iterable[Val]) -> Val:
    out = Val.constant()
    for v in vals:
        out = Val(
            0 if (out.tid == 0 and v.tid == 0) else None,
            out.uniform and v.uniform,
            out.pure and v.pure,
            None,
        )
    return out


#: ``ctx`` attributes that are uniform within a block
_CTX_UNIFORM = {"block_idx", "block_dim", "grid_dim"}
#: ``ctx`` attributes carrying the thread id
_CTX_THREAD = {"thread_idx", "global_id"}
#: builtins that preserve the numeric value (and so its affinity)
_VALUE_PRESERVING = {"int", "float"}
#: builtins that are uniform-preserving but destroy affinity
_UNIFORMISH_CALLS = {"min", "max", "abs", "round", "len", "range", "bool"}


class _DeviceFn:
    """Parsed device code plus its dataflow environment."""

    def __init__(self, fn: ast.FunctionDef):
        self.fn = fn
        arg_names = [a.arg for a in (*fn.args.posonlyargs, *fn.args.args)]
        kw_names = [a.arg for a in fn.args.kwonlyargs]
        self.ctx_name = "ctx" if "ctx" in arg_names + kw_names else (
            arg_names[1] if len(arg_names) > 1 else (arg_names[0] if arg_names else "ctx")
        )
        self.params = {
            n for n in (*arg_names, *kw_names) if n not in ("self", self.ctx_name)
        }
        self.env: dict[str, Val] = {}
        self.shared: dict[str, SharedDecl] = {}  # local var name -> decl
        self.shared_shapes: dict[str, ast.expr] = {}  # var name -> shape expr
        self.blockdim_aliases: set[str] = set()
        self.assigned: set[str] = set()
        self.cfg: CFG = build_cfg(fn)
        self._fixpoint()

    # -- environment construction --------------------------------------
    def _fixpoint(self) -> None:
        for _ in range(10):
            before = dict(self.env)
            self._walk_body(self.fn.body)
            if self.env == before:
                break

    def _walk_body(self, stmts: Sequence[ast.stmt]) -> None:
        for s in stmts:
            self._walk_stmt(s)

    def _walk_stmt(self, s: ast.stmt) -> None:
        if isinstance(s, ast.Assign):
            self._assign(s.targets, s.value)
        elif isinstance(s, ast.AnnAssign):
            if s.value is not None:
                self._assign([s.target], s.value)
        elif isinstance(s, ast.AugAssign):
            if isinstance(s.target, ast.Name):
                combined = Val(None, False, False, None)
                old = self.env.get(s.target.id)
                v = self.eval(s.value)
                if old is not None:
                    combined = Val(
                        None
                        if old.tid is None or v.tid is None
                        else old.tid + v.tid
                        if isinstance(s.op, ast.Add)
                        else None,
                        old.uniform and v.uniform,
                        old.pure and v.pure,
                        None,
                    )
                self._bind(s.target.id, combined)
        elif isinstance(s, ast.For):
            it = self.eval(s.iter)
            v = (
                Val(0, True, it.pure, None)
                if it.uniform
                else Val.data()
            )
            for t in self._target_names(s.target):
                self._bind(t, v)
            self._walk_body(s.body)
            self._walk_body(s.orelse)
        elif isinstance(s, ast.While):
            self._walk_body(s.body)
            self._walk_body(s.orelse)
        elif isinstance(s, ast.If):
            self._walk_body(s.body)
            self._walk_body(s.orelse)
        elif isinstance(s, ast.With):
            self._walk_body(s.body)
        elif isinstance(s, ast.Try):
            self._walk_body(s.body)
            for h in s.handlers:
                self._walk_body(h.body)
            self._walk_body(s.orelse)
            self._walk_body(s.finalbody)

    @staticmethod
    def _target_names(target: ast.expr) -> list[str]:
        if isinstance(target, ast.Name):
            return [target.id]
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[str] = []
            for e in target.elts:
                out.extend(_DeviceFn._target_names(e))
            return out
        return []

    def _bind(self, name: str, v: Val) -> None:
        self.assigned.add(name)
        old = self.env.get(name)
        self.env[name] = v if old is None else old.join(v)

    def _assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        # ctx.shared(...) produces a block-shared buffer handle
        if self._is_ctx_call(value, "shared") and len(targets) == 1:
            t = targets[0]
            if isinstance(t, ast.Name):
                decl = self._shared_decl(value)
                self.shared[t.id] = decl
                self.shared_shapes[t.id] = (
                    value.args[1] if len(value.args) > 1 else ast.Constant(0)
                )
                self._bind(t.id, Val.uniform_sym())
            return
        # track aliases of ctx.block_dim for shape evaluation
        if (
            len(targets) == 1
            and isinstance(targets[0], ast.Name)
            and isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == self.ctx_name
            and value.attr == "block_dim"
        ):
            self.blockdim_aliases.add(targets[0].id)
        for t in targets:
            if isinstance(t, (ast.Tuple, ast.List)) and isinstance(
                value, (ast.Tuple, ast.List)
            ) and len(t.elts) == len(value.elts):
                for te, ve in zip(t.elts, value.elts, strict=True):
                    self._assign([te], ve)
            else:
                v = self.eval(value)
                for n in self._target_names(t):
                    self._bind(n, v)

    def _is_ctx_call(self, node: ast.expr, attr: str) -> TypeGuard[ast.Call]:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self.ctx_name
        )

    def _shared_decl(self, call: ast.Call) -> SharedDecl:
        name = "?"
        if call.args and isinstance(call.args[0], ast.Constant):
            name = str(call.args[0].value)
        shape = ast.unparse(call.args[1]) if len(call.args) > 1 else "?"
        dtype_expr = call.args[2] if len(call.args) > 2 else None
        dtype_name, itemsize = _resolve_dtype(dtype_expr)
        return SharedDecl(
            name=name,
            shape=shape,
            dtype=dtype_name,
            itemsize=itemsize,
            line=call.lineno,
        )

    # -- expression evaluation -----------------------------------------
    def eval(self, node: Optional[ast.expr]) -> Val:
        if node is None:
            return Val.constant()
        if isinstance(node, ast.Constant):
            k = node.value if isinstance(node.value, (int, bool)) else None
            return Val.constant(int(k) if k is not None else None)
        if isinstance(node, ast.Name):
            if node.id == self.ctx_name:
                return Val.uniform_sym()
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.params:
                return Val.uniform_sym()  # launch args are per-grid
            return Val.uniform_sym()  # builtins / module globals
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == self.ctx_name:
                if node.attr in _CTX_THREAD:
                    # global_id mixes in uniform block terms → not pure
                    pure = node.attr == "thread_idx"
                    return Val(1, False, pure, None)
                if node.attr in _CTX_UNIFORM:
                    return Val.uniform_sym()
                return Val.uniform_sym()
            base = self.eval(node.value)
            return Val(0 if base.uniform else None, base.uniform, False, None)
        if isinstance(node, ast.Subscript):
            idx = self.eval(node.slice)
            if idx.uniform:
                return Val.uniform_sym()
            return Val.data()
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.UnaryOp):
            v = self.eval(node.operand)
            if isinstance(node.op, ast.USub):
                return Val(
                    -v.tid if v.tid is not None else None,
                    v.uniform,
                    v.pure,
                    -v.const if v.const is not None else None,
                )
            if isinstance(node.op, ast.Not):
                return Val(0 if v.uniform else None, v.uniform, v.pure, None)
            return Val(v.tid, v.uniform, v.pure, None)
        if isinstance(node, (ast.Compare, ast.BoolOp)):
            ops = (
                [node.left, *node.comparators]
                if isinstance(node, ast.Compare)
                else node.values
            )
            return _join_all(self.eval(o) for o in ops)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.IfExp):
            joined = self.eval(node.body).join(self.eval(node.orelse))
            test = self.eval(node.test)
            if not test.uniform:
                return Val(None, False, joined.pure and test.pure, None)
            return joined
        if isinstance(node, (ast.Tuple, ast.List)):
            return _join_all(self.eval(e) for e in node.elts)
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        return Val.data()

    def _binop(self, node: ast.BinOp) -> Val:
        a, b = self.eval(node.left), self.eval(node.right)
        uniform = a.uniform and b.uniform
        pure = a.pure and b.pure
        if isinstance(node.op, (ast.Add, ast.Sub)):
            sign = 1 if isinstance(node.op, ast.Add) else -1
            tid = (
                a.tid + sign * b.tid
                if a.tid is not None and b.tid is not None
                else None
            )
            const = (
                a.const + sign * b.const
                if a.const is not None and b.const is not None
                else None
            )
            return Val(tid, uniform, pure, const)
        if isinstance(node.op, ast.Mult):
            if a.const is not None and b.tid is not None:
                return Val(
                    a.const * b.tid,
                    uniform,
                    pure,
                    a.const * b.const if b.const is not None else None,
                )
            if b.const is not None and a.tid is not None:
                return Val(
                    b.const * a.tid,
                    uniform,
                    pure,
                    b.const * a.const if a.const is not None else None,
                )
            if uniform:
                return Val(0, True, pure, None)
            return Val(None, False, pure, None)
        # div / floordiv / mod / pow / shifts: non-affine in the thread id
        if uniform:
            return Val(0, True, pure, None)
        return Val(None, False, pure, None)

    def _call(self, node: ast.Call) -> Val:
        fname = None
        if isinstance(node.func, ast.Name):
            fname = node.func.id
        elif isinstance(node.func, ast.Attribute):
            fname = node.func.attr
        args = [self.eval(a) for a in node.args]
        if fname in _VALUE_PRESERVING and len(args) == 1:
            return args[0]
        if fname in _UNIFORMISH_CALLS:
            uniform = all(a.uniform for a in args)
            return Val(
                0 if uniform else None,
                uniform,
                all(a.pure for a in args),
                None,
            )
        if self._is_ctx_call(node, "shared") or fname == "syncthreads":
            return Val.uniform_sym()
        if fname in ("atomic_add", "atomic_min", "result_reserve"):
            return Val.data()
        uniform = all(a.uniform for a in args)
        return Val(0 if uniform else None, uniform, False, None)


def _resolve_dtype(node: Optional[ast.expr]) -> tuple[str, Optional[int]]:
    """Best-effort dtype name + itemsize from a dtype expression."""
    if node is None:
        return "?", None
    name: Optional[str] = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    if name is None:
        return ast.unparse(node), None
    try:
        return name, int(np.dtype(name).itemsize)
    except TypeError:
        return name, None


# ======================================================================
# access extraction
# ======================================================================
@dataclass(frozen=True)
class _Access:
    node_id: int
    buffer: str  #: shared-buffer name or global param name
    shared: bool
    write: bool
    idx_dump: str
    idx_text: str
    idx: Val
    guard: Optional[str]  #: dump of a single-thread pin (``tid == 0``), if any
    line: int


def _node_exprs(node: CFGNode) -> list[ast.expr]:
    s = node.stmt
    if node.kind == "branch":
        return [node.test] if node.test is not None else []
    if node.kind == "loop":
        if isinstance(s, ast.For):
            return [s.iter]
        return [node.test] if node.test is not None else []
    if isinstance(s, ast.Assign):
        return [*s.targets, s.value]
    if isinstance(s, ast.AugAssign):
        return [s.target, s.value]
    if isinstance(s, ast.AnnAssign):
        return [e for e in (s.target, s.value) if e is not None]
    if isinstance(s, ast.Expr):
        return [s.value]
    if isinstance(s, ast.Return):
        return [s.value] if s.value is not None else []
    if isinstance(s, ast.With):
        return [i.context_expr for i in s.items]
    return []


def _single_thread_guard(df: _DeviceFn, node: CFGNode) -> Optional[str]:
    """Dump of an enclosing ``tid == <uniform>`` pin, if one exists."""
    for frame in node.stack:
        if frame.kind != "if":
            continue
        test = df.cfg.node(frame.node_id).test
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            continue
        if not isinstance(test.ops[0], ast.Eq):
            continue
        left, right = df.eval(test.left), df.eval(test.comparators[0])
        if (left.tid == 1 and right.uniform) or (right.tid == 1 and left.uniform):
            return ast.dump(test)
    return None


def _extract_accesses(df: _DeviceFn) -> list[_Access]:
    accesses: list[_Access] = []
    aug_targets: set[int] = set()
    for node in df.cfg.statements():
        if isinstance(node.stmt, ast.AugAssign) and isinstance(
            node.stmt.target, ast.Subscript
        ):
            aug_targets.add(id(node.stmt.target))
        guard = _single_thread_guard(df, node)
        for expr in _node_exprs(node):
            for sub in ast.walk(expr):
                if not isinstance(sub, ast.Subscript):
                    continue
                if not isinstance(sub.value, ast.Name):
                    continue
                base = sub.value.id
                is_shared = base in df.shared
                if not is_shared and base not in df.params:
                    continue
                buffer = df.shared[base].name if is_shared else base
                idx = df.eval(sub.slice)
                writes = [isinstance(sub.ctx, ast.Store)]
                if id(sub) in aug_targets:
                    writes = [True, False]  # read-modify-write
                for w in writes:
                    accesses.append(
                        _Access(
                            node_id=node.id,
                            buffer=buffer,
                            shared=is_shared,
                            write=w,
                            idx_dump=ast.dump(sub.slice),
                            idx_text=ast.unparse(sub.slice),
                            idx=idx,
                            guard=guard,
                            line=sub.lineno,
                        )
                    )
    return accesses


# ======================================================================
# passes KC001–KC003 (device-code passes)
# ======================================================================
def _pass_kc001(df: _DeviceFn, kernel_name: str) -> list[Finding]:
    findings: list[Finding] = []
    cfg = df.cfg
    barriers = cfg.barriers()
    seen_loops: set[int] = set()
    seen_branches: set[int] = set()

    def barrier_count_in_arm(branch_id: int, arm: str) -> int:
        return sum(
            1
            for b in barriers
            if any(
                fr.kind == "if" and fr.node_id == branch_id and fr.arm == arm
                for fr in b.stack
            )
        )

    for b in barriers:
        for frame in b.stack:
            ctrl = cfg.node(frame.node_id)
            tainted = not df.eval(ctrl.test).uniform
            if not tainted:
                continue
            if frame.kind == "loop" and frame.node_id not in seen_loops:
                seen_loops.add(frame.node_id)
                findings.append(
                    Finding(
                        "KC001",
                        "error",
                        kernel_name,
                        b.line,
                        "barrier inside a loop with thread-dependent trip "
                        f"count (loop at line {ctrl.line}: "
                        f"'{ast.unparse(ctrl.test) if ctrl.test else '?'}'); "
                        "threads may execute different barrier sequences",
                    )
                )
            elif frame.kind == "if" and frame.node_id not in seen_branches:
                then_n = barrier_count_in_arm(frame.node_id, "then")
                else_n = barrier_count_in_arm(frame.node_id, "else")
                if then_n != else_n:
                    seen_branches.add(frame.node_id)
                    findings.append(
                        Finding(
                            "KC001",
                            "error",
                            kernel_name,
                            b.line,
                            "barrier under thread-dependent branch at line "
                            f"{ctrl.line} "
                            f"('{ast.unparse(ctrl.test) if ctrl.test else '?'}') "
                            f"without a matching barrier on the sibling path "
                            f"({then_n} vs {else_n})",
                        )
                    )

    # thread-dependent early return that skips a downstream barrier
    for node in cfg.statements():
        if not isinstance(node.stmt, ast.Return):
            continue
        for frame in node.stack:
            if frame.kind != "if":
                continue
            branch = cfg.node(frame.node_id)
            if df.eval(branch.test).uniform:
                continue
            divergent = [
                b
                for b in barriers
                if not any(
                    fr.kind == "if"
                    and fr.node_id == frame.node_id
                    and fr.arm == frame.arm
                    for fr in b.stack
                )
                and b.id in _reachable(cfg, frame.node_id)
            ]
            if divergent:
                findings.append(
                    Finding(
                        "KC001",
                        "error",
                        kernel_name,
                        node.line,
                        "thread-dependent early return (branch at line "
                        f"{branch.line}: "
                        f"'{ast.unparse(branch.test) if branch.test else '?'}') "
                        f"while block-mates still reach the barrier at line "
                        f"{divergent[0].line}",
                    )
                )
                break
    return findings


def _reachable(cfg: CFG, src: int) -> set[int]:
    seen: set[int] = set()
    work = list(cfg.node(src).succs)
    while work:
        nid = work.pop()
        if nid in seen:
            continue
        seen.add(nid)
        work.extend(cfg.node(nid).succs)
    return seen


def _pass_kc002(df: _DeviceFn, kernel_name: str) -> list[Finding]:
    findings: list[Finding] = []
    accesses = [a for a in _extract_accesses(df) if a.shared]
    if not accesses:
        return findings
    reach = {
        nid: df.cfg.reachable_without_barrier(nid)
        for nid in {a.node_id for a in accesses}
    }
    reported: set[tuple] = set()

    def report(key: tuple, line: int, message: str) -> None:
        if key in reported:
            return
        reported.add(key)
        findings.append(Finding("KC002", "error", kernel_name, line, message))

    # a uniform-index write performed by every thread races with itself
    for a in accesses:
        if a.write and a.idx.uniform and a.guard is None:
            report(
                ("self", a.buffer, a.line),
                a.line,
                f"all threads of the block write shared buffer "
                f"'{a.buffer}[{a.idx_text}]' (same slot, no single-thread "
                f"guard)",
            )

    def conflict(a: _Access, b: _Access) -> bool:
        if not (a.write or b.write):
            return False
        if a.guard is not None and a.guard == b.guard:
            return False  # both pinned to the same single thread
        if a.idx_dump == b.idx_dump and not a.idx.uniform:
            return False  # each thread touches its own slot in both
        if (
            a.idx.const is not None
            and b.idx.const is not None
            and a.idx.const != b.idx.const
        ):
            return False  # provably disjoint constant slots
        if a.idx_dump == b.idx_dump and a.idx.uniform and a.guard == b.guard:
            # same uniform slot: racy unless single-thread (handled above)
            return a.guard is None
        return True

    for a in accesses:
        for b in accesses:
            if a.buffer != b.buffer:
                continue
            same_node = a.node_id == b.node_id and a is not b
            connected = b.node_id in reach[a.node_id] or same_node
            if not connected:
                continue
            if not conflict(a, b):
                continue
            lo, hi = sorted((a.line, b.line))
            report(
                ("pair", a.buffer, lo, hi, a.idx_dump, b.idx_dump),
                hi,
                f"shared buffer '{a.buffer}': "
                f"{'write' if a.write else 'read'} of [{a.idx_text}] at line "
                f"{a.line} and {'write' if b.write else 'read'} of "
                f"[{b.idx_text}] at line {b.line} on the same barrier-free "
                f"path segment",
            )
    return findings


def _pass_kc003(df: _DeviceFn, kernel_name: str) -> list[Finding]:
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for a in _extract_accesses(df):
        if a.shared:
            continue
        key = (a.buffer, a.idx_dump, a.write)
        if key in seen:
            continue
        seen.add(key)
        kind = "store to" if a.write else "load from"
        if a.idx.tid is not None and abs(a.idx.tid) > 1:
            findings.append(
                Finding(
                    "KC003",
                    "warn",
                    kernel_name,
                    a.line,
                    f"uncoalesced {kind} global buffer "
                    f"'{a.buffer}[{a.idx_text}]': affine in the thread id "
                    f"with stride {a.idx.tid} (warp touches "
                    f"{abs(a.idx.tid)}x the cache lines)",
                )
            )
        elif a.idx.tid is None and a.idx.pure and not a.idx.uniform:
            findings.append(
                Finding(
                    "KC003",
                    "warn",
                    kernel_name,
                    a.line,
                    f"uncoalesced {kind} global buffer "
                    f"'{a.buffer}[{a.idx_text}]': non-affine in the thread "
                    f"id (stride unbounded)",
                )
            )
    return findings


# ======================================================================
# KC005: abstract-interpretation bounds proofs
# ======================================================================
def _pass_kc005(
    df: _DeviceFn,
    kernel_name: str,
    invariants: Optional[KernelInvariants],
) -> tuple[list[Finding], list[AccessRecord], Optional[AbsintResult]]:
    """Run the abstract interpreter; unproved accesses become findings.

    Shared-buffer accesses are always checked against their declared
    shapes.  Global accesses are only *provable* when the kernel ships a
    ``value_invariants()`` contract; without one they are recorded as
    ``assumed`` and never fire.
    """
    try:
        result = interpret_kernel(df.fn, invariants, df.cfg)
    except ContractError as exc:
        return (
            [
                Finding(
                    "KC005",
                    "error",
                    kernel_name,
                    0,
                    f"unusable value_invariants() contract: {exc}",
                )
            ],
            [],
            None,
        )
    findings = [
        Finding(
            "KC005",
            "error",
            kernel_name,
            a.line,
            f"cannot prove {'store to' if a.write else 'load from'} "
            f"{'shared' if a.shared else 'global'} buffer "
            f"'{a.buffer}[{a.index}]' in bounds: {a.detail} "
            f"(index interval {a.interval})",
        )
        for a in result.unproved()
    ]
    return findings, result.accesses, result


# ======================================================================
# KC006: liveness-based register estimate
# ======================================================================
def _register_estimate(df: _DeviceFn) -> int:
    """Weighted max-live register estimate over the statement CFG.

    Counts only kernel *locals* — launch parameters live in constant
    memory, ``ctx`` is the machine, and shared-buffer handles are
    addresses into shared storage, none of which occupy a per-thread
    register.  Loop-carried values (live across a back edge and
    redefined in the loop) weigh double: they must stay resident across
    a whole iteration, exactly the values a real compiler cannot
    rematerialize.  The +4 matches the old proxy's fixed overhead
    (address/predicate scratch).
    """
    lv = compute_liveness(df.cfg)
    locals_: set[str] = set()
    for d in lv.defs.values():
        locals_ |= d
    locals_ -= set(df.params)
    locals_ -= set(df.shared)
    locals_.discard(df.ctx_name)
    locals_.discard("self")
    best = 0
    for n in df.cfg.nodes:
        live = (lv.live_in[n.id] | lv.defs[n.id]) & locals_
        best = max(
            best, sum(2 if v in lv.loop_carried else 1 for v in live)
        )
    return 4 + best


def _pass_kc006(
    df: _DeviceFn, kernel_name: str, declared_registers: int
) -> tuple[list[Finding], int]:
    estimate = _register_estimate(df)
    findings: list[Finding] = []
    if estimate > declared_registers:
        findings.append(
            Finding(
                "KC006",
                "warn",
                kernel_name,
                df.fn.body[0].lineno if df.fn.body else 0,
                f"live-range register estimate {estimate} exceeds the "
                f"declared registers_per_thread={declared_registers}; "
                f"the occupancy table is optimistic",
            )
        )
    return findings, estimate


# ======================================================================
# KC007: symbolic static cost model
# ======================================================================
def _pass_kc007(
    df: _DeviceFn, kernel: Kernel, result: Optional[AbsintResult]
) -> tuple[list[Finding], Optional[KernelCostModel]]:
    """Derive the symbolic cost model and lift its issues into findings.

    Unbounded loops (no trip bound and no contract estimate) are
    ``error``; a ``cost_contract()`` that declares a counter bound below
    the derived worst case — a lying contract — is ``warn``.  Skipped
    when KC005 already rejected the value contract (no interpretation
    to cost).
    """
    if result is None:
        return [], None
    try:
        contract = kernel.cost_contract()
    except ValueError as exc:
        return (
            [
                Finding(
                    "KC007",
                    "warn",
                    kernel.name,
                    0,
                    f"unusable cost_contract(): {exc}",
                )
            ],
            None,
        )
    cost = derive_cost_from_result(
        kernel_name=kernel.name,
        fn=df.fn,
        cfg=df.cfg,
        result=result,
        contract=contract,
        registers_per_thread=kernel.registers_per_thread,
        kernel=kernel,
    )
    findings = [
        Finding("KC007", issue.severity, kernel.name, issue.line, issue.message)
        for issue in cost.issues
    ]
    return findings, cost


# ======================================================================
# KC004: static shared bytes + occupancy
# ======================================================================
def _eval_static_int(
    node: ast.expr, df: Optional[_DeviceFn], block_dim: int
) -> Optional[int]:
    """Numeric value of a shape term with ``block_dim`` bound."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return int(node.value)
    if isinstance(node, ast.Name):
        if df is not None and node.id in df.blockdim_aliases:
            return block_dim
        return None
    if isinstance(node, ast.Attribute):
        if (
            df is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == df.ctx_name
            and node.attr == "block_dim"
        ):
            return block_dim
        return None
    if isinstance(node, ast.BinOp):
        a = _eval_static_int(node.left, df, block_dim)
        b = _eval_static_int(node.right, df, block_dim)
        if a is None or b is None:
            return None
        if isinstance(node.op, ast.Add):
            return a + b
        if isinstance(node.op, ast.Sub):
            return a - b
        if isinstance(node.op, ast.Mult):
            return a * b
        if isinstance(node.op, ast.FloorDiv) and b != 0:
            return a // b
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        v = _eval_static_int(node.operand, df, block_dim)
        return -v if v is not None else None
    return None


def _static_shared_bytes(df: _DeviceFn, block_dim: int) -> Optional[int]:
    """Total ``ctx.shared`` footprint at ``block_dim``, or None if any
    declaration's shape cannot be evaluated statically."""
    total = 0
    for var, decl in df.shared.items():
        if decl.itemsize is None:
            return None
        shape_expr = df.shared_shapes[var]
        dims = (
            list(shape_expr.elts)
            if isinstance(shape_expr, (ast.Tuple, ast.List))
            else [shape_expr]
        )
        n = 1
        for d in dims:
            v = _eval_static_int(d, df, block_dim)
            if v is None:
                return None
            n *= v
        total += n * decl.itemsize
    return total


def _occupancy_entry(
    kernel: Kernel, block_dim: int, spec: DeviceSpec
) -> tuple[OccupancyEntry, Optional[Finding]]:
    shared_bytes = kernel.shared_mem_per_block(block_dim)
    base = dict(
        block_dim=block_dim,
        spec=spec.name,
        shared_bytes=shared_bytes,
        registers_per_thread=kernel.registers_per_thread,
    )
    try:
        occ = occupancy(
            block_dim,
            limits=OccupancyLimits.for_spec(spec),
            registers_per_thread=kernel.registers_per_thread,
            shared_mem_per_block_bytes=shared_bytes,
        )
    except ValueError as exc:
        return (
            OccupancyEntry(feasible=False, limiter="infeasible", **base),
            Finding(
                "KC004",
                "error",
                kernel.name,
                0,
                f"launch configuration block_dim={block_dim} on {spec.name} "
                f"is infeasible: {exc}",
            ),
        )
    return (
        OccupancyEntry(
            feasible=True,
            active_blocks_per_sm=occ.active_blocks_per_sm,
            active_warps_per_sm=occ.active_warps_per_sm,
            max_warps_per_sm=occ.max_warps_per_sm,
            fraction=occ.fraction,
            limiter=occ.limiter,
            **base,
        ),
        None,
    )


# ======================================================================
# kernel-level entry points
# ======================================================================
def _device_fn_of(kernel: Kernel) -> Optional[_DeviceFn]:
    """Parse a kernel's ``device_code`` override, if it has one."""
    if type(kernel).device_code is Kernel.device_code:
        return None
    source = textwrap.dedent(inspect.getsource(type(kernel).device_code))
    module = ast.parse(source)
    fn = next(n for n in module.body if isinstance(n, ast.FunctionDef))
    return _DeviceFn(fn)


def _register_proxy(df: _DeviceFn) -> int:
    """Crude per-thread register-pressure proxy: locals + arguments
    plus a fixed overhead, as a real compiler would spill around."""
    return 4 + len(df.assigned) + len(df.params)


def analyze_kernel(
    kernel: Kernel,
    *,
    block_dims: Sequence[int] = DEFAULT_BLOCK_DIMS,
    specs: Optional[Sequence[DeviceSpec]] = None,
) -> KernelReport:
    """Run all four kernelcheck passes over one kernel."""
    specs = list(specs) if specs is not None else [DeviceSpec()]
    df = _device_fn_of(kernel)
    findings: list[Finding] = []
    declared = {bd: kernel.shared_mem_per_block(bd) for bd in block_dims}
    static: dict[int, Optional[int]] = dict.fromkeys(block_dims)
    shared_decls: list[SharedDecl] = []
    barriers = 0
    proxy: Optional[int] = None
    estimate: Optional[int] = None
    accesses: list[AccessRecord] = []
    cost: Optional[KernelCostModel] = None

    if df is not None:
        barriers = len(df.cfg.barriers())
        shared_decls = list(df.shared.values())
        proxy = _register_proxy(df)
        findings += _pass_kc001(df, kernel.name)
        findings += _pass_kc002(df, kernel.name)
        findings += _pass_kc003(df, kernel.name)
        kc5, accesses, absres = _pass_kc005(
            df, kernel.name, kernel.value_invariants()
        )
        findings += kc5
        kc6, estimate = _pass_kc006(df, kernel.name, kernel.registers_per_thread)
        findings += kc6
        kc7, cost = _pass_kc007(df, kernel, absres)
        findings += kc7
        for bd in block_dims:
            extracted = _static_shared_bytes(df, bd)
            static[bd] = extracted
            if extracted is not None and extracted > declared[bd]:
                findings.append(
                    Finding(
                        "KC004",
                        "error",
                        kernel.name,
                        shared_decls[0].line if shared_decls else 0,
                        f"device code allocates {extracted} B of shared "
                        f"memory at block_dim={bd} but "
                        f"shared_mem_per_block declares only "
                        f"{declared[bd]} B — occupancy prediction and the "
                        f"runtime budget check disagree",
                    )
                )

    entries: list[OccupancyEntry] = []
    for spec in specs:
        for bd in block_dims:
            entry, finding = _occupancy_entry(kernel, bd, spec)
            entries.append(entry)
            if finding is not None:
                findings.append(finding)

    return KernelReport(
        kernel=kernel.name,
        has_device_code=df is not None,
        barriers=barriers,
        registers_per_thread=kernel.registers_per_thread,
        register_proxy=proxy,
        shared_decls=shared_decls,
        static_shared_bytes=static,
        declared_shared_bytes=declared,
        occupancy=entries,
        findings=findings,
        register_estimate=estimate,
        accesses=[a.to_dict() for a in accesses],
        cost=cost.to_dict() if cost is not None else None,
    )


def analyze_device_source(
    source: str,
    kernel_name: str = "<source>",
    *,
    invariants: Optional[KernelInvariants] = None,
    declared_registers: Optional[int] = None,
) -> list[Finding]:
    """Run the device-code passes (KC001–KC003, KC005, KC006) over raw
    source.

    The source must contain one function definition (the device code).
    ``invariants`` feeds KC005's bounds proofs; KC006 only fires when a
    ``declared_registers`` budget is given to check the estimate
    against.  Used by the seeded-violation corpus and the
    no-false-positive property tests.
    """
    module = ast.parse(textwrap.dedent(source))
    fn = next(n for n in module.body if isinstance(n, ast.FunctionDef))
    df = _DeviceFn(fn)
    findings = (
        _pass_kc001(df, kernel_name)
        + _pass_kc002(df, kernel_name)
        + _pass_kc003(df, kernel_name)
        + _pass_kc005(df, kernel_name, invariants)[0]
    )
    if declared_registers is not None:
        findings += _pass_kc006(df, kernel_name, declared_registers)[0]
    return findings


def analyze_shipped(
    *,
    block_dims: Sequence[int] = DEFAULT_BLOCK_DIMS,
    specs: Optional[Sequence[DeviceSpec]] = None,
) -> list[KernelReport]:
    """Analyze every registered (shipped) kernel."""
    from repro.kernels import shipped_kernels

    return [
        analyze_kernel(k, block_dims=block_dims, specs=specs)
        for k in shipped_kernels()
    ]


# ======================================================================
# static occupancy table
# ======================================================================
def static_occupancy_table(
    kernel: Kernel,
    *,
    block_dims: Sequence[int] = DEFAULT_BLOCK_DIMS,
    spec: Optional[DeviceSpec] = None,
) -> dict[int, OccupancyEntry]:
    """Predicted occupancy per block_dim for one kernel on one spec."""
    spec = spec or DeviceSpec()
    return {bd: _occupancy_entry(kernel, bd, spec)[0] for bd in block_dims}


# ======================================================================
# CLI shim (the primary front end is `repro analyze kernels`)
# ======================================================================
def worst_severity(reports: Iterable[KernelReport]) -> Optional[str]:
    worst: Optional[str] = None
    for r in reports:
        for f in r.findings:
            if worst is None or SEVERITY_ORDER[f.severity] > SEVERITY_ORDER[worst]:
                worst = f.severity
    return worst


def render_text(reports: Sequence[KernelReport]) -> str:
    lines: list[str] = []
    for r in reports:
        occ = {
            (e.block_dim, e.spec): e for e in r.occupancy
        }
        occ_bits = ", ".join(
            f"bd={bd}: {e.fraction:.3f} ({e.limiter})" if e.feasible else f"bd={bd}: infeasible"
            for (bd, _), e in occ.items()
        )
        lines.append(
            f"{r.kernel}: "
            f"{'device code' if r.has_device_code else 'vector-only'}, "
            f"{r.barriers} barrier(s), "
            f"{len(r.shared_decls)} shared buffer(s); occupancy {occ_bits}"
        )
        if r.has_device_code:
            proved = sum(1 for a in r.accesses if a["status"] == "proved")
            lines.append(
                f"  accesses: {proved}/{len(r.accesses)} proved in bounds; "
                f"registers: estimate {r.register_estimate} "
                f"(declared {r.registers_per_thread})"
            )
        if r.cost is not None:
            state = "bounded" if r.cost["bounded"] else "UNBOUNDED"
            busy = {
                c: b
                for c, b in r.cost["per_thread_bounds"].items()
                if b not in (None, "0")
            }
            bits = ", ".join(f"{c} <= {b}" for c, b in sorted(busy.items()))
            lines.append(f"  cost (KC007): {state}; per-thread {bits or 'zero'}")
        for f in r.findings:
            lines.append(f"  {f.render()}")
        if not r.findings:
            lines.append("  findings: none")
    n = sum(len(r.findings) for r in reports)
    lines.append(
        f"kernelcheck: {len(reports)} kernel(s), {n} finding(s)"
        if n
        else f"kernelcheck: {len(reports)} kernel(s), clean"
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="kernelcheck",
        description="static verification of simulated-GPU device kernels",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument(
        "--fail-on",
        choices=["warn", "error"],
        default="error",
        help="exit non-zero when findings at/above this severity exist",
    )
    parser.add_argument(
        "--block-dims", type=int, nargs="+", default=list(DEFAULT_BLOCK_DIMS)
    )
    args = parser.parse_args(argv)
    reports = analyze_shipped(block_dims=tuple(args.block_dims))
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        print(render_text(reports))
    worst = worst_severity(reports)
    if worst is None:
        return 0
    if SEVERITY_ORDER[worst] >= SEVERITY_ORDER[args.fail_on]:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
