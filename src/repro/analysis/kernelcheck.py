"""kernelcheck — static verification of simulated-GPU device kernels.

The runtime gpusanitizer (:mod:`repro.gpusim.sanitizer`) can only judge
schedules that actually execute; this module verifies the kernel
invariants **over all paths, before any launch**, by analyzing the
``device_code`` generator of each :class:`~repro.gpusim.launch.Kernel`
(AST → CFG via :mod:`repro.analysis.cfg`).  One abstract interpreter
(:mod:`repro.analysis.absint`) evaluates the device code once per
kernel; every pass reads the facts its recording walk keeps.  Seven
passes:

``KC001`` — barrier divergence
    A ``yield ctx.syncthreads()`` that is control-dependent on a
    *thread-dependent* test (absint's tid-stride component: a test
    whose value may differ across the threads of a block) without a
    matching barrier on the sibling path, a barrier inside a loop whose
    trip count is thread-dependent, or a thread-dependent early
    ``return`` that skips a downstream barrier.  All are the UB class
    :class:`~repro.gpusim.kernelapi.BarrierDivergenceError` catches at
    runtime — on the one schedule that ran.

``KC002`` — shared-memory race
    A write to a ``ctx.shared(...)`` buffer and a read/write of the
    same buffer (by declared name) connected by a barrier-free CFG path
    (loop back edges included), where the two accesses may come from
    different threads and may touch the same slot.  Per-thread slots
    (identical thread-dependent index expressions) and accesses in the
    ``then`` arm of one single-thread guard (``if tid == 0:``) are
    exempt.

``KC003`` — uncoalesced global access
    Global-buffer index expressions that are affine in the thread id
    with |stride| > 1, or non-affine pure functions of the thread id
    (``tid * tid``).  Runtime-dependent gathers (index loaded from
    another array, symbolic strides) are classified uniform /
    coalesced / strided / bounded-stride / gather-bounded /
    gather-unbounded in the report's access table instead.

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
    widening) attempts to prove every global/shared array access
    in-bounds against the buffer-length and value contracts each kernel
    declares via :meth:`~repro.gpusim.launch.Kernel.value_invariants`.
    A shared access that can exceed its declared shape, or a
    contract-covered global access whose index interval is not
    contained in ``[0, len)``, is an error — caught before the runtime
    memcheck ever launches.  Global accesses with no contract are
    reported as *assumed*, never as findings.

``KC006`` — register-pressure estimate
    Backward liveness over the statement CFG
    (:func:`repro.analysis.cfg.compute_liveness`) gives max-live-across-
    program-points of the kernel's locals, with loop-carried values
    weighted double (they stay resident across whole iterations).  The
    estimate replaces the old locals+params count proxy and is checked
    against the kernel's declared ``registers_per_thread``; declaring
    fewer registers than the estimate is a warning because the
    occupancy table would be optimistic.

``KC007`` — symbolic cost model
    Per-thread counter bounds from absint's loop trip bounds
    (:mod:`repro.analysis.costmodel`): a loop with no bound is an
    error, a ``cost_contract()`` that declares less than the derived
    worst case a warning.

``analyze_shipped()`` runs all passes over the registered kernel set
(:func:`repro.kernels.shipped_kernels`); the CLI front end is
``repro analyze kernels [--format json] [--fail-on warn|error]``.
"""

from __future__ import annotations

import ast
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.analysis.absint import (
    AbsintResult,
    AccessRecord,
    ContractError,
    IndexedAccess,
    KernelInvariants,
    interpret_kernel,
)
from repro.analysis.cfg import (
    CFG,
    build_cfg,
    compute_liveness,
    ctx_call,
    device_args,
    device_fn,
    parse_device_fn,
)
from repro.analysis.costmodel import (
    KernelCostModel,
    derive_cost_from_result,
    eval_lin,
)
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

    rule: str  #: KC001..KC007
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
# shared-buffer declarations
# ======================================================================
def _shared_decls(cfg: CFG, ctx_name: str) -> dict[str, SharedDecl]:
    """``ctx.shared(...)`` declarations, by the variable each is bound to."""
    decls: dict[str, SharedDecl] = {}
    for node in cfg.statements():
        s = node.stmt
        if not isinstance(s, ast.Assign) or len(s.targets) != 1:
            continue
        target, value = s.targets[0], s.value
        pairs = [(target, value)]
        if (
            isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)
        ):
            pairs = list(zip(target.elts, value.elts, strict=True))
        for var, v in pairs:
            call = ctx_call(v, ctx_name, "shared")
            if not isinstance(var, ast.Name) or call is None:
                continue
            name = "?"
            if call.args and isinstance(call.args[0], ast.Constant):
                name = str(call.args[0].value)
            dtype_name, itemsize = _resolve_dtype(
                call.args[2] if len(call.args) > 2 else None
            )
            decls[var.id] = SharedDecl(
                name=name,
                shape=ast.unparse(call.args[1]) if len(call.args) > 1 else "?",
                dtype=dtype_name,
                itemsize=itemsize,
                line=call.lineno,
            )
    return decls


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
# one device function and what absint learned about it
# ======================================================================
@dataclass
class _DeviceCode:
    fn: ast.FunctionDef
    cfg: CFG
    ctx_name: str
    params: list[str]
    shared: dict[str, SharedDecl]  #: variable -> declaration
    #: the contract run (KC005, KC007); None when the contract is unusable
    result: Optional[AbsintResult]
    contract_error: Optional[str]
    #: the facts KC001–KC004 read: the contract run, or a contract-free
    #: run when the contract is unusable
    facts: AbsintResult


def _interpret(
    fn: ast.FunctionDef, invariants: Optional[KernelInvariants]
) -> _DeviceCode:
    cfg = build_cfg(fn)
    ctx_name, params = device_args(fn)
    result: Optional[AbsintResult] = None
    error: Optional[str] = None
    try:
        result = interpret_kernel(fn, invariants, cfg)
    except ContractError as exc:
        error = str(exc)
    return _DeviceCode(
        fn=fn,
        cfg=cfg,
        ctx_name=ctx_name,
        params=params,
        shared=_shared_decls(cfg, ctx_name),
        result=result,
        contract_error=error,
        facts=result if result is not None else interpret_kernel(fn, None, cfg),
    )


def _single_thread_guard(dc: _DeviceCode, node_id: int) -> Optional[str]:
    """Dump of an enclosing ``if`` test that pins one thread in the arm
    holding the node (the ``then`` arm of ``tid == <uniform>``), if any."""
    for frame in dc.cfg.node(node_id).stack:
        if frame.kind == "if" and frame.arm == "then" and frame.node_id in dc.facts.pins:
            return ast.dump(dc.cfg.node(frame.node_id).test)
    return None


# ======================================================================
# passes KC001–KC003 (device-code passes)
# ======================================================================
def _pass_kc001(dc: _DeviceCode, kernel_name: str) -> list[Finding]:
    findings: list[Finding] = []
    cfg = dc.cfg
    divergent = dc.facts.divergent
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
            if frame.node_id not in divergent:
                continue
            ctrl = cfg.node(frame.node_id)
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
            if frame.kind != "if" or frame.node_id not in divergent:
                continue
            branch = cfg.node(frame.node_id)
            divergent_barriers = [
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
            if divergent_barriers:
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
                        f"{divergent_barriers[0].line}",
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


def _pass_kc002(dc: _DeviceCode, kernel_name: str) -> list[Finding]:
    findings: list[Finding] = []
    accesses = [a for a in dc.facts.indexed if a.shared]
    if not accesses:
        return findings
    nodes = {a.node for a in accesses}
    reach = {nid: dc.cfg.reachable_without_barrier(nid) for nid in nodes}
    guard = {nid: _single_thread_guard(dc, nid) for nid in nodes}
    reported: set[tuple] = set()

    def buffer(a: IndexedAccess) -> str:
        decl = dc.shared.get(a.buffer)
        return decl.name if decl is not None else a.buffer

    def report(key: tuple, line: int, message: str) -> None:
        if key in reported:
            return
        reported.add(key)
        findings.append(Finding("KC002", "error", kernel_name, line, message))

    # a uniform-index write performed by every thread races with itself
    for a in accesses:
        if a.write and a.value.uniform and guard[a.node] is None:
            report(
                ("self", buffer(a), a.line),
                a.line,
                f"all threads of the block write shared buffer "
                f"'{buffer(a)}[{ast.unparse(a.index)}]' (same slot, no "
                f"single-thread guard)",
            )

    def conflict(a: IndexedAccess, b: IndexedAccess) -> bool:
        if not (a.write or b.write):
            return False
        if guard[a.node] is not None and guard[a.node] == guard[b.node]:
            return False  # both pinned to the same single thread
        if ast.dump(a.index) == ast.dump(b.index) and not a.value.uniform:
            return False  # each thread touches its own slot in both
        ka, kb = a.value.rng.is_const(), b.value.rng.is_const()
        return ka is None or kb is None or ka == kb  # distinct constants are disjoint

    # ``ctx.shared`` hands every call with one name the same block array
    for a in accesses:
        for b in accesses:
            if buffer(a) != buffer(b):
                continue
            same_node = a.node == b.node and a is not b
            if not (b.node in reach[a.node] or same_node) or not conflict(a, b):
                continue
            lo, hi = sorted((a.line, b.line))
            ia, ib = ast.unparse(a.index), ast.unparse(b.index)
            report(
                ("pair", buffer(a), lo, hi, ast.dump(a.index), ast.dump(b.index)),
                hi,
                f"shared buffer '{buffer(a)}': "
                f"{'write' if a.write else 'read'} of [{ia}] at line "
                f"{a.line} and {'write' if b.write else 'read'} of "
                f"[{ib}] at line {b.line} on the same barrier-free "
                f"path segment",
            )
    return findings


def _pass_kc003(dc: _DeviceCode, kernel_name: str) -> list[Finding]:
    """Each global (buffer, index, direction) is reported once, at its
    first uncoalesced site."""
    findings: list[Finding] = []
    reported: set[tuple] = set()
    for a in dc.facts.indexed:
        key = (a.buffer, ast.dump(a.index), a.write)
        if a.shared or key in reported:
            continue
        kind = "store to" if a.write else "load from"
        site = f"'{a.buffer}[{ast.unparse(a.index)}]'"
        stride = a.value.a.is_const() if a.value.a is not None else None
        if stride is not None and abs(stride) > 1:
            message = (
                f"uncoalesced {kind} global buffer {site}: affine in the "
                f"thread id with stride {stride} (warp touches "
                f"{abs(stride)}x the cache lines)"
            )
        elif a.value.a is None and a.value.pure:
            message = (
                f"uncoalesced {kind} global buffer {site}: non-affine in "
                f"the thread id (stride unbounded)"
            )
        else:
            continue
        reported.add(key)
        findings.append(Finding("KC003", "warn", kernel_name, a.line, message))
    return findings


# ======================================================================
# KC005: abstract-interpretation bounds proofs
# ======================================================================
def _pass_kc005(dc: _DeviceCode, kernel_name: str) -> list[Finding]:
    """Unproved accesses of the contract run become findings.

    Shared-buffer accesses are always checked against their declared
    shapes.  Global accesses are only *provable* when the kernel ships a
    ``value_invariants()`` contract; without one they are recorded as
    ``assumed`` and never fire.
    """
    if dc.result is None:
        return [
            Finding(
                "KC005",
                "error",
                kernel_name,
                0,
                f"unusable value_invariants() contract: {dc.contract_error}",
            )
        ]
    return [
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
        for a in dc.result.unproved()
    ]


# ======================================================================
# KC006: liveness-based register estimate
# ======================================================================
def _registers(dc: _DeviceCode) -> tuple[int, int]:
    """``(proxy, estimate)``: the locals + parameters count proxy, and the
    weighted max-live register estimate over the statement CFG.

    The estimate counts only kernel *locals* — launch parameters live in
    constant memory, ``ctx`` is the machine, and shared-buffer handles
    are addresses into shared storage, none of which occupy a per-thread
    register.  Loop-carried values (live across a back edge and
    redefined in the loop) weigh double: they must stay resident across
    a whole iteration, exactly the values a real compiler cannot
    rematerialize.  Both add 4 for address/predicate scratch.
    """
    lv = compute_liveness(dc.cfg)
    defined: frozenset[str] = frozenset().union(*lv.defs.values())
    locals_ = defined - set(dc.params) - set(dc.shared) - {dc.ctx_name, "self"}
    best = 0
    for n in dc.cfg.nodes:
        live = (lv.live_in[n.id] | lv.defs[n.id]) & locals_
        best = max(
            best, sum(2 if v in lv.loop_carried else 1 for v in live)
        )
    return 4 + len(defined) + len(dc.params), 4 + best


def _pass_kc006(
    dc: _DeviceCode, kernel_name: str, estimate: int, declared_registers: int
) -> list[Finding]:
    if estimate <= declared_registers:
        return []
    return [
        Finding(
            "KC006",
            "warn",
            kernel_name,
            dc.fn.body[0].lineno if dc.fn.body else 0,
            f"live-range register estimate {estimate} exceeds the "
            f"declared registers_per_thread={declared_registers}; "
            f"the occupancy table is optimistic",
        )
    ]


# ======================================================================
# KC007: symbolic static cost model
# ======================================================================
def _pass_kc007(
    dc: _DeviceCode, kernel: Kernel
) -> tuple[list[Finding], Optional[KernelCostModel]]:
    """Derive the symbolic cost model and lift its issues into findings.

    Unbounded loops (no trip bound and no contract estimate) are
    ``error``; a ``cost_contract()`` that declares a counter bound below
    the derived worst case — a lying contract — is ``warn``.  Skipped
    when KC005 already rejected the value contract (no interpretation
    to cost).
    """
    if dc.result is None:
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
        fn=dc.fn,
        cfg=dc.cfg,
        result=dc.result,
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
def _static_shared_bytes(dc: _DeviceCode, block_dim: int) -> Optional[int]:
    """Total ``ctx.shared`` footprint at ``block_dim``, or None if any
    declaration's shape is not a static function of ``block_dim``."""
    total = 0
    for var, decl in dc.shared.items():
        dims = dc.facts.shared_dims.get(var, [None])
        if decl.itemsize is None or any(
            d is None or d.symbols() - {"bdim"} for d in dims
        ):
            return None
        total += decl.itemsize * math.prod(
            int(eval_lin(d, {"bdim": block_dim})) for d in dims if d is not None
        )
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
def analyze_kernel(
    kernel: Kernel,
    *,
    block_dims: Sequence[int] = DEFAULT_BLOCK_DIMS,
    specs: Optional[Sequence[DeviceSpec]] = None,
) -> KernelReport:
    """Run every kernelcheck pass (KC001–KC007) over one kernel."""
    specs = list(specs) if specs is not None else [DeviceSpec()]
    fn = device_fn(kernel)
    findings: list[Finding] = []
    declared = {bd: kernel.shared_mem_per_block(bd) for bd in block_dims}
    static: dict[int, Optional[int]] = dict.fromkeys(block_dims)
    shared_decls: list[SharedDecl] = []
    barriers = 0
    proxy: Optional[int] = None
    estimate: Optional[int] = None
    accesses: list[AccessRecord] = []
    cost: Optional[KernelCostModel] = None

    if fn is not None:
        dc = _interpret(fn, kernel.value_invariants())
        barriers = len(dc.cfg.barriers())
        shared_decls = list(dc.shared.values())
        proxy, estimate = _registers(dc)
        findings += _device_findings(dc, kernel.name)
        accesses = dc.result.accesses if dc.result is not None else []
        findings += _pass_kc006(
            dc, kernel.name, estimate, kernel.registers_per_thread
        )
        kc7, cost = _pass_kc007(dc, kernel)
        findings += kc7
        for bd in block_dims:
            extracted = _static_shared_bytes(dc, bd)
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
        has_device_code=fn is not None,
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


def _device_findings(dc: _DeviceCode, kernel_name: str) -> list[Finding]:
    return (
        _pass_kc001(dc, kernel_name)
        + _pass_kc002(dc, kernel_name)
        + _pass_kc003(dc, kernel_name)
        + _pass_kc005(dc, kernel_name)
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
    dc = _interpret(parse_device_fn(source), invariants)
    findings = _device_findings(dc, kernel_name)
    if declared_registers is not None:
        findings += _pass_kc006(
            dc, kernel_name, _registers(dc)[1], declared_registers
        )
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
# report rendering (the front end is `repro analyze kernels`)
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
