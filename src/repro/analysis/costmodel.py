"""KC007 — the symbolic static cost model.

Derives, for every kernel with ``device_code``, a **symbolic cost
expression**: per-thread worst-case operation counts as
:class:`~repro.analysis.absint.Lin` polynomials over the kernel's
parameters and the launch geometry (``bdim``/``gdim``), obtained by
walking the :mod:`~repro.analysis.cfg` CFG with the abstract
interpreter's product domain:

* **Loop trip counts** come from the interpreter's widening-safe
  :class:`~repro.analysis.absint.TripCount` bounds; fresh row symbols
  (``s3:G_max[h]``-style) are eliminated by interval resolution against
  the final abstract ranges, so a bound like ``s3 + 1`` resolves to the
  contract-level ``n``.  A loop the interpreter cannot bound is a KC007
  finding (severity ``error``) unless the kernel's
  :class:`CostContract` covers its variable with a trip estimate.
* **Counter sites** are the explicit ``ctx.count_*`` /
  ``ctx.atomic_add`` / ``ctx.atomic_min`` / ``ctx.result_reserve`` /
  ``ctx.result_store`` / ``ctx.syncthreads`` calls — exactly what both execution backends
  increment — weighted by the product of enclosing loop bounds.  Both
  arms of every branch are charged (thread-dependent branches serialize
  both arms, and a uniform branch's worst case is still a worst case).
* **Memory transactions** reuse the KC003 access classification:
  coalesced/uniform warps cost one line transaction, ``strided(k)``
  costs ``min(warp, ceil(k·warp·word/line))``, gathers cost the full
  warp fan-out.
* **Evaluation** binds the polynomial at a concrete ``(params, bdim,
  gdim)`` point, builds a :class:`~repro.gpusim.costmodel.KernelCounters`
  and prices it with the *same*
  :class:`~repro.gpusim.costmodel.CostModel` arithmetic (and the same
  :mod:`repro.gpusim.constants`) the simulator uses, including the
  occupancy-scaled compute rate — so predicted milliseconds and the
  profiler's modeled milliseconds are directly comparable, and
  predicted cycles are ``ms × clock``.

The worst-case **bound** mode is sound by construction (every counter
evaluation is ≥ the measured counter for any run satisfying the value
contract); the **estimate** mode swaps contract-declared average trip
counts in for the pessimistic bounds to give a calibrated point
prediction (CI gates the ratio band).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.analysis.absint import (
    AbsintResult,
    Interval,
    KernelInvariants,
    Lin,
    Prover,
    interpret_kernel,
    parse_bound,
)
from repro.analysis.cfg import CFG, CFGNode, build_cfg, device_args, device_fn
from repro.gpusim import constants as K
from repro.gpusim.costmodel import CostModel, KernelCounters
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import Kernel
from repro.gpusim.occupancy import OccupancyLimits, occupancy

__all__ = [
    "CostContract",
    "CostIssue",
    "LoopCost",
    "CounterSite",
    "KernelCostModel",
    "derive_cost",
    "eval_lin",
    "eval_expr",
    "COST_COUNTERS",
]

#: the KernelCounters fields the static model bounds (threads/blocks are
#: launch geometry, not per-thread work)
COST_COUNTERS: tuple[str, ...] = (
    "distance_calcs",
    "global_loads",
    "global_stores",
    "shared_loads",
    "shared_stores",
    "atomics",
    "syncs",
    "divergent_threads",
)

#: ``ctx.count_*`` hook -> counter it increments
_COUNT_CALLS: dict[str, str] = {
    "count_distance": "distance_calcs",
    "count_global_load": "global_loads",
    "count_global_store": "global_stores",
    "count_shared_load": "shared_loads",
    "count_shared_store": "shared_stores",
    "count_divergent": "divergent_threads",
}


# ---------------------------------------------------------------------------
# Contracts and report atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostContract:
    """A kernel's declared cost expectations (see ``Kernel.cost_contract``).

    ``counter_bounds`` declares per-thread worst-case counter values in
    the :func:`~repro.analysis.absint.parse_bound` grammar (names, ints,
    ``+``/``-``/``*``, ``len(name)``); KC007 *checks* each declaration
    against the derived bound and warns when the declaration is below it
    (a lying contract).  ``trip_estimates`` maps loop variable names to
    average-case iteration-count expressions (names, numbers, ``+ - *
    / // %``, ``min``/``max``) used for point predictions — they may
    reference extra *statistics symbols* (documented in ``stats``) that
    the binding supplies, e.g. the average row length of a neighbor
    table.
    """

    counter_bounds: Mapping[str, str] = field(default_factory=dict)
    trip_estimates: Mapping[str, str] = field(default_factory=dict)
    #: documentation of the statistics symbols the estimates consume:
    #: symbol -> how the binding should compute it
    stats: Mapping[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "counter_bounds": dict(self.counter_bounds),
            "trip_estimates": dict(self.trip_estimates),
            "stats": dict(self.stats),
        }


@dataclass(frozen=True)
class CostIssue:
    """One KC007 diagnostic (kernelcheck lifts these into Findings)."""

    severity: str  # "warn" | "error"
    line: int
    message: str

    def to_dict(self) -> dict[str, object]:
        return {"severity": self.severity, "line": self.line, "message": self.message}


@dataclass(frozen=True)
class LoopCost:
    """One loop's resolved trip-count bound."""

    node_id: int
    line: int
    kind: str  # TripCount kind
    var: str  # loop target variable ("" for while/tuple targets)
    #: widening-safe upper bound over params/bdim/gdim (None = unbounded)
    bound: Optional[Lin]
    #: the kernel's contract covers this loop with a trip estimate
    estimated: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "line": self.line,
            "kind": self.kind,
            "var": self.var,
            "bound": self.bound.render() if self.bound is not None else None,
            "estimated": self.estimated,
        }


@dataclass(frozen=True)
class CounterSite:
    """One counter-incrementing call and its enclosing loop chain."""

    line: int
    counter: str
    #: worst-case increment per execution (e.g. 2 words per appended field)
    bound_delta: int
    #: expected increment per execution (backends' common case)
    est_delta: int
    #: enclosing loop-head CFG node ids, outermost -> innermost
    loops: tuple[int, ...]


class UnboundedCostError(ValueError):
    """Raised when a binding evaluation hits an unbounded counter."""


# ---------------------------------------------------------------------------
# Fresh-symbol resolution
# ---------------------------------------------------------------------------


def _is_bindable(sym: str) -> bool:
    """Contract-level symbols (params, bdim/gdim, len(...)) survive
    resolution; interpreter-fresh symbols (they contain ``:``) do not."""
    return ":" not in sym


def _resolve_interval(
    lin: Lin, ranges: Mapping[str, Interval], pv: Prover, depth: int
) -> Interval:
    """Sound interval for ``lin`` over bindable symbols only."""
    acc = Interval.const(lin.const)
    for mono, coef in lin.terms.items():
        term = Interval.const(coef)
        for sym in mono:
            term = term.mul(_sym_interval(sym, ranges, pv, depth), pv)
        acc = acc.add(term)
    return acc


def _sym_interval(
    sym: str, ranges: Mapping[str, Interval], pv: Prover, depth: int
) -> Interval:
    if _is_bindable(sym):
        return Interval.exact(Lin.sym(sym))
    if depth <= 0:
        return Interval.top()
    itv = ranges.get(sym)
    if itv is None:
        return Interval.top()
    lo: Optional[Lin] = None
    hi: Optional[Lin] = None
    if itv.lo is not None:
        lo = _resolve_interval(itv.lo, ranges, pv, depth - 1).lo
    if itv.hi is not None:
        hi = _resolve_interval(itv.hi, ranges, pv, depth - 1).hi
    return Interval(lo, hi)


def resolve_upper(
    lin: Lin, ranges: Mapping[str, Interval], pv: Prover, depth: int = 5
) -> Optional[Lin]:
    """Upper-bound ``lin`` by a Lin over bindable symbols (None = unbounded)."""
    if all(_is_bindable(s) for s in lin.symbols()):
        return lin
    return _resolve_interval(lin, ranges, pv, depth).hi


# ---------------------------------------------------------------------------
# Numeric evaluation
# ---------------------------------------------------------------------------


def eval_lin(lin: Lin, binding: Mapping[str, float]) -> float:
    """Evaluate a resolved Lin at a concrete binding."""
    total = float(lin.const)
    for mono, coef in lin.terms.items():
        v = float(coef)
        for sym in mono:
            if sym not in binding:
                raise KeyError(
                    f"binding is missing symbol {sym!r} "
                    f"(needed by {lin.render()!r})"
                )
            v *= float(binding[sym])
        total += v
    return total


def eval_expr(expr: str, binding: Mapping[str, float]) -> float:
    """Evaluate a contract trip-estimate expression.

    Restricted grammar: names, numbers, ``+ - * / // %``, unary minus,
    ``min``/``max`` calls, parentheses.  Anything else is a ValueError.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"unparsable cost expression {expr!r}: {exc}") from exc

    def walk(node: ast.expr) -> float:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id not in binding:
                raise KeyError(
                    f"binding is missing symbol {node.id!r} (needed by {expr!r})"
                )
            return float(binding[node.id])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.BinOp):
            a, b = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            if isinstance(node.op, ast.Div):
                return a / b
            if isinstance(node.op, ast.FloorDiv):
                return float(a // b)
            if isinstance(node.op, ast.Mod):
                return float(a % b)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max")
            and not node.keywords
        ):
            vals = [walk(a) for a in node.args]
            return min(vals) if node.func.id == "min" else max(vals)
        raise ValueError(f"unsupported construct in cost expression {expr!r}")

    return walk(tree.body)


# ---------------------------------------------------------------------------
# The derived model
# ---------------------------------------------------------------------------


@dataclass
class KernelCostModel:
    """The symbolic cost model derived from one kernel's device code."""

    kernel_name: str
    params: tuple[str, ...]
    loops: dict[int, LoopCost]
    sites: tuple[CounterSite, ...]
    #: per-thread worst-case counter polynomials (None = unbounded)
    per_thread: dict[str, Optional[Lin]]
    #: per-warp memory-transaction polynomials, keyed "global"/"shared"
    warp_transactions: dict[str, Optional[Lin]]
    issues: list[CostIssue]
    contract: Optional[CostContract]
    registers_per_thread: int = 32
    #: the source kernel (for shared-memory footprint at evaluation time);
    #: not part of the serialized report
    kernel: Optional[Kernel] = None

    # -- structure ---------------------------------------------------------

    @property
    def bounded(self) -> bool:
        """Every counter has a finite symbolic bound."""
        return all(v is not None for v in self.per_thread.values())

    def unbounded_loops(self) -> list[LoopCost]:
        return [
            lc
            for lc in self.loops.values()
            if lc.bound is None and not lc.estimated
        ]

    def required_symbols(self) -> set[str]:
        """Symbols a binding must supply to evaluate the bound mode."""
        syms: set[str] = {"bdim", "gdim"}
        for lin in self.per_thread.values():
            if lin is not None:
                syms |= lin.symbols()
        return syms

    # -- evaluation --------------------------------------------------------

    def _loop_factor(
        self, node_id: int, binding: Mapping[str, float], mode: str
    ) -> float:
        lc = self.loops[node_id]
        if mode == "estimate" and self.contract is not None:
            expr = self.contract.trip_estimates.get(lc.var)
            if expr is not None:
                return max(0.0, eval_expr(expr, binding))
        if lc.bound is None:
            raise UnboundedCostError(
                f"{self.kernel_name}: loop at line {lc.line} has no static "
                "trip bound and no contract estimate"
            )
        return max(0.0, eval_lin(lc.bound, binding))

    def counters_per_thread(
        self, binding: Mapping[str, float], *, mode: str = "estimate"
    ) -> dict[str, float]:
        """Per-thread counter values at a concrete binding.

        ``mode="bound"`` evaluates the sound worst case (per-loop factors
        clamped at zero, so the result stays an upper bound);
        ``mode="estimate"`` substitutes contract trip estimates and
        expected per-call deltas.
        """
        if mode not in ("bound", "estimate"):
            raise ValueError(f"unknown cost mode {mode!r}")
        vals = {c: 0.0 for c in COST_COUNTERS}
        for site in self.sites:
            f = float(site.bound_delta if mode == "bound" else site.est_delta)
            for lid in site.loops:
                f *= self._loop_factor(lid, binding, mode)
            vals[site.counter] += f
        return vals

    def kernel_counters(
        self, binding: Mapping[str, float], *, mode: str = "estimate"
    ) -> KernelCounters:
        """Predicted whole-launch :class:`KernelCounters` at a binding."""
        bdim = int(binding["bdim"])
        gdim = int(binding["gdim"])
        threads = bdim * gdim
        per = self.counters_per_thread(binding, mode=mode)
        return KernelCounters(
            threads=threads,
            blocks=gdim,
            **{c: int(math.ceil(per[c] * threads)) for c in COST_COUNTERS},
        )

    def occupancy_fraction(
        self, block_dim: int, spec: Optional[DeviceSpec] = None
    ) -> float:
        """Static occupancy for this kernel at ``block_dim`` on ``spec``."""
        spec = spec or DeviceSpec()
        shared = (
            self.kernel.shared_mem_per_block(block_dim)
            if self.kernel is not None
            else 0
        )
        occ = occupancy(
            block_dim,
            limits=OccupancyLimits.for_spec(spec),
            registers_per_thread=self.registers_per_thread,
            shared_mem_per_block_bytes=shared,
        )
        return occ.fraction

    def modeled_ms(
        self,
        binding: Mapping[str, float],
        *,
        spec: Optional[DeviceSpec] = None,
        mode: str = "estimate",
    ) -> float:
        """Predicted kernel milliseconds — same arithmetic as the simulator.

        ``binding`` must carry ``bdim``/``gdim`` plus every kernel
        parameter appearing in the bounds (and any contract statistics
        symbols when ``mode="estimate"``).
        """
        spec = spec or DeviceSpec()
        counters = self.kernel_counters(binding, mode=mode)
        frac = self.occupancy_fraction(int(binding["bdim"]), spec)
        model: CostModel = spec.cost_model()
        return model.kernel_time_ms(counters, occupancy=max(frac, 1e-9))

    # -- reporting ---------------------------------------------------------

    def per_launch(self) -> dict[str, Optional[Lin]]:
        """Whole-launch counter polynomials (per-thread × bdim·gdim)."""
        threads = Lin.sym("bdim").mul(Lin.sym("gdim"))
        return {
            c: (lin.mul(threads) if lin is not None else None)
            for c, lin in self.per_thread.items()
        }

    def to_dict(self) -> dict[str, object]:
        return {
            "kernel": self.kernel_name,
            "params": list(self.params),
            "bounded": self.bounded,
            "loops": [
                lc.to_dict()
                for lc in sorted(self.loops.values(), key=lambda c: (c.line, c.node_id))
            ],
            "per_thread_bounds": {
                c: (lin.render() if lin is not None else None)
                for c, lin in self.per_thread.items()
            },
            "per_launch_bounds": {
                c: (lin.render() if lin is not None else None)
                for c, lin in self.per_launch().items()
            },
            "warp_transactions": {
                k: (lin.render() if lin is not None else None)
                for k, lin in self.warp_transactions.items()
            },
            "contract": self.contract.to_dict() if self.contract else None,
            "issues": [i.to_dict() for i in self.issues],
        }

    def render(self) -> list[str]:
        """Human-readable report lines (for ``repro analyze cost``)."""
        lines = [f"{self.kernel_name}: {'bounded' if self.bounded else 'UNBOUNDED'}"]
        for lc in sorted(self.loops.values(), key=lambda c: (c.line, c.node_id)):
            bound = lc.bound.render() if lc.bound is not None else "unbounded"
            est = " (contract estimate)" if lc.estimated else ""
            lines.append(f"  loop L{lc.line} {lc.kind} [{lc.var or '_'}]: {bound}{est}")
        for c in COST_COUNTERS:
            lin = self.per_thread.get(c)
            if lin is None:
                lines.append(f"  {c}/thread <= unbounded")
            elif lin.is_const() and lin.const == 0:
                continue
            else:
                lines.append(f"  {c}/thread <= {lin.render()}")
        for k in ("global", "shared"):
            lin = self.warp_transactions.get(k)
            if lin is not None and not (lin.is_const() and lin.const == 0):
                lines.append(f"  {k} txns/warp <= {lin.render()}")
            elif lin is None:
                lines.append(f"  {k} txns/warp <= unbounded")
        for issue in self.issues:
            lines.append(f"  [{issue.severity}] L{issue.line}: {issue.message}")
        return lines


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def _literal_int(node: ast.expr) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def _loop_ids(node: CFGNode) -> tuple[int, ...]:
    return tuple(f.node_id for f in node.stack if f.kind == "loop")


def _stmt_span(stmt: ast.stmt) -> tuple[int, int]:
    end = getattr(stmt, "end_lineno", None) or stmt.lineno
    return stmt.lineno, end


def _node_for_line(cfg: CFG, line: int) -> Optional[CFGNode]:
    """The innermost CFG node whose source span contains ``line``.

    Simple statements and barriers match their full span; branch and
    loop heads match only their test expression (their ``stmt`` spans
    the whole body, which belongs to deeper nodes).
    """
    best: Optional[CFGNode] = None
    for node in cfg.nodes:
        if node.stmt is None:
            continue
        if node.kind in ("stmt", "barrier"):
            lo, hi = _stmt_span(node.stmt)
        elif node.test is not None:
            lo = node.test.lineno
            hi = getattr(node.test, "end_lineno", None) or lo
        else:
            lo = hi = node.stmt.lineno
        if lo <= line <= hi and (best is None or len(node.stack) > len(best.stack)):
            best = node
    return best


def _collect_sites(
    cfg: CFG, ctx_name: str
) -> tuple[list[CounterSite], list[CostIssue]]:
    sites: list[CounterSite] = []
    issues: list[CostIssue] = []
    for node in cfg.nodes:
        if node.kind not in ("stmt", "barrier") or node.stmt is None:
            continue
        loops = _loop_ids(node)
        for call in ast.walk(node.stmt):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == ctx_name
            ):
                continue
            attr = call.func.attr
            line = call.lineno
            if attr in _COUNT_CALLS:
                delta = 1
                if call.args:
                    lit = _literal_int(call.args[0])
                    if lit is None:
                        issues.append(
                            CostIssue(
                                "warn",
                                line,
                                f"non-constant {attr}() argument; charging 1",
                            )
                        )
                    else:
                        delta = lit
                sites.append(
                    CounterSite(line, _COUNT_CALLS[attr], delta, delta, loops)
                )
            elif attr in ("atomic_add", "atomic_min", "result_reserve"):
                # a row reservation is one atomic cursor bump
                sites.append(CounterSite(line, "atomics", 1, 1, loops))
            elif attr == "result_store":
                arity = 2
                if len(call.args) >= 3 and isinstance(call.args[2], ast.Tuple):
                    arity = max(1, len(call.args[2].elts))
                # each stored field is one 4-byte word in the common
                # layouts; 8-byte fields double it, so 2×arity is the
                # sound per-record store bound
                sites.append(
                    CounterSite(line, "global_stores", 2 * arity, arity, loops)
                )
            elif attr == "syncthreads":
                sites.append(CounterSite(line, "syncs", 1, 1, loops))
    return sites, issues


def _txn_factor(classification: str) -> int:
    base = classification.split("(", 1)[0]
    if base in ("uniform", "coalesced"):
        return 1
    if base == "strided":
        try:
            stride = abs(int(classification[len("strided(") : -1]))
        except ValueError:
            return K.WARP_SIZE
        per_warp = math.ceil(stride * K.WARP_SIZE * K.WORD_BYTES / K.MEM_LINE_BYTES)
        return max(1, min(K.WARP_SIZE, per_warp))
    # bounded-stride and gathers: worst-case warp fan-out
    return K.WARP_SIZE


def derive_cost(kernel: Kernel) -> Optional[KernelCostModel]:
    """Derive the symbolic cost model for ``kernel``.

    Returns ``None`` for kernels without an interpreter path (no
    ``device_code`` override — e.g. dispatch-only kernels).
    """
    fn = device_fn(kernel)
    if fn is None:
        return None
    cfg = build_cfg(fn)
    invariants: Optional[KernelInvariants]
    try:
        invariants = kernel.value_invariants()
    except ValueError:
        invariants = None
    result = interpret_kernel(fn, invariants, cfg)
    try:
        contract = kernel.cost_contract()
    except ValueError:
        contract = None
    return derive_cost_from_result(
        kernel_name=kernel.name,
        fn=fn,
        cfg=cfg,
        result=result,
        contract=contract,
        registers_per_thread=kernel.registers_per_thread,
        kernel=kernel,
    )


def derive_cost_from_result(
    *,
    kernel_name: str,
    fn: ast.FunctionDef,
    cfg: CFG,
    result: AbsintResult,
    contract: Optional[CostContract],
    registers_per_thread: int = 32,
    kernel: Optional[Kernel] = None,
) -> KernelCostModel:
    """Build the cost model from an existing interpretation (kernelcheck
    reuses its KC005 run instead of interpreting twice)."""
    pv = Prover(dict(result.ranges))
    issues: list[CostIssue] = []
    trips = dict(contract.trip_estimates) if contract else {}

    # -- loops -------------------------------------------------------------
    loops: dict[int, LoopCost] = {}
    for nid, tc in sorted(result.loop_trips.items()):
        node = cfg.nodes[nid]
        var = ""
        if isinstance(node.stmt, ast.For) and isinstance(node.stmt.target, ast.Name):
            var = node.stmt.target.id
        bound: Optional[Lin] = None
        if tc.count is not None:
            bound = resolve_upper(tc.count, result.ranges, pv)
        estimated = var in trips
        loops[nid] = LoopCost(
            node_id=nid,
            line=tc.line,
            kind=tc.kind,
            var=var,
            bound=bound,
            estimated=estimated,
        )
        if bound is None and not estimated:
            detail = tc.detail or "no static trip bound"
            issues.append(
                CostIssue(
                    "error",
                    tc.line,
                    f"unbounded loop ({tc.kind}): {detail}; bound the loop "
                    f"via value_invariants() or declare a cost_contract() "
                    f"trip estimate for {var or '<loop>'!r}",
                )
            )

    # -- counter sites -----------------------------------------------------
    ctx_name, params = device_args(fn)
    sites, site_issues = _collect_sites(cfg, ctx_name)
    issues.extend(site_issues)

    # -- per-thread worst-case polynomials --------------------------------
    per_thread: dict[str, Optional[Lin]] = {c: Lin.of(0) for c in COST_COUNTERS}
    for site in sites:
        term: Optional[Lin] = Lin.of(site.bound_delta)
        for lid in site.loops:
            lb = loops[lid].bound
            if lb is None:
                term = None
                break
            term = term.mul(lb)
        prev = per_thread[site.counter]
        per_thread[site.counter] = (
            prev + term if prev is not None and term is not None else None
        )

    # -- warp-level memory transactions -----------------------------------
    warp_txn: dict[str, Optional[Lin]] = {"global": Lin.of(0), "shared": Lin.of(0)}
    for access in result.accesses:
        node = _node_for_line(cfg, access.line)
        mult: Optional[Lin] = Lin.of(_txn_factor(access.classification))
        if node is not None:
            for lid in _loop_ids(node):
                lb = loops[lid].bound if lid in loops else None
                if lb is None:
                    mult = None
                    break
                mult = mult.mul(lb)
        key = "shared" if access.shared else "global"
        prev = warp_txn[key]
        warp_txn[key] = (
            prev + mult if prev is not None and mult is not None else None
        )

    # -- contract checks ---------------------------------------------------
    if contract is not None:
        for counter, expr in sorted(contract.counter_bounds.items()):
            if counter not in COST_COUNTERS:
                issues.append(
                    CostIssue("warn", 0, f"unknown counter {counter!r} in contract")
                )
                continue
            try:
                declared = parse_bound(expr)
            except ValueError as exc:
                issues.append(
                    CostIssue(
                        "warn", 0, f"unusable counter bound for {counter}: {exc}"
                    )
                )
                continue
            derived = per_thread[counter]
            if derived is None:
                issues.append(
                    CostIssue(
                        "warn",
                        0,
                        f"declared bound for {counter} cannot be checked: "
                        "derived worst case is unbounded",
                    )
                )
            elif not pv.le(derived, declared):
                issues.append(
                    CostIssue(
                        "warn",
                        0,
                        f"cost_contract() declares per-thread {counter} <= "
                        f"{expr}, below the derived worst case "
                        f"{derived.render()}",
                    )
                )
        for var, expr in sorted(contract.trip_estimates.items()):
            try:
                ast.parse(expr, mode="eval")
            except SyntaxError:
                issues.append(
                    CostIssue(
                        "warn", 0, f"unparsable trip estimate for {var!r}: {expr!r}"
                    )
                )

    return KernelCostModel(
        kernel_name=kernel_name,
        params=tuple(params),
        loops=loops,
        sites=tuple(sites),
        per_thread=per_thread,
        warp_transactions=warp_txn,
        issues=issues,
        contract=contract,
        registers_per_thread=registers_per_thread,
        kernel=kernel,
    )
