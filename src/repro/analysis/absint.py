"""Abstract interpretation over device-kernel ASTs/CFGs.

This module is the one analysis that evaluates device-code expressions.
Its recording walk (the walk that runs once the loop fixpoints have
settled) yields the facts every kernelcheck pass reads: which branch and
loop tests differ across threads and which ``if`` tests pin one thread
(KC001, KC002), each indexed access with its abstract index (KC002,
KC003), the bounds verdict per access (KC005), the shared-buffer shapes
(KC004) and the loop trip bounds (KC007).  The domain is a product of:

* **integer intervals** whose endpoints are symbolic linear expressions
  (:class:`Lin`) over parameter symbols, ``bdim``/``gdim`` launch symbols,
  and *fresh symbols* introduced for values loaded from arrays covered by a
  :class:`RowRange` contract (e.g. ``G_min[h] <= G_max[h] < len(A)``), and
* **tid-affine tracking**: every value carries an optional interval for its
  per-thread stride ``a`` in ``a * tid + b`` (``[0, 0]`` means uniform
  across the warp, ``None`` means not provably affine in ``tid``), and a
  ``pure`` bit for values built only from ``thread_idx`` and literals.

Loops are handled with a bounded fixpoint plus widening at the loop head
(back edge); small constant-tuple loops (the 3x3 neighbourhood sweeps) are
unrolled sequentially for precision.  Inequality guards refine *variable*
intervals only -- the global symbol-range table stays monotone, which keeps
the analysis path-insensitive where it must be sound.

Kernel authors declare trusted facts via :class:`KernelInvariants`
(returned from ``Kernel.value_invariants()``): buffer lengths, scalar
parameter ranges, element ranges, and lo/hi row pairings.  Arrays with no
declared length are *assumed* in-bounds (recorded, never a finding), so the
checker stays precise on foreign kernels while proving shipped ones.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence, Union

from repro.analysis.cfg import CFG, ctx_call, device_args

__all__ = [
    "Lin",
    "Interval",
    "AbsVal",
    "Prover",
    "RowRange",
    "KernelInvariants",
    "AccessRecord",
    "AbsintResult",
    "IndexedAccess",
    "TripCount",
    "interpret_kernel",
    "parse_bound",
]

#: A monomial: a sorted tuple of symbol names (repeats encode powers).
Mono = tuple[str, ...]

#: A contract bound: int literal, expression string, or unbounded.
BoundSpec = Union[int, str, None]

_CTX_ATTRS = ("thread_idx", "block_idx", "block_dim", "grid_dim", "global_id")

_STATUS_ORDER = {"proved": 0, "assumed": 1, "unproved": 2}
_CLASS_ORDER = {
    "uniform": 0,
    "coalesced": 1,
    "strided": 2,
    "bounded-stride": 3,
    "gather-bounded": 4,
    "gather-unbounded": 5,
}


def _class_rank(c: str) -> int:
    base = c.split("(", 1)[0]
    return _CLASS_ORDER.get(base, 5)


# ---------------------------------------------------------------------------
# Symbolic linear expressions
# ---------------------------------------------------------------------------


class Lin:
    """An integer polynomial over named symbols (usually linear).

    Immutable by convention: arithmetic returns new instances.
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms: Mapping[Mono, int] | None = None, const: int = 0) -> None:
        self.terms: dict[Mono, int] = {m: c for m, c in (terms or {}).items() if c}
        self.const: int = const

    @staticmethod
    def of(value: int) -> "Lin":
        return Lin({}, int(value))

    @staticmethod
    def sym(name: str) -> "Lin":
        return Lin({(name,): 1}, 0)

    def key(self) -> tuple[tuple[tuple[Mono, int], ...], int]:
        return (tuple(sorted(self.terms.items())), self.const)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Lin) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def is_const(self) -> bool:
        return not self.terms

    def symbols(self) -> set[str]:
        out: set[str] = set()
        for m in self.terms:
            out.update(m)
        return out

    def _coerce(self, other: "Lin | int") -> "Lin":
        return other if isinstance(other, Lin) else Lin.of(other)

    def __add__(self, other: "Lin | int") -> "Lin":
        o = self._coerce(other)
        terms = dict(self.terms)
        for m, c in o.terms.items():
            terms[m] = terms.get(m, 0) + c
        return Lin(terms, self.const + o.const)

    def __sub__(self, other: "Lin | int") -> "Lin":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Lin":
        return Lin({m: -c for m, c in self.terms.items()}, -self.const)

    def mul(self, other: "Lin | int") -> "Lin":
        o = self._coerce(other)
        terms: dict[Mono, int] = {}
        const = self.const * o.const
        for m, c in self.terms.items():
            terms[m] = terms.get(m, 0) + c * o.const
        for m, c in o.terms.items():
            terms[m] = terms.get(m, 0) + c * self.const
        for (m1, c1), (m2, c2) in itertools.product(
            self.terms.items(), o.terms.items()
        ):
            m = tuple(sorted(m1 + m2))
            terms[m] = terms.get(m, 0) + c1 * c2
        return Lin(terms, const)

    def split(self, sym: str) -> "tuple[Lin, Lin] | None":
        """Decompose ``self == C * sym + R`` when ``sym`` has degree <= 1.

        Returns ``(C, R)``, or ``None`` if ``sym`` appears squared (or not
        at all, in which case substitution is useless anyway).
        """
        c_terms: dict[Mono, int] = {}
        c_const = 0
        r_terms: dict[Mono, int] = {}
        present = False
        for m, c in self.terms.items():
            count = m.count(sym)
            if count == 0:
                r_terms[m] = c
            elif count == 1:
                present = True
                rest = list(m)
                rest.remove(sym)
                if rest:
                    key = tuple(rest)
                    c_terms[key] = c_terms.get(key, 0) + c
                else:
                    c_const += c
            else:
                return None
        if not present:
            return None
        return Lin(c_terms, c_const), Lin(r_terms, self.const)

    def render(self) -> str:
        if not self.terms:
            return str(self.const)
        parts: list[str] = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(m)
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = " + ".join(parts).replace("+ -", "- ")
        if self.const:
            out += f" + {self.const}" if self.const > 0 else f" - {-self.const}"
        return out

    def __repr__(self) -> str:
        return f"Lin({self.render()})"


# ---------------------------------------------------------------------------
# Prover over symbol ranges
# ---------------------------------------------------------------------------


class Prover:
    """Proves ``lin >= 0`` given a monotone table of symbol ranges.

    Strategy: constant check; all-terms-nonnegative check; otherwise pick a
    degree-1 symbol, determine the sign of its coefficient polynomial, and
    substitute the symbol's lower or upper range bound accordingly, then
    recurse with bounded depth.
    """

    def __init__(self, ranges: dict[str, "Interval"]) -> None:
        self.ranges = ranges
        self._memo: dict[tuple[object, int], bool] = {}

    def ge0(self, lin: Lin, depth: int = 6) -> bool:
        if lin.is_const():
            return lin.const >= 0
        key = (lin.key(), depth)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self._memo[key] = False  # cycle guard
        result = self._ge0(lin, depth)
        self._memo[key] = result
        return result

    def _ge0(self, lin: Lin, depth: int) -> bool:
        if lin.const >= 0 and all(
            c > 0 and all(self._sym_ge0(s, depth - 1) for s in set(m))
            for m, c in lin.terms.items()
        ):
            return True
        if depth <= 0:
            return False
        for sym in sorted(lin.symbols()):
            sp = lin.split(sym)
            if sp is None:
                continue
            coeff, rest = sp
            rng = self.ranges.get(sym)
            if rng is None:
                continue
            if rng.lo is not None and self.ge0(coeff, depth - 1):
                if self.ge0(coeff.mul(rng.lo) + rest, depth - 1):
                    return True
            if rng.hi is not None and self.ge0(-coeff, depth - 1):
                if self.ge0(coeff.mul(rng.hi) + rest, depth - 1):
                    return True
        return False

    def _sym_ge0(self, sym: str, depth: int) -> bool:
        rng = self.ranges.get(sym)
        if rng is None or rng.lo is None:
            return False
        return self.ge0(rng.lo, max(depth, 0))

    def le(self, a: Lin, b: Lin) -> bool:
        """``a <= b``?"""
        return self.ge0(b - a)


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """An integer interval with symbolic (or absent = infinite) endpoints."""

    lo: Optional[Lin] = None
    hi: Optional[Lin] = None

    @staticmethod
    def top() -> "Interval":
        return Interval(None, None)

    @staticmethod
    def const(value: int) -> "Interval":
        lin = Lin.of(value)
        return Interval(lin, lin)

    @staticmethod
    def exact(lin: Lin) -> "Interval":
        return Interval(lin, lin)

    def is_exact(self) -> Optional[Lin]:
        if self.lo is not None and self.hi is not None and self.lo == self.hi:
            return self.lo
        return None

    def is_const(self) -> Optional[int]:
        lin = self.is_exact()
        if lin is not None and lin.is_const():
            return lin.const
        return None

    def add(self, other: "Interval") -> "Interval":
        lo = self.lo + other.lo if self.lo is not None and other.lo is not None else None
        hi = self.hi + other.hi if self.hi is not None and other.hi is not None else None
        return Interval(lo, hi)

    def neg(self) -> "Interval":
        return Interval(
            -self.hi if self.hi is not None else None,
            -self.lo if self.lo is not None else None,
        )

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def shift(self, k: int) -> "Interval":
        return self.add(Interval.const(k))

    def mul(self, other: "Interval", pv: Prover) -> "Interval":
        for a, b in ((self, other), (other, self)):
            lin = a.is_exact()
            if lin is None:
                continue
            if lin.is_const() and lin.const < 0:
                return Interval(
                    b.hi.mul(lin) if b.hi is not None else None,
                    b.lo.mul(lin) if b.lo is not None else None,
                )
            if pv.ge0(lin):
                return Interval(
                    b.lo.mul(lin) if b.lo is not None else None,
                    b.hi.mul(lin) if b.hi is not None else None,
                )
            if pv.ge0(-lin):
                return Interval(
                    b.hi.mul(lin) if b.hi is not None else None,
                    b.lo.mul(lin) if b.lo is not None else None,
                )
        if (
            self.lo is not None
            and other.lo is not None
            and pv.ge0(self.lo)
            and pv.ge0(other.lo)
        ):
            hi = (
                self.hi.mul(other.hi)
                if self.hi is not None and other.hi is not None
                else None
            )
            return Interval(self.lo.mul(other.lo), hi)
        return Interval.top()

    def floordiv(self, other: "Interval", pv: Prover) -> "Interval":
        # x // y with x >= 0 and y >= 1 lands in [0, x.hi].
        if (
            other.lo is not None
            and pv.ge0(other.lo - 1)
            and self.lo is not None
            and pv.ge0(self.lo)
        ):
            return Interval(Lin.of(0), self.hi)
        return Interval.top()

    def mod(self, other: "Interval", pv: Prover) -> "Interval":
        # Python's % with y >= 1 is always in [0, y - 1], any x.
        if other.lo is not None and pv.ge0(other.lo - 1):
            hi = other.hi - 1 if other.hi is not None else None
            return Interval(Lin.of(0), hi)
        return Interval.top()

    def min_(self, other: "Interval", pv: Prover) -> "Interval":
        if self.lo is None or other.lo is None:
            lo = None
        elif pv.le(self.lo, other.lo):
            lo = self.lo
        elif pv.le(other.lo, self.lo):
            lo = other.lo
        else:
            lo = None
        # min(a, b) <= a and <= b: either hi is sound; prefer a provably
        # smaller one; for incomparable candidates keep the simpler Lin
        # (fewer symbolic terms), which is likelier to match a declared
        # length or block dimension downstream.
        if self.hi is not None and other.hi is not None:
            if pv.le(self.hi, other.hi):
                hi = self.hi
            elif pv.le(other.hi, self.hi):
                hi = other.hi
            else:
                hi = self.hi if len(self.hi.terms) <= len(other.hi.terms) else other.hi
        else:
            hi = self.hi if self.hi is not None else other.hi
        return Interval(lo, hi)

    def max_(self, other: "Interval", pv: Prover) -> "Interval":
        if self.lo is not None and other.lo is not None:
            if pv.le(other.lo, self.lo):
                lo = self.lo
            elif pv.le(self.lo, other.lo):
                lo = other.lo
            else:
                lo = self.lo if len(self.lo.terms) <= len(other.lo.terms) else other.lo
        else:
            lo = self.lo if self.lo is not None else other.lo
        if self.hi is None or other.hi is None:
            hi = None
        elif pv.le(other.hi, self.hi):
            hi = self.hi
        elif pv.le(self.hi, other.hi):
            hi = other.hi
        else:
            hi = None
        return Interval(lo, hi)

    def join(self, other: "Interval", pv: Prover) -> "Interval":
        if self.lo is None or other.lo is None:
            lo = None
        elif pv.le(self.lo, other.lo):
            lo = self.lo
        elif pv.le(other.lo, self.lo):
            lo = other.lo
        else:
            lo = None
        if self.hi is None or other.hi is None:
            hi = None
        elif pv.le(other.hi, self.hi):
            hi = self.hi
        elif pv.le(self.hi, other.hi):
            hi = other.hi
        else:
            hi = None
        return Interval(lo, hi)

    def meet(
        self, refine: "Interval", pv: Prover, prefer_refine: bool = True
    ) -> "Interval":
        """Intersect with a refinement.  Both bounds are sound, so when the
        prover can order them the tighter one wins; on *incomparable*
        bounds the refining side wins only when ``prefer_refine`` is set
        (used for the guarded operand of a comparison — the other operand
        keeps its established bound to avoid precision loss)."""
        if refine.lo is None:
            lo = self.lo
        elif self.lo is None:
            lo = refine.lo
        elif pv.ge0(refine.lo - self.lo):
            lo = refine.lo
        elif pv.ge0(self.lo - refine.lo):
            lo = self.lo
        else:
            lo = refine.lo if prefer_refine else self.lo
        if refine.hi is None:
            hi = self.hi
        elif self.hi is None:
            hi = refine.hi
        elif pv.ge0(self.hi - refine.hi):
            hi = refine.hi
        elif pv.ge0(refine.hi - self.hi):
            hi = self.hi
        else:
            hi = refine.hi if prefer_refine else self.hi
        return Interval(lo, hi)

    def widen(self, newer: "Interval") -> "Interval":
        lo = self.lo if self.lo is not None and self.lo == newer.lo else None
        hi = self.hi if self.hi is not None and self.hi == newer.hi else None
        return Interval(lo, hi)

    def render(self) -> str:
        lo = self.lo.render() if self.lo is not None else "-inf"
        hi = self.hi.render() if self.hi is not None else "+inf"
        return f"[{lo}, {hi}]"


def _uniform() -> Interval:
    return Interval.const(0)


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsVal:
    """Product-domain value: interval x tid-stride x buffer aliasing."""

    rng: Interval = field(default_factory=Interval.top)
    a: Optional[Interval] = None  # per-thread stride; [0,0] = warp-uniform
    array: Optional[str] = None  # global buffer parameter this aliases
    shared: Optional[str] = None  # shared buffer this aliases
    pred: Optional[ast.expr] = None  # defining boolean expression, if any
    pure: bool = False  # built only from thread_idx and literals

    @staticmethod
    def top() -> "AbsVal":
        return AbsVal()

    @staticmethod
    def const(value: int) -> "AbsVal":
        return AbsVal(Interval.const(value), _uniform(), pure=True)

    @property
    def uniform(self) -> bool:
        """Identical in every thread of the block."""
        return self.a is not None and self.a.is_const() == 0

    def same(self, other: "AbsVal") -> bool:
        return (
            self.rng == other.rng
            and self.a == other.a
            and self.array == other.array
            and self.shared == other.shared
            and self.pure == other.pure
        )


#: an unknown value that is the same in every thread
_UNIFORM_TOP = AbsVal(Interval.top(), _uniform())


def _unpacked(val: AbsVal) -> AbsVal:
    """A part of ``val`` (an element or an unpacked target): unknown, and
    the same in every thread when ``val`` is."""
    return _UNIFORM_TOP if val.uniform else AbsVal.top()


def _join_val(x: AbsVal, y: AbsVal, pv: Prover) -> AbsVal:
    a: Optional[Interval]
    if x.a is not None and y.a is not None:
        a = x.a.join(y.a, pv)
    else:
        a = None
    return AbsVal(
        rng=x.rng.join(y.rng, pv),
        a=a,
        array=x.array if x.array == y.array else None,
        shared=x.shared if x.shared == y.shared else None,
        pure=x.pure and y.pure,
    )


def _widen_val(old: AbsVal, new: AbsVal) -> AbsVal:
    a: Optional[Interval]
    if old.a is not None and new.a is not None:
        a = old.a.widen(new.a)
    else:
        a = None
    return AbsVal(
        rng=old.rng.widen(new.rng),
        a=a,
        array=old.array if old.array == new.array else None,
        shared=old.shared if old.shared == new.shared else None,
        pure=old.pure and new.pure,
    )


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------


@dataclass
class RowRange:
    """Declares ``lo_arr[i] <= hi_arr[i] < len(length_of)`` for all ``i``.

    With ``empty=True`` (the default) a row may be absent, encoded as
    ``lo_arr[i] == -1``; callers are expected to guard on ``lo >= 0``.
    """

    lo: str
    hi: str
    length_of: str
    empty: bool = True


@dataclass
class KernelInvariants:
    """Trusted per-kernel value contracts consumed by the interpreter.

    ``lengths`` maps buffer parameter names to length expressions over the
    scalar parameters (e.g. ``{"G_min": "nx*ny"}``).  ``scalars`` maps
    scalar parameter names to ``(lo, hi)`` bound expressions (``None`` for
    unbounded).  ``elements`` bounds the values stored in a buffer.
    ``rows`` declares lo/hi row pairings (see :class:`RowRange`).
    """

    lengths: Mapping[str, str] = field(default_factory=dict)
    scalars: Mapping[str, tuple[BoundSpec, BoundSpec]] = field(default_factory=dict)
    elements: Mapping[str, tuple[BoundSpec, BoundSpec]] = field(default_factory=dict)
    rows: tuple[RowRange, ...] = ()


class ContractError(ValueError):
    """A malformed bound expression in a kernel contract."""


def parse_bound(spec: BoundSpec) -> Optional[Lin]:
    """Parse a contract bound (int or expression string) into a :class:`Lin`.

    Supported grammar: names, integer literals, ``+``, ``-``, ``*``, unary
    minus, and ``len(name)``.
    """
    if spec is None:
        return None
    if isinstance(spec, int):
        return Lin.of(spec)
    try:
        tree = ast.parse(str(spec), mode="eval")
    except SyntaxError as exc:  # pragma: no cover - contract author error
        raise ContractError(f"unparsable bound {spec!r}") from exc

    def walk(node: ast.expr) -> Lin:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return Lin.of(node.value)
        if isinstance(node, ast.Name):
            return Lin.sym(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -walk(node.operand)
        if isinstance(node, ast.BinOp):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left.mul(right)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "len"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Name)
        ):
            return Lin.sym(f"len({node.args[0].id})")
        raise ContractError(f"unsupported bound expression {spec!r}")

    return walk(tree.body)


# ---------------------------------------------------------------------------
# Access records and results
# ---------------------------------------------------------------------------


@dataclass
class AccessRecord:
    """One (buffer, line, direction) indexed access and its verdict."""

    buffer: str
    line: int
    write: bool
    shared: bool
    index: str
    status: str  # proved | assumed | unproved
    detail: str
    classification: str
    interval: str = ""

    def to_dict(self) -> dict[str, object]:
        return {
            "buffer": self.buffer,
            "line": self.line,
            "write": self.write,
            "shared": self.shared,
            "index": self.index,
            "status": self.status,
            "detail": self.detail,
            "classification": self.classification,
            "interval": self.interval,
        }


@dataclass(frozen=True)
class IndexedAccess:
    """One indexed access site, its index joined over every visit of the
    recording walk (an unrolled loop visits its body once per element)."""

    node: int  #: CFG node id of the statement or head holding the access
    buffer: str  #: global parameter, or the variable bound to a shared buffer
    shared: bool
    write: bool
    index: ast.expr
    value: AbsVal
    line: int


@dataclass
class TripCount:
    """Widening-safe upper bound on one loop's iteration count.

    ``count`` is a :class:`Lin` over the contract symbols (params,
    ``bdim``/``gdim``, buffer lengths) bounding how many times the loop
    body runs *per execution of the loop statement*; ``None`` means the
    interpreter could not bound it (KC007 reports these).  Evaluators
    must clamp at zero — a sound upper bound may go negative for
    zero-trip bindings (``stop < start``).
    """

    line: int
    kind: str  # "range" | "unrolled" | "iterable" | "while"
    count: Optional[Lin]
    detail: str = ""

    @property
    def bounded(self) -> bool:
        return self.count is not None

    def render(self) -> str:
        bound = self.count.render() if self.count is not None else "unbounded"
        return f"L{self.line} {self.kind}: {bound}"


@dataclass
class AbsintResult:
    """Everything the interpreter learned about one device function.

    The CFG-keyed facts (``loop_trips``, ``divergent``, ``pins``,
    ``indexed``) are only recorded when :func:`interpret_kernel` is given
    the function's CFG.
    """

    accesses: list[AccessRecord]
    #: CFG loop-head node id -> per-execution trip-count bound
    loop_trips: dict[int, TripCount]
    #: raw final symbol ranges (contract + fresh row symbols) — lets
    #: downstream passes resolve fresh symbols out of the trip bounds
    ranges: dict[str, Interval]
    #: branch / loop-head node ids whose test may differ across threads
    divergent: set[int]
    #: ``if`` node ids whose test pins one thread (``tid == <uniform>``)
    pins: set[int]
    #: every indexed access, in CFG node order
    indexed: list[IndexedAccess]
    #: shared-buffer variable -> per-dimension extent (None = not exact)
    shared_dims: dict[str, list[Optional[Lin]]]

    def unproved(self) -> list[AccessRecord]:
        return [a for a in self.accesses if a.status == "unproved"]


# ---------------------------------------------------------------------------
# Control-flow bookkeeping
# ---------------------------------------------------------------------------

Env = dict[str, AbsVal]


@dataclass
class _Flow:
    env: Optional[Env]
    continues: list[Env] = field(default_factory=list)
    breaks: list[Env] = field(default_factory=list)


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


# ---------------------------------------------------------------------------
# The interpreter
# ---------------------------------------------------------------------------


class _Interp:
    MAX_PASSES = 6
    WIDEN_AT = 3
    MAX_UNROLL = 16

    def __init__(
        self,
        fn: ast.FunctionDef,
        invariants: Optional[KernelInvariants],
        cfg: Optional[CFG],
    ) -> None:
        self.fn = fn
        self.inv = invariants or KernelInvariants()
        self.ctx_name, self.params = device_args(fn)
        #: names the function binds; any other name (a module global or
        #: builtin) is the same in every thread
        self.stored = {
            n.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        self.ranges: dict[str, Interval] = {}
        self.pv = Prover(self.ranges)
        self.heap: dict[str, list[Interval]] = {}
        self.shared_dims: dict[str, list[Optional[Lin]]] = {}
        self.row_memo: dict[tuple[str, str], tuple[str, frozenset[str]]] = {}
        self.accesses: list[AccessRecord] = []
        self.loop_trips: dict[int, TripCount] = {}
        self.divergent: set[int] = set()
        self.pinned: dict[int, bool] = {}
        self.indexed: dict[tuple[int, int, bool], IndexedAccess] = {}
        self.recording = True
        self._at: Optional[int] = None  # CFG node of the statement running
        self._sym_n = 0
        self._rows_by_lo = {r.lo: r for r in self.inv.rows}
        self._rows_by_hi = {r.hi: r for r in self.inv.rows}
        self._node_of: dict[int, int] = {}
        if cfg is not None:
            for node in cfg.nodes:
                if node.stmt is not None:
                    self._node_of[id(node.stmt)] = node.id

    # -- setup ------------------------------------------------------------

    def _length(self, array: str) -> Lin:
        spec = self.inv.lengths.get(array)
        if spec is not None:
            lin = parse_bound(spec)
            assert lin is not None
            return lin
        sym = f"len({array})"
        self.ranges.setdefault(sym, Interval(Lin.of(0), None))
        return Lin.sym(sym)

    def _init_env(self) -> Env:
        env: Env = {}
        self.ranges["bdim"] = Interval(Lin.of(1), None)
        self.ranges["gdim"] = Interval(Lin.of(1), None)
        bdim, gdim = Lin.sym("bdim"), Lin.sym("gdim")
        ctx = self.ctx_name
        env[f"{ctx}.thread_idx"] = AbsVal(
            Interval(Lin.of(0), bdim - 1), Interval.const(1), pure=True
        )
        env[f"{ctx}.block_idx"] = AbsVal(Interval(Lin.of(0), gdim - 1), _uniform())
        env[f"{ctx}.block_dim"] = AbsVal(Interval.exact(bdim), _uniform())
        env[f"{ctx}.grid_dim"] = AbsVal(Interval.exact(gdim), _uniform())
        env[f"{ctx}.global_id"] = AbsVal(
            Interval(Lin.of(0), gdim.mul(bdim) - 1), Interval.const(1)
        )
        for p in self.params:
            lo_s, hi_s = self.inv.scalars.get(p, (None, None))
            self.ranges[p] = Interval(parse_bound(lo_s), parse_bound(hi_s))
            env[p] = AbsVal(Interval.exact(Lin.sym(p)), _uniform(), array=p)
        # Contracts may bound free symbols that are not parameters (e.g.
        # ``n`` standing for ``len(D)``): register those ranges too.
        for sym_name, (lo_s, hi_s) in self.inv.scalars.items():
            if sym_name not in self.ranges:
                self.ranges[sym_name] = Interval(parse_bound(lo_s), parse_bound(hi_s))
        return env

    # -- entry ------------------------------------------------------------

    def run(self) -> AbsintResult:
        env = self._init_env()
        self._exec_block(self.fn.body, env)
        return AbsintResult(
            accesses=self._merged_accesses(),
            loop_trips=self.loop_trips,
            ranges=dict(self.ranges),
            divergent=self.divergent,
            pins={nid for nid, pinned in self.pinned.items() if pinned},
            indexed=sorted(self.indexed.values(), key=lambda f: f.node),
            shared_dims=self.shared_dims,
        )

    def _merged_accesses(self) -> list[AccessRecord]:
        merged: dict[tuple[str, int, bool], AccessRecord] = {}
        for rec in self.accesses:
            key = (rec.buffer, rec.line, rec.write)
            prev = merged.get(key)
            if prev is None:
                merged[key] = rec
                continue
            if _STATUS_ORDER[rec.status] > _STATUS_ORDER[prev.status]:
                prev.status, prev.detail = rec.status, rec.detail
                prev.interval = rec.interval
            if _class_rank(rec.classification) > _class_rank(prev.classification):
                prev.classification = rec.classification
        return sorted(merged.values(), key=lambda r: (r.line, r.buffer, r.write))

    # -- env utilities ----------------------------------------------------

    def _fresh(self, array: str, idx_text: str) -> str:
        self._sym_n += 1
        return f"s{self._sym_n}:{array}[{idx_text}]"

    def _purge(self, name: str, env: Env) -> None:
        dead = [k for k, (_, deps) in self.row_memo.items() if name in deps]
        for k in dead:
            del self.row_memo[k]
        for k, v in list(env.items()):
            if v.pred is not None and name in _names_in(v.pred):
                env[k] = replace(v, pred=None)

    def _join_env(self, a: Optional[Env], b: Optional[Env]) -> Optional[Env]:
        if a is None:
            return dict(b) if b is not None else None
        if b is None:
            return dict(a)
        out: Env = {}
        for k in set(a) | set(b):
            va, vb = a.get(k), b.get(k)
            if va is not None and vb is not None:
                out[k] = _join_val(va, vb, self.pv)
            else:
                # bound on one path only: a read succeeds only after that
                # path, so the name is uniform if it is there (its range
                # is left unknown)
                out[k] = _unpacked(a[k] if k in a else b[k])
        return out

    def _join_envs(self, envs: Sequence[Optional[Env]]) -> Optional[Env]:
        acc: Optional[Env] = None
        for e in envs:
            acc = self._join_env(acc, e)
        return acc

    def _widen_env(self, old: Env, new: Env) -> Env:
        out: Env = {}
        for k in set(old) | set(new):
            vo, vn = old.get(k), new.get(k)
            if vo is not None and vn is not None:
                out[k] = _widen_val(vo, vn)
            else:
                out[k] = _unpacked(old[k] if k in old else new[k])
        return out

    def _env_eq(self, a: Env, b: Env) -> bool:
        if set(a) != set(b):
            return False
        return all(a[k].same(b[k]) for k in a)

    def _record_trip(
        self,
        st: ast.stmt,
        kind: str,
        count: Optional[Lin],
        detail: str = "",
    ) -> None:
        """Record a loop-head trip-count bound (outermost final walk
        only — fixpoint passes run with ``recording`` off, exactly like
        access recording)."""
        if not self.recording:
            return
        nid = self._node_of.get(id(st))
        if nid is None:
            return
        self.loop_trips[nid] = TripCount(
            line=st.lineno, kind=kind, count=count, detail=detail
        )

    def _record_test(self, st: ast.stmt, test: AbsVal) -> None:
        """Note a branch or loop test that may differ across threads."""
        nid = self._node_of.get(id(st))
        if self.recording and nid is not None and not test.uniform:
            self.divergent.add(nid)

    def _record_pin(self, st: ast.If, env: Env) -> None:
        """Note whether an ``if`` test pins one thread (``tid == <uniform>``)
        on every visit."""
        nid = self._node_of.get(id(st))
        if not self.recording or nid is None:
            return
        test, pinned = st.test, False
        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], ast.Eq)
        ):
            x = self._quiet_eval(test.left, env)
            y = self._quiet_eval(test.comparators[0], env)
            pinned = any(
                p.a is not None and p.a.is_const() == 1 and q.uniform
                for p, q in ((x, y), (y, x))
            )
        self.pinned[nid] = self.pinned.get(nid, True) and pinned

    # -- expression evaluation --------------------------------------------

    def _eval(self, node: ast.expr, env: Env) -> AbsVal:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return AbsVal.const(int(node.value))
            if isinstance(node.value, int):
                return AbsVal.const(node.value)
            return AbsVal(Interval.top(), _uniform(), pure=True)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return AbsVal.top() if node.id in self.stored else _UNIFORM_TOP
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == self.ctx_name
                and node.attr in _CTX_ATTRS
            ):
                return env.get(f"{self.ctx_name}.{node.attr}", AbsVal.top())
            if self._eval(node.value, env).uniform:
                return _UNIFORM_TOP
            return AbsVal.top()
        if isinstance(node, ast.BinOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            val = self._eval(node.operand, env)
            if isinstance(node.op, ast.USub):
                a = val.a.neg() if val.a is not None else None
                return AbsVal(val.rng.neg(), a, pure=val.pure)
            if isinstance(node.op, ast.UAdd):
                return val
            a = _uniform() if val.uniform else None
            if isinstance(node.op, ast.Not):
                return AbsVal(Interval(Lin.of(0), Lin.of(1)), a, pure=val.pure)
            return AbsVal(Interval.top(), a)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Compare):
            vals = [self._eval(node.left, env)] + [
                self._eval(c, env) for c in node.comparators
            ]
            a = _uniform() if all(v.uniform for v in vals) else None
            return AbsVal(Interval(Lin.of(0), Lin.of(1)), a)
        if isinstance(node, ast.BoolOp):
            vals = [self._eval(v, env) for v in node.values]
            a = _uniform() if all(v.uniform for v in vals) else None
            return AbsVal(Interval(Lin.of(0), Lin.of(1)), a)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, env, write=False, stored=None)
        if isinstance(node, ast.IfExp):
            test = self._eval(node.test, env)
            val = _join_val(
                self._eval(node.body, env), self._eval(node.orelse, env), self.pv
            )
            return val if test.uniform else replace(val, a=None)
        if isinstance(node, (ast.Tuple, ast.List)):
            vals = [self._eval(e, env) for e in node.elts]
            return _UNIFORM_TOP if all(v.uniform for v in vals) else AbsVal.top()
        if isinstance(node, ast.Starred):
            return self._eval(node.value, env)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self._eval(node.value, env)
            return AbsVal.top()
        return AbsVal.top()

    def _eval_binop(self, node: ast.BinOp, env: Env) -> AbsVal:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        op = node.op
        a = _uniform() if left.uniform and right.uniform else None
        rng = Interval.top()
        if isinstance(op, (ast.Add, ast.Sub)):
            sub = isinstance(op, ast.Sub)
            if left.a is not None and right.a is not None:
                a = left.a.sub(right.a) if sub else left.a.add(right.a)
            rng = left.rng.sub(right.rng) if sub else left.rng.add(right.rng)
        elif isinstance(op, ast.Mult):
            if a is None and right.uniform and left.a is not None:
                a = left.a.mul(right.rng, self.pv)
            elif a is None and left.uniform and right.a is not None:
                a = right.a.mul(left.rng, self.pv)
            rng = left.rng.mul(right.rng, self.pv)
        elif isinstance(op, ast.FloorDiv):
            rng = left.rng.floordiv(right.rng, self.pv)
        elif isinstance(op, ast.Mod):
            rng = left.rng.mod(right.rng, self.pv)
        return AbsVal(rng, a, pure=left.pure and right.pure)

    def _eval_call(self, node: ast.Call, env: Env) -> AbsVal:
        func = node.func
        # ctx.<method>(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == self.ctx_name
        ):
            if func.attr in ("atomic_add", "atomic_min") and len(node.args) >= 2:
                buf = self._eval(node.args[0], env)
                idx_node = node.args[1]
                idx = self._eval(idx_node, env)
                if len(node.args) > 2:
                    self._eval(node.args[2], env)
                self._check_access(buf, idx_node, idx, write=True, line=node.lineno)
                return AbsVal.top()
            for arg in node.args:
                self._eval(arg, env)
            return AbsVal.top()
        args = [self._eval(a, env) for a in node.args]
        if isinstance(func, ast.Name):
            name = func.id
            if name in ("int", "float", "bool") and len(args) == 1:
                return args[0]
            if name == "device_array" and len(args) == 1:
                return args[0]
            if name == "abs" and len(args) == 1:
                v = args[0]
                hi: Optional[Lin]
                if v.rng.lo is not None and v.rng.hi is not None:
                    neg_lo = -v.rng.lo
                    hi = neg_lo if self.pv.le(v.rng.hi, neg_lo) else v.rng.hi
                else:
                    hi = None
                return AbsVal(
                    Interval(Lin.of(0), hi),
                    _uniform() if v.uniform else None,
                    pure=v.pure,
                )
            if name in ("min", "max") and len(args) >= 2:
                acc = args[0]
                for nxt in args[1:]:
                    rng = (
                        acc.rng.min_(nxt.rng, self.pv)
                        if name == "min"
                        else acc.rng.max_(nxt.rng, self.pv)
                    )
                    a = _uniform() if acc.uniform and nxt.uniform else None
                    acc = AbsVal(rng, a, pure=acc.pure and nxt.pure)
                return acc
            if name == "len" and len(args) == 1 and isinstance(node.args[0], ast.Name):
                target = node.args[0].id
                val = env.get(target)
                if val is not None and val.shared is not None:
                    dims = self.shared_dims.get(val.shared) or [None]
                    if dims and dims[0] is not None:
                        return AbsVal(Interval.exact(dims[0]), _uniform())
                    return AbsVal(Interval(Lin.of(0), None), _uniform())
                if val is not None and val.array is not None:
                    return AbsVal(
                        Interval.exact(self._length(val.array)), _uniform()
                    )
                return AbsVal(
                    Interval(Lin.of(0), None),
                    _uniform() if args[0].uniform else None,
                )
        # any other callable (round, math.sqrt, np.float64, ...) is the
        # same in every thread when the callee and every argument are
        args += [self._eval(k.value, env) for k in node.keywords]
        if self._eval(func, env).uniform and all(v.uniform for v in args):
            return _UNIFORM_TOP
        return AbsVal.top()

    # -- array accesses ----------------------------------------------------

    def _subscript(
        self,
        node: ast.Subscript,
        env: Env,
        *,
        write: bool,
        stored: Optional[AbsVal],
    ) -> AbsVal:
        base = self._eval(node.value, env)
        idx_node = node.slice
        if isinstance(idx_node, ast.Slice):
            self._note_index(base, idx_node, AbsVal.top(), write, node.lineno)
            return AbsVal.top()
        if isinstance(idx_node, ast.Tuple):
            idx_vals = [self._eval(e, env) for e in idx_node.elts]
            # a tuple index is one slot: uniform only when every part is
            whole = AbsVal(
                a=_uniform() if all(v.uniform for v in idx_vals) else None,
                pure=all(v.pure for v in idx_vals),
            )
            self._check_multi(
                base, idx_node, idx_vals, whole, write=write, line=node.lineno
            )
            return self._loaded_value(base, idx_node, whole, env, write, stored)
        idx = self._eval(idx_node, env)
        self._check_access(base, idx_node, idx, write=write, line=node.lineno)
        return self._loaded_value(base, idx_node, idx, env, write, stored)

    def _loaded_value(
        self,
        base: AbsVal,
        idx_node: ast.expr,
        idx: AbsVal,
        env: Env,
        write: bool,
        stored: Optional[AbsVal],
    ) -> AbsVal:
        if base.shared is not None:
            if write:
                if stored is not None:
                    self._heap_store(base.shared, stored.rng)
                return AbsVal.top()
            rng = self._heap_read(base.shared)
            return AbsVal(rng, _uniform() if idx.uniform else None)
        if base.array is not None and not write:
            return self._load_from_array(base.array, idx_node, idx)
        # a table, tuple or shape that is the same in every thread
        if base.uniform and idx.uniform and not write:
            return _UNIFORM_TOP
        return AbsVal.top()

    def _load_from_array(
        self, array: str, idx_node: ast.expr, idx: AbsVal
    ) -> AbsVal:
        a = _uniform() if idx.uniform else None
        idx_text = ast.unparse(idx_node)
        row = self._rows_by_lo.get(array)
        if row is not None:
            key = (array, idx_text)
            hit = self.row_memo.get(key)
            if hit is not None:
                return AbsVal(Interval.exact(Lin.sym(hit[0])), a)
            sym = self._fresh(array, idx_text)
            length = self._length(row.length_of)
            lo = Lin.of(-1 if row.empty else 0)
            self.ranges[sym] = Interval(lo, length - 1)
            self.row_memo[key] = (sym, frozenset(_names_in(idx_node)))
            return AbsVal(Interval.exact(Lin.sym(sym)), a)
        row = self._rows_by_hi.get(array)
        if row is not None:
            key = (array, idx_text)
            hit = self.row_memo.get(key)
            if hit is not None:
                return AbsVal(Interval.exact(Lin.sym(hit[0])), a)
            length = self._length(row.length_of)
            lo_hit = self.row_memo.get((row.lo, idx_text))
            lo = (
                Lin.sym(lo_hit[0])
                if lo_hit is not None
                else Lin.of(-1 if row.empty else 0)
            )
            sym = self._fresh(array, idx_text)
            self.ranges[sym] = Interval(lo, length - 1)
            self.row_memo[key] = (sym, frozenset(_names_in(idx_node)))
            return AbsVal(Interval.exact(Lin.sym(sym)), a)
        el = self.inv.elements.get(array)
        if el is not None:
            return AbsVal(Interval(parse_bound(el[0]), parse_bound(el[1])), a)
        return AbsVal(Interval.top(), a)

    def _classify(self, idx: AbsVal) -> str:
        if idx.a is not None:
            k = idx.a.is_const()
            if k == 0:
                return "uniform"
            if k in (1, -1):
                return "coalesced"
            if k is not None:
                return f"strided({k})"
            if idx.a.is_exact() is not None or (
                idx.a.lo is not None and idx.a.hi is not None
            ):
                return "bounded-stride"
        if idx.rng.lo is not None and idx.rng.hi is not None:
            return "gather-bounded"
        return "gather-unbounded"

    def _note_index(
        self, base: AbsVal, idx_node: ast.expr, idx: AbsVal, write: bool, line: int
    ) -> None:
        """Keep the indexed-access fact, joined over visits of its node."""
        buffer = base.shared or base.array
        if not self.recording or self._at is None or buffer is None:
            return
        key = (self._at, id(idx_node), write)
        prev = self.indexed.get(key)
        value = idx if prev is None else _join_val(prev.value, idx, self.pv)
        self.indexed[key] = IndexedAccess(
            self._at, buffer, base.shared is not None, write, idx_node, value, line
        )

    def _check_access(
        self,
        base: AbsVal,
        idx_node: ast.expr,
        idx: AbsVal,
        *,
        write: bool,
        line: int,
    ) -> None:
        self._note_index(base, idx_node, idx, write, line)
        if base.shared is not None:
            dims = self.shared_dims.get(base.shared) or [None]
            self._record(
                base.shared, True, write, line, idx_node, idx, dims[0]
            )
        elif base.array is not None:
            bound = (
                parse_bound(self.inv.lengths[base.array])
                if base.array in self.inv.lengths
                else None
            )
            self._record(base.array, False, write, line, idx_node, idx, bound)

    def _check_multi(
        self,
        base: AbsVal,
        idx_tuple: ast.Tuple,
        idx_vals: list[AbsVal],
        whole: AbsVal,
        *,
        write: bool,
        line: int,
    ) -> None:
        self._note_index(base, idx_tuple, whole, write, line)
        if base.shared is not None:
            dims = self.shared_dims.get(base.shared) or []
            for d, (node, val) in enumerate(zip(idx_tuple.elts, idx_vals)):
                bound = dims[d] if d < len(dims) else None
                self._record(base.shared, True, write, line, node, val, bound, dim=d)
        elif base.array is not None:
            bound = (
                parse_bound(self.inv.lengths[base.array])
                if base.array in self.inv.lengths
                else None
            )
            if idx_vals:
                self._record(
                    base.array, False, write, line, idx_tuple.elts[0], idx_vals[0], bound
                )

    def _record(
        self,
        buffer: str,
        shared: bool,
        write: bool,
        line: int,
        idx_node: ast.expr,
        idx: AbsVal,
        bound: Optional[Lin],
        dim: int = 0,
    ) -> None:
        if not self.recording:
            return
        classification = self._classify(idx)
        if not shared and bound is None:
            status, detail = "assumed", "no length contract for buffer"
        else:
            lo_ok = idx.rng.lo is not None and self.pv.ge0(idx.rng.lo)
            hi_ok = (
                bound is not None
                and idx.rng.hi is not None
                and self.pv.ge0(bound - 1 - idx.rng.hi)
            )
            if lo_ok and hi_ok:
                status, detail = "proved", "in bounds"
            else:
                fails = []
                if not lo_ok:
                    fails.append("lower bound (index may be < 0)")
                if not hi_ok:
                    if bound is None:
                        fails.append("upper bound (extent not static)")
                    else:
                        fails.append(f"upper bound (vs {bound.render()})")
                status, detail = "unproved", "; ".join(fails)
        self.accesses.append(
            AccessRecord(
                buffer=buffer,
                line=line,
                write=write,
                shared=shared,
                index=ast.unparse(idx_node),
                status=status,
                detail=detail if dim == 0 else f"dim {dim}: {detail}",
                classification=classification,
                interval=idx.rng.render(),
            )
        )

    # -- refinement --------------------------------------------------------

    def _quiet_eval(self, node: ast.expr, env: Env) -> AbsVal:
        """Evaluate without recording (the access was recorded already)."""
        rec = self.recording
        self.recording = False
        try:
            return self._eval(node, env)
        finally:
            self.recording = rec

    def _assume(self, test: ast.expr, truth: bool, env: Env, depth: int = 4) -> bool:
        """Refine ``env`` under ``test == truth``; False means infeasible."""
        if depth <= 0:
            return True
        if isinstance(test, ast.Constant):
            return bool(test.value) == truth
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            return self._assume(test.operand, not truth, env, depth)
        if isinstance(test, ast.BoolOp):
            conjunctive = (isinstance(test.op, ast.And) and truth) or (
                isinstance(test.op, ast.Or) and not truth
            )
            if conjunctive:
                return all(self._assume(v, truth, env, depth) for v in test.values)
            return True
        if isinstance(test, ast.Compare):
            if len(test.ops) == 1:
                return self._assume_cmp(
                    test.left, test.ops[0], test.comparators[0], truth, env
                )
            if len(test.ops) == 2 and truth:
                ok1 = self._assume_cmp(
                    test.left, test.ops[0], test.comparators[0], True, env
                )
                ok2 = self._assume_cmp(
                    test.comparators[0], test.ops[1], test.comparators[1], True, env
                )
                return ok1 and ok2
            return True
        if isinstance(test, ast.Name):
            val = env.get(test.id)
            if val is not None and val.pred is not None:
                return self._assume(val.pred, truth, env, depth - 1)
            return True
        return True

    def _assume_cmp(
        self,
        left: ast.expr,
        op: ast.cmpop,
        right: ast.expr,
        truth: bool,
        env: Env,
    ) -> bool:
        if not truth:
            flipped = {
                ast.Lt: ast.GtE,
                ast.LtE: ast.Gt,
                ast.Gt: ast.LtE,
                ast.GtE: ast.Lt,
                ast.NotEq: ast.Eq,
            }.get(type(op))
            if flipped is None:
                return True
            op = flipped()
        if isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn, ast.NotEq)):
            return True
        lv = self._quiet_eval(left, env)
        rv = self._quiet_eval(right, env)

        def key_of(node: ast.expr) -> Optional[str]:
            if isinstance(node, ast.Name):
                return node.id
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == self.ctx_name
                and node.attr in _CTX_ATTRS
            ):
                return f"{self.ctx_name}.{node.attr}"
            return None

        def refine(node: ast.expr, by: Interval, prefer: bool = True) -> None:
            key = key_of(node)
            if key is None or key not in env:
                return
            val = env[key]
            env[key] = replace(val, rng=val.rng.meet(by, self.pv, prefer))

        llo, lhi = lv.rng.lo, lv.rng.hi
        rlo, rhi = rv.rng.lo, rv.rng.hi
        if isinstance(op, ast.Lt):
            refine(left, Interval(None, rhi - 1 if rhi is not None else None))
            refine(right, Interval(llo + 1 if llo is not None else None, None), False)
        elif isinstance(op, ast.LtE):
            refine(left, Interval(None, rhi))
            refine(right, Interval(llo, None), False)
        elif isinstance(op, ast.Gt):
            refine(left, Interval(rlo + 1 if rlo is not None else None, None))
            refine(right, Interval(None, lhi - 1 if lhi is not None else None), False)
        elif isinstance(op, ast.GtE):
            refine(left, Interval(rlo, None))
            refine(right, Interval(None, lhi), False)
        elif isinstance(op, ast.Eq):
            refine(left, rv.rng)
            refine(right, lv.rng, False)
        return True

    # -- statements --------------------------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt], env: Optional[Env]) -> _Flow:
        continues: list[Env] = []
        breaks: list[Env] = []
        cur = env
        for st in stmts:
            if cur is None:
                break
            fl = self._exec_stmt(st, cur)
            continues.extend(fl.continues)
            breaks.extend(fl.breaks)
            cur = fl.env
        return _Flow(cur, continues, breaks)

    def _exec_stmt(self, st: ast.stmt, env: Env) -> _Flow:
        self._at = self._node_of.get(id(st))
        if isinstance(st, ast.Assign):
            return self._exec_assign(st, env)
        if isinstance(st, ast.AnnAssign):
            if st.value is not None and isinstance(st.target, ast.Name):
                val = self._eval(st.value, env)
                self._bind_name(st.target.id, val, st.value, env)
            return _Flow(env)
        if isinstance(st, ast.AugAssign):
            return self._exec_augassign(st, env)
        if isinstance(st, ast.Expr):
            self._eval(st.value, env)
            return _Flow(env)
        if isinstance(st, ast.If):
            return self._exec_if(st, env)
        if isinstance(st, ast.For):
            return self._exec_for(st, env)
        if isinstance(st, ast.While):
            return self._exec_while(st, env)
        if isinstance(st, ast.Return):
            if st.value is not None:
                self._eval(st.value, env)
            return _Flow(None)
        if isinstance(st, ast.Continue):
            return _Flow(None, continues=[dict(env)])
        if isinstance(st, ast.Break):
            return _Flow(None, breaks=[dict(env)])
        if isinstance(st, (ast.Pass, ast.Global, ast.Nonlocal, ast.Import,
                           ast.ImportFrom, ast.Assert, ast.FunctionDef)):
            return _Flow(env)
        if isinstance(st, ast.With):
            return self._exec_block(st.body, env)
        if isinstance(st, ast.Try):
            # an exception may leave the body before any statement; every
            # handler, the ``else`` and the ``finally`` run for their facts
            body = self._exec_block(st.body, env)
            raised = self._join_env(body.env, env)
            assert raised is not None
            flows = [body, self._exec_block(st.orelse, body.env)] + [
                self._exec_block(h.body, dict(raised)) for h in st.handlers
            ]
            after = self._join_envs([raised, *(f.env for f in flows[1:])])
            flows.append(self._exec_block(st.finalbody, after))
            return _Flow(
                flows[-1].env,
                [e for f in flows for e in f.continues],
                [e for f in flows for e in f.breaks],
            )
        return _Flow(env)

    def _exec_assign(self, st: ast.Assign, env: Env) -> _Flow:
        if len(st.targets) > 1:
            val = self._eval(st.value, env)
            for target in st.targets:
                self._assign_target(target, val, st.value, env)
            return _Flow(env)
        target, value = st.targets[0], st.value
        pairs = [(target, value)]
        if (
            isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)
        ):
            # tuple-to-tuple: evaluate pairwise for precision
            pairs = list(zip(target.elts, value.elts, strict=True))
        vals = [self._eval(v, env) for _, v in pairs]
        for (t, v), val in zip(pairs, vals, strict=True):
            call = ctx_call(v, self.ctx_name, "shared")
            if isinstance(t, ast.Name) and call is not None:
                self._declare_shared(t.id, call, env)
            else:
                self._assign_target(t, val, v, env)
        return _Flow(env)

    def _declare_shared(self, var: str, call: ast.Call, env: Env) -> None:
        dims: list[Optional[Lin]] = []
        if len(call.args) >= 2:
            shape = call.args[1]
            elts = (
                shape.elts if isinstance(shape, (ast.Tuple, ast.List)) else [shape]
            )
            dims = [self._eval(e, env).rng.is_exact() for e in elts]
        self._purge(var, env)
        # the handle is one block-wide buffer, the same in every thread
        env[var] = AbsVal(Interval.top(), _uniform(), shared=var)
        self.shared_dims[var] = dims or [None]
        self.heap.setdefault(var, [Interval(Lin.of(0), Lin.of(0))])

    def _assign_target(
        self, target: ast.expr, val: AbsVal, value_node: ast.expr, env: Env
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind_name(target.id, val, value_node, env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                self._assign_target(t, _unpacked(val), value_node, env)
        elif isinstance(target, ast.Subscript):
            self._subscript(target, env, write=True, stored=val)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, val, value_node, env)

    def _bind_name(
        self, name: str, val: AbsVal, value_node: ast.expr, env: Env
    ) -> None:
        self._purge(name, env)
        pred = value_node if isinstance(value_node, (ast.Compare, ast.BoolOp)) else None
        env[name] = replace(val, pred=pred)

    def _exec_augassign(self, st: ast.AugAssign, env: Env) -> _Flow:
        synth = ast.BinOp(left=st.target, op=st.op, right=st.value)
        ast.copy_location(synth, st)
        ast.fix_missing_locations(synth)
        if isinstance(st.target, ast.Name):
            # target read does not touch arrays; evaluate combined value
            val = self._eval_binop(synth, env)
            self._bind_name(st.target.id, val, st.value, env)
        elif isinstance(st.target, ast.Subscript):
            self._subscript(st.target, env, write=False, stored=None)
            val = AbsVal.top()
            self._subscript(st.target, env, write=True, stored=val)
        return _Flow(env)

    def _exec_if(self, st: ast.If, env: Env) -> _Flow:
        self._record_test(st, self._eval(st.test, env))
        self._record_pin(st, env)
        env_t: Optional[Env] = dict(env)
        env_f: Optional[Env] = dict(env)
        assert env_t is not None and env_f is not None
        if not self._assume(st.test, True, env_t):
            env_t = None
        if not self._assume(st.test, False, env_f):
            env_f = None
        fl_t = self._exec_block(st.body, env_t) if env_t is not None else _Flow(None)
        fl_f = (
            self._exec_block(st.orelse, env_f) if env_f is not None else _Flow(None)
        )
        return _Flow(
            self._join_env(fl_t.env, fl_f.env),
            fl_t.continues + fl_f.continues,
            fl_t.breaks + fl_f.breaks,
        )

    # -- loops -------------------------------------------------------------

    MAX_HEAP_CANDS = 12

    def _heap_key(self) -> tuple[tuple[str, tuple[Interval, ...]], ...]:
        return tuple(sorted((k, tuple(v)) for k, v in self.heap.items()))

    def _heap_store(self, name: str, rng: Interval) -> None:
        cands = self.heap.setdefault(name, [Interval(Lin.of(0), Lin.of(0))])
        if rng in cands:
            return
        cands.append(rng)
        if len(cands) > self.MAX_HEAP_CANDS:
            # Collapse to one summary interval to bound fixpoint state.
            acc = cands[0]
            for c in cands[1:]:
                acc = acc.join(c, self.pv)
            self.heap[name] = [acc]

    def _heap_read(self, name: str) -> Interval:
        # Element summary of a shared buffer: the join of the initial
        # np.zeros contents and every stored interval.  Computed as an
        # n-way join over all candidates so a single incomparable pair
        # (e.g. [0,0] vs [0, nx*ny-2]) cannot poison a bound that a
        # later candidate (nx*ny-1) provably dominates.
        cands = self.heap.get(name)
        if not cands:
            return Interval(Lin.of(0), Lin.of(0))
        los = [c.lo for c in cands]
        his = [c.hi for c in cands]
        lo: Optional[Lin] = None
        if all(x is not None for x in los):
            for cand in los:
                assert cand is not None
                if all(o is not None and self.pv.le(cand, o) for o in los):
                    lo = cand
                    break
        hi: Optional[Lin] = None
        if all(x is not None for x in his):
            for cand in his:
                assert cand is not None
                if all(o is not None and self.pv.le(o, cand) for o in his):
                    hi = cand
                    break
        return Interval(lo, hi)

    def _exec_for(self, st: ast.For, env: Env) -> _Flow:
        it = st.iter
        if (
            isinstance(it, (ast.Tuple, ast.List))
            and len(it.elts) <= self.MAX_UNROLL
            and self._literal_elts(it) is not None
        ):
            return self._exec_unrolled(st, env)
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
        ):
            return self._exec_range(st, env)
        # Unknown iterable: its elements are unknown (uniform when it is).
        it_val = self._eval(it, env)
        self._record_test(st, it_val)
        self._record_trip(st, "iterable", None, "iterable length unknown")
        return self._loop_fixpoint(st, env, _unpacked(it_val))

    def _literal_elts(
        self, it: "ast.Tuple | ast.List"
    ) -> Optional[list[Union[int, float]]]:
        out: list[Union[int, float]] = []
        for e in it.elts:
            try:
                v = ast.literal_eval(e)
            except (ValueError, TypeError, SyntaxError):
                return None
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return None
            out.append(v)
        return out

    def _exec_unrolled(self, st: ast.For, env: Env) -> _Flow:
        assert isinstance(st.iter, (ast.Tuple, ast.List))
        values = self._literal_elts(st.iter)
        assert values is not None
        self._record_trip(st, "unrolled", Lin.of(len(values)))
        breaks: list[Env] = []
        cur: Optional[Env] = env
        for e, v in zip(st.iter.elts, values):
            if cur is None:
                break
            cur = dict(cur)
            if isinstance(st.target, ast.Name):
                value = (
                    AbsVal.const(v)
                    if isinstance(v, int)
                    else AbsVal(Interval.top(), _uniform(), pure=True)
                )
                self._bind_name(st.target.id, value, e, cur)
            fl = self._exec_block(st.body, cur)
            breaks.extend(fl.breaks)
            cur = self._join_envs([fl.env, *fl.continues])
        exit_env = self._join_envs([cur, *breaks])
        if st.orelse and exit_env is not None:
            fl = self._exec_block(st.orelse, exit_env)
            exit_env = fl.env
        return _Flow(exit_env)

    def _exec_range(self, st: ast.For, env: Env) -> _Flow:
        assert isinstance(st.iter, ast.Call)
        args = [self._eval(a, env) for a in st.iter.args]
        if len(args) == 1:
            start: AbsVal = AbsVal.const(0)
            stop, step = args[0], AbsVal.const(1)
        elif len(args) == 2:
            start, stop = args
            step = AbsVal.const(1)
        elif len(args) >= 3:
            start, stop, step = args[:3]
        else:
            start = stop = step = AbsVal.top()
        positive = step.rng.lo is not None and self.pv.ge0(step.rng.lo - 1)
        if positive:
            t_rng = Interval(
                start.rng.lo,
                stop.rng.hi - 1 if stop.rng.hi is not None else None,
            )
        else:
            t_rng = Interval.top()
        # Trip-count bound: for step >= 1, iterations <= stop.hi -
        # start.lo (sound for any larger step too; constant-step
        # division is left to the cost contracts).
        if positive and stop.rng.hi is not None and start.rng.lo is not None:
            self._record_trip(st, "range", stop.rng.hi - start.rng.lo)
        else:
            why = (
                "step not provably positive"
                if not positive
                else "range endpoint unbounded"
            )
            self._record_trip(st, "range", None, why)
        # the call evaluates to top: the trip count is uniform when
        # every argument is
        t_a = (
            _uniform()
            if start.uniform and stop.uniform and step.uniform
            else None
        )
        target = AbsVal(t_rng, t_a)
        self._record_test(st, target)
        return self._loop_fixpoint(st, env, target)

    def _loop_fixpoint(self, st: ast.For, env: Env, target_val: AbsVal) -> _Flow:
        head: Env = dict(env)
        rec = self.recording
        self.recording = False
        try:
            for i in range(self.MAX_PASSES):
                benv = dict(head)
                self._bind_loop_target(st.target, target_val, benv)
                heap_before = self._heap_key()
                fl = self._exec_block(st.body, benv)
                back = self._join_envs([fl.env, *fl.continues])
                new_head = self._join_env(head, back) if back is not None else head
                assert new_head is not None
                if i + 1 >= self.WIDEN_AT:
                    new_head = self._widen_env(head, new_head)
                if self._env_eq(new_head, head) and self._heap_key() == heap_before:
                    head = new_head
                    break
                head = new_head
        finally:
            self.recording = rec
        benv = dict(head)
        self._bind_loop_target(st.target, target_val, benv)
        fl = self._exec_block(st.body, benv)
        final_back = self._join_envs([fl.env, *fl.continues])
        exit_env = self._join_envs([head, final_back, *fl.breaks])
        if st.orelse and exit_env is not None:
            ofl = self._exec_block(st.orelse, exit_env)
            exit_env = ofl.env
        return _Flow(exit_env)

    def _bind_loop_target(
        self, target: ast.expr, val: AbsVal, env: Env
    ) -> None:
        if isinstance(target, ast.Name):
            self._purge(target.id, env)
            env[target.id] = val
        elif isinstance(target, (ast.Tuple, ast.List)):
            for t in target.elts:
                self._bind_loop_target(t, _unpacked(val), env)

    def _exec_while(self, st: ast.While, env: Env) -> _Flow:
        self._record_trip(st, "while", None, "while loops are not counted")
        head: Env = dict(env)
        breaks: list[Env] = []
        rec = self.recording
        self.recording = False
        try:
            for i in range(self.MAX_PASSES):
                benv: Optional[Env] = dict(head)
                assert benv is not None
                if not self._assume(st.test, True, benv):
                    benv = None
                heap_before = self._heap_key()
                fl = (
                    self._exec_block(st.body, benv)
                    if benv is not None
                    else _Flow(None)
                )
                back = self._join_envs([fl.env, *fl.continues])
                new_head = self._join_env(head, back) if back is not None else head
                assert new_head is not None
                if i + 1 >= self.WIDEN_AT:
                    new_head = self._widen_env(head, new_head)
                if self._env_eq(new_head, head) and self._heap_key() == heap_before:
                    head = new_head
                    break
                head = new_head
        finally:
            self.recording = rec
        self._at = self._node_of.get(id(st))
        self._record_test(st, self._eval(st.test, head))
        benv2: Optional[Env] = dict(head)
        assert benv2 is not None
        if not self._assume(st.test, True, benv2):
            benv2 = None
        fl = self._exec_block(st.body, benv2) if benv2 is not None else _Flow(None)
        breaks.extend(fl.breaks)
        exit_env: Optional[Env] = dict(head)
        assert exit_env is not None
        if not self._assume(st.test, False, exit_env):
            exit_env = None
        exit_env = self._join_envs([exit_env, *breaks])
        if st.orelse and exit_env is not None:
            ofl = self._exec_block(st.orelse, exit_env)
            exit_env = ofl.env
        return _Flow(exit_env)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


def interpret_kernel(
    fn: ast.FunctionDef,
    invariants: Optional[KernelInvariants] = None,
    cfg: Optional[CFG] = None,
) -> AbsintResult:
    """Abstractly interpret one ``device_code`` function definition.

    ``invariants`` carries the kernel's trusted value contracts (buffer
    lengths, scalar ranges, element ranges, row pairings); ``cfg`` — when
    provided — lets the interpreter key its recorded facts by CFG node:
    loop trip bounds, divergent tests, single-thread pins and indexed
    accesses (see :class:`AbsintResult`).
    """
    return _Interp(fn, invariants, cfg).run()
