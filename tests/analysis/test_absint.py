"""Tests for the abstract interpreter behind kernelcheck's passes.

Four layers:

* unit tests over the symbolic domain (``Lin`` polynomials, the
  range-substitution ``Prover``, ``Interval`` arithmetic/lattice ops);
* interpreter-level tests through :func:`analyze_device_source` with
  explicit contracts (guard refinement, contract errors);
* a hypothesis property: straight-line kernels whose every access is
  in-bounds by construction never produce a KC005 finding — the domain
  must not manufacture false positives on branch-free code;
* runtime-vs-static cross-validation on the seeded KC005 corpus: every
  out-of-bounds access the interpreter backend traps at launch time is
  also rejected statically, and the negative-gather seed shows the
  static checker is *strictly* stronger (NumPy wraps index ``-1``
  silently, so only KC005 catches it).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.absint import (
    Interval,
    KernelInvariants,
    Lin,
    Prover,
)
from repro.analysis.kernelcheck import analyze_device_source, analyze_kernel
from repro.gpusim import Device, launch
from repro.gpusim.launch import LaunchConfig
from tests.analysis.badkernels import (
    OobNegativeGatherKernel,
    OobOffByOneKernel,
    OobSharedWriteKernel,
    OobUnguardedKernel,
)


def kc005(findings):
    return [f for f in findings if f.rule == "KC005"]


# ======================================================================
# Lin: symbolic linear/polynomial expressions
# ======================================================================
class TestLin:
    def test_arithmetic_collects_terms(self):
        n = Lin.sym("n")
        e = n + n - Lin.of(3) + 5
        assert e.terms == {("n",): 2}
        assert e.const == 2

    def test_cancellation_drops_terms(self):
        n = Lin.sym("n")
        assert (n - n) == Lin.of(0)
        assert (n - n).is_const()

    def test_mul_produces_monomials(self):
        n, m = Lin.sym("n"), Lin.sym("m")
        prod = (n + 1).mul(m + 2)
        assert prod.terms == {("m", "n"): 1, ("n",): 2, ("m",): 1}
        assert prod.const == 2

    def test_split_linear(self):
        n, m = Lin.sym("n"), Lin.sym("m")
        e = n.mul(3) + m + 7
        coeff, rest = e.split("n")
        assert coeff == Lin.of(3)
        assert rest == m + 7

    def test_split_rejects_squares(self):
        n = Lin.sym("n")
        assert n.mul(n).split("n") is None

    def test_render_is_deterministic(self):
        n, m = Lin.sym("n"), Lin.sym("m")
        # terms sort by monomial: m before n
        assert (n - m).render() == "-m + n"
        assert (n.mul(2) + 1).render() == "2*n + 1"
        assert Lin.of(-4).render() == "-4"


# ======================================================================
# Prover: lin >= 0 under symbol ranges
# ======================================================================
class TestProver:
    def setup_method(self):
        n = Lin.sym("n")
        self.pv = Prover(
            {
                "n": Interval(Lin.of(1), None),
                "tid": Interval(Lin.of(0), Lin.sym("bdim") - 1),
                "bdim": Interval(Lin.of(1), None),
                "k": Interval(Lin.of(0), n - 1),
            }
        )

    def test_constant(self):
        assert self.pv.ge0(Lin.of(0))
        assert not self.pv.ge0(Lin.of(-1))

    def test_lower_bound_substitution(self):
        # n >= 1  =>  n - 1 >= 0, but n - 2 is not provable
        assert self.pv.ge0(Lin.sym("n") - 1)
        assert not self.pv.ge0(Lin.sym("n") - 2)

    def test_chained_substitution(self):
        # k <= n - 1  =>  n - 1 - k >= 0 needs the upper bound of k
        assert self.pv.ge0(Lin.sym("n") - 1 - Lin.sym("k"))

    def test_tid_bounded_by_bdim(self):
        assert self.pv.le(Lin.sym("tid"), Lin.sym("bdim") - 1)
        assert not self.pv.le(Lin.sym("bdim"), Lin.sym("tid"))

    def test_unknown_symbol_is_unprovable(self):
        assert not self.pv.ge0(Lin.sym("mystery"))

    def test_product_of_nonnegatives(self):
        assert self.pv.ge0(Lin.sym("n").mul(Lin.sym("bdim")) - 1)


# ======================================================================
# Interval: arithmetic and lattice operations
# ======================================================================
class TestInterval:
    def setup_method(self):
        self.pv = Prover(
            {
                "n": Interval(Lin.of(1), None),
                "bdim": Interval(Lin.of(1), None),
            }
        )

    def test_add_sub_shift(self):
        a = Interval.const(2)
        b = Interval(Lin.of(0), Lin.sym("n"))
        s = a.add(b)
        assert s.lo == Lin.of(2)
        assert s.hi == Lin.sym("n") + 2
        assert b.shift(-1).hi == Lin.sym("n") - 1
        assert b.sub(a).lo == Lin.of(-2)

    def test_mul_by_nonnegative_scalar(self):
        b = Interval(Lin.of(0), Lin.sym("n"))
        out = b.mul(Interval.const(3), self.pv)
        assert out.lo == Lin.of(0)
        assert out.hi == Lin.sym("n").mul(3)

    def test_mul_by_negative_scalar_swaps(self):
        b = Interval(Lin.of(0), Lin.sym("n"))
        out = b.mul(Interval.const(-1), self.pv)
        assert out.lo == -Lin.sym("n")
        assert out.hi == Lin.of(0)

    def test_floordiv_and_mod(self):
        x = Interval(Lin.of(0), Lin.sym("n"))
        d = Interval(Lin.of(2), Lin.of(2))
        assert x.floordiv(d, self.pv).lo == Lin.of(0)
        assert x.floordiv(d, self.pv).hi == Lin.sym("n")
        m = Interval.top().mod(d, self.pv)
        assert m.lo == Lin.of(0)
        assert m.hi == Lin.of(1)

    def test_join_keeps_provable_hull(self):
        a = Interval(Lin.of(0), Lin.of(3))
        b = Interval(Lin.of(1), Lin.sym("n"))
        j = a.join(b, self.pv)
        assert j.lo == Lin.of(0)
        # 3 vs n is incomparable (n >= 1 only): hi must widen to +inf
        assert j.hi is None

    def test_min_prefers_simpler_incomparable_hi(self):
        """Both uppers of ``min`` are sound; on incomparable candidates
        the fewer-terms Lin wins (it is likelier to match a declared
        length downstream)."""
        simple = Interval(Lin.of(0), Lin.sym("bdim"))
        complex_ = Interval(Lin.of(0), Lin.sym("n") - Lin.sym("c") + 1)
        out = simple.min_(complex_, self.pv)
        assert out.hi == Lin.sym("bdim")
        assert complex_.min_(simple, self.pv).hi == Lin.sym("bdim")

    def test_meet_refines(self):
        a = Interval(Lin.of(0), None)
        guard = Interval(None, Lin.sym("n") - 1)
        out = a.meet(guard, self.pv)
        assert out.lo == Lin.of(0)
        assert out.hi == Lin.sym("n") - 1

    def test_widen_drops_unstable_bounds(self):
        a = Interval(Lin.of(0), Lin.of(3))
        grown = Interval(Lin.of(0), Lin.of(4))
        w = a.widen(grown)
        assert w.lo == Lin.of(0)
        assert w.hi is None


# ======================================================================
# interpreter-level: guards, contracts, contract errors
# ======================================================================
class TestInterpretSource:
    GUARDED = (
        "def device_code(self, ctx, *, out, n):\n"
        "    gid = ctx.global_id\n"
        "    if gid >= n:\n"
        "        return\n"
        "    out[gid] = gid\n"
    )

    def test_guard_proves_access(self):
        inv = KernelInvariants(lengths={"out": "n"}, scalars={"n": (1, None)})
        assert kc005(analyze_device_source(self.GUARDED, "g", invariants=inv)) == []

    def test_missing_guard_fires(self):
        src = (
            "def device_code(self, ctx, *, out, n):\n"
            "    out[ctx.global_id] = 1\n"
        )
        inv = KernelInvariants(lengths={"out": "n"}, scalars={"n": (1, None)})
        findings = kc005(analyze_device_source(src, "g", invariants=inv))
        assert len(findings) == 1
        assert "out" in findings[0].message

    def test_no_contract_means_assumed_not_error(self):
        """Without a contract the global access is *assumed*, not a
        finding — KC005 only rejects what a contract makes checkable."""
        assert kc005(analyze_device_source(self.GUARDED, "g")) == []

    def test_shared_checked_without_contract(self):
        """Shared shapes come from the declaration, so OOB shared writes
        need no contract at all."""
        src = (
            "def device_code(self, ctx, *, out):\n"
            "    tid = ctx.thread_idx\n"
            '    buf = ctx.shared("buf", (ctx.block_dim,), np.int64)\n'
            "    buf[tid + 1] = tid\n"
        )
        findings = kc005(analyze_device_source(src, "g"))
        assert len(findings) == 1
        assert "buf" in findings[0].message

    def test_bad_contract_reports_contract_error(self):
        inv = KernelInvariants(lengths={"out": "n +"}, scalars={})
        findings = kc005(analyze_device_source(self.GUARDED, "g", invariants=inv))
        assert len(findings) == 1
        assert "contract" in findings[0].message


# ======================================================================
# property: no false positives on straight-line in-bounds kernels
# ======================================================================
_STMT_POOL = (
    "    t{i} = tid + {c}\n",
    "    t{i} = tid * {c}\n",
    "    out[tid] = {c}\n",
    "    buf[tid] = out[tid]\n",
    "    out[tid] = buf[tid] + acc\n",
    "    acc = acc + {c}\n",
    "    yield ctx.syncthreads()\n",
)

_INV = KernelInvariants(lengths={"out": "bdim"}, scalars={})


def _straight_line_source(choices):
    body = "".join(
        _STMT_POOL[s].format(i=i, c=c) for i, (s, c) in enumerate(choices)
    )
    return (
        "def device_code(self, ctx, *, out):\n"
        "    tid = ctx.thread_idx\n"
        "    acc = 0\n"
        '    buf = ctx.shared("buf", (ctx.block_dim,), np.int64)\n'
        "    buf[tid] = tid\n" + body + "    out[tid] = acc\n"
    )


class TestNoFalsePositiveProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(_STMT_POOL) - 1), st.integers(0, 7)
            ),
            min_size=0,
            max_size=12,
        )
    )
    def test_in_bounds_straight_line_never_flagged(self, choices):
        """Every access in the pool indexes with ``tid`` into a
        block-sized buffer — in-bounds by construction, so any KC005
        finding would be a false positive of the interval domain."""
        findings = analyze_device_source(
            _straight_line_source(choices), "straightline", invariants=_INV
        )
        assert kc005(findings) == []


# ======================================================================
# runtime-vs-static cross-validation on the seeded OOB corpus
# ======================================================================
class TestRuntimeStaticCrossValidation:
    """For interpreted kernels the runtime's memcheck surface is NumPy
    indexing inside :func:`repro.gpusim.interpreter.run_interpreted`:
    a positive out-of-range index traps as ``IndexError`` at launch.
    Every such trap must also be rejected statically by KC005."""

    def _static_fires(self, kernel):
        report = analyze_kernel(kernel)
        return any(f.rule == "KC005" for f in report.findings)

    @pytest.mark.parametrize(
        "kernel,kwargs",
        [
            (
                OobUnguardedKernel(),
                lambda: {"out": np.zeros(5, np.int64), "n": 5},
            ),
            (
                OobOffByOneKernel(),
                lambda: {"out": np.zeros(5, np.int64), "n": 5},
            ),
            (
                OobSharedWriteKernel(),
                lambda: {"out": np.zeros(8, np.int64)},
            ),
        ],
        ids=lambda v: v.name if hasattr(v, "name") else "",
    )
    def test_runtime_trap_implies_static_finding(self, kernel, kwargs):
        device = Device()
        cfg = LaunchConfig(grid_dim=2, block_dim=4)
        with pytest.raises(IndexError):
            launch(kernel, cfg, device, backend="interpreter", **kwargs())
        assert self._static_fires(kernel)

    def test_static_strictly_stronger_on_negative_gather(self):
        """NumPy wraps ``out[-1]`` to the last element, so the runtime
        executes the negative-gather seed without complaint — only the
        static checker (driven by the ``elements`` contract admitting
        the ``-1`` sentinel) rejects it."""
        kernel = OobNegativeGatherKernel()
        idx = np.array([3, -1, 0, 2], np.int64)
        out = np.zeros(4, np.int64)
        device = Device()
        cfg = LaunchConfig(grid_dim=1, block_dim=4)
        launch(kernel, cfg, device, backend="interpreter", idx=idx, out=out)
        assert out[3] == 1  # the wrapped write landed on the last slot
        assert self._static_fires(kernel)
