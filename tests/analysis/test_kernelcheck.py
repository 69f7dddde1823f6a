"""Tests for kernelcheck (static device-kernel verification).

Five layers:

* the seeded-violation corpus (``tests/analysis/badkernels``) proves
  each pass *fires* — and fires alone, so the corpus doubles as a
  precision check;
* the shipped-kernel gate proves the registered kernels are clean (the
  invariant CI enforces with ``repro analyze kernels --fail-on error``);
* the KC004 agreement test proves the static occupancy table is the
  *same number* the simulator computes at launch time;
* golden snapshots pin the full report shape per shipped kernel;
* a source table pins which thread-dependence verdicts KC001/KC003 take
  from the abstract interpreter's facts.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.kernelcheck import (
    DEFAULT_BLOCK_DIMS,
    analyze_device_source,
    analyze_kernel,
    analyze_shipped,
    static_occupancy_table,
    worst_severity,
)
from repro.gpusim import Device, launch
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import Kernel
from repro.index import GridIndex
from repro.kernels import GPUCalcShared, shipped_kernels
from tests.analysis.badkernels import BAD_KERNELS

GOLDEN_DIR = Path(__file__).parent / "golden"

#: a second (smaller) card so the occupancy cross-check is not
#: vacuously tied to the K20c defaults
SMALL_SPEC = DeviceSpec(
    name="SimSmall-16K",
    sm_count=4,
    shared_mem_per_block_bytes=16 * 1024,
)


# ======================================================================
# seeded-violation corpus
# ======================================================================
class TestBadKernelCorpus:
    @pytest.mark.parametrize(
        "kernel,expected",
        [(k, r) for k, r in BAD_KERNELS],
        ids=[k.name for k, _ in BAD_KERNELS],
    )
    def test_expected_rule_fires(self, kernel, expected):
        report = analyze_kernel(kernel)
        rules = {f.rule for f in report.findings}
        assert expected in rules

    @pytest.mark.parametrize(
        "kernel,expected",
        [(k, r) for k, r in BAD_KERNELS],
        ids=[k.name for k, _ in BAD_KERNELS],
    )
    def test_no_other_rule_fires(self, kernel, expected):
        """Each seed is a *minimal* violation — cross-talk between the
        passes would mean a precision bug."""
        report = analyze_kernel(kernel)
        assert {f.rule for f in report.findings} == {expected}

    def test_corpus_covers_every_rule(self):
        assert {r for _, r in BAD_KERNELS} == {
            "KC001",
            "KC002",
            "KC003",
            "KC004",
            "KC005",
            "KC006",
            "KC007",
        }


# ======================================================================
# shipped kernels are clean
# ======================================================================
class TestShippedKernelsClean:
    def test_zero_findings(self):
        reports = analyze_shipped()
        bad = [f.render() for r in reports for f in r.findings]
        assert bad == []
        assert worst_severity(reports) is None

    def test_all_registered_kernels_analyzed(self):
        names = {r.kernel for r in analyze_shipped()}
        assert names == {k.name for k in shipped_kernels()}

    def test_vector_only_kernel_still_gets_occupancy(self):
        class VectorOnly(Kernel):
            name = "VectorOnly"

            def shared_mem_per_block(self, block_dim: int) -> int:
                return 48 * block_dim + 80

        report = analyze_kernel(VectorOnly())
        assert not report.has_device_code
        assert report.occupancy  # KC004 runs even without device code

    def test_every_access_proved(self):
        """KC005's access table per shipped kernel: every global/shared
        index resolves to ``proved`` against the kernel's contract."""
        for report in analyze_shipped():
            if not report.has_device_code:
                continue
            assert report.accesses, report.kernel
            statuses = {a["status"] for a in report.accesses}
            assert statuses == {"proved"}, (report.kernel, statuses)

    def test_register_estimate_sharper_than_proxy(self):
        """KC006's live-range estimate must actually differ from the old
        locals+params proxy somewhere — otherwise the liveness machinery
        is dead weight."""
        reports = [r for r in analyze_shipped() if r.has_device_code]
        assert all(r.register_estimate is not None for r in reports)
        assert any(
            r.register_estimate != r.register_proxy for r in reports
        )
        # declared budgets were re-derived from the estimate, so the
        # KC006 pass itself stays silent on shipped kernels
        for report in reports:
            assert report.register_estimate <= report.registers_per_thread


# ======================================================================
# KC004: static occupancy == simulator occupancy
# ======================================================================
class TestOccupancyAgreement:
    @pytest.mark.parametrize("spec", [DeviceSpec(), SMALL_SPEC], ids=lambda s: s.name)
    @pytest.mark.parametrize("block_dim", [64, 128, 256])
    def test_static_matches_launch(self, spec, block_dim):
        """The static table must reproduce ``LaunchResult.occupancy``
        bit-for-bit — same limits, same inputs, same arithmetic."""
        entry = static_occupancy_table(
            GPUCalcShared(), block_dims=(block_dim,), spec=spec
        )[block_dim]
        device = Device(spec=spec)
        rng = np.random.default_rng(7)
        grid = GridIndex.build(rng.random((120, 2)) * 3, 0.4)
        result = device.allocate_result_buffer((64 * 1024, 2), np.int64, name="R")
        cfg = GPUCalcShared.launch_config(grid, block_dim=block_dim)
        res = launch(GPUCalcShared(), cfg, device, grid=grid, result=result)
        assert entry.feasible
        assert res.occupancy is not None
        assert entry.fraction == res.occupancy.fraction
        assert entry.active_blocks_per_sm == res.occupancy.active_blocks_per_sm
        assert entry.limiter == res.occupancy.limiter

    def test_shared_footprint_matches_declaration(self):
        """KC004's AST extraction recovers exactly the declared
        48*block_dim + 80 bytes of GPUCalcShared."""
        report = analyze_kernel(GPUCalcShared())
        for bd in DEFAULT_BLOCK_DIMS:
            assert report.static_shared_bytes[bd] == 48 * bd + 80
            assert report.static_shared_bytes[bd] == report.declared_shared_bytes[bd]

    def test_list_shaped_shared_is_sized(self):
        """A list shape is as static as a tuple: the undeclared
        ``[block_dim, 4]`` float64 tile is sized and KC004 fires."""
        report = analyze_kernel(_ListShapedSharedKernel())
        for bd in DEFAULT_BLOCK_DIMS:
            assert report.static_shared_bytes[bd] == 32 * bd
        assert {f.rule for f in report.findings} == {"KC004"}


class _ListShapedSharedKernel(Kernel):
    name = "ListShapedShared"

    def device_code(self, ctx, *, out):
        tid = ctx.thread_idx
        tile = ctx.shared("tile", [ctx.block_dim, 4], np.float64)
        tile[tid, 0] = 1.0
        yield ctx.syncthreads()
        out[tid] = tile[tid, 0]


# ======================================================================
# golden report snapshots
# ======================================================================
class TestGoldenReports:
    @pytest.mark.parametrize(
        "kernel", shipped_kernels(), ids=lambda k: k.name
    )
    def test_report_matches_golden(self, kernel):
        """Full report dict per shipped kernel, pinned on disk.  On an
        intentional analyzer/kernel change, regenerate with
        ``python -m tests.analysis.regolden``."""
        got = analyze_kernel(kernel).to_dict()
        path = GOLDEN_DIR / f"{kernel.name}.json"
        want = json.loads(path.read_text(encoding="utf-8"))
        assert got == want


# ======================================================================
# no false positives on straight-line kernels (property)
# ======================================================================
_STMT_POOL = (
    "        t{i} = tid + {c}\n",
    "        buf[tid] = {c}\n",
    "        out[tid] = buf[tid]\n",
    "        yield ctx.syncthreads()\n",
    "        acc = acc + {c}\n",
)


def _straight_line_source(choices: list[tuple[int, int]]) -> str:
    body = "".join(
        _STMT_POOL[s].format(i=i, c=c) for i, (s, c) in enumerate(choices)
    )
    return (
        "def device_code(self, ctx, *, out):\n"
        "        tid = ctx.thread_idx\n"
        "        acc = 0\n"
        '        buf = ctx.shared("buf", (ctx.block_dim,), np.int64)\n'
        "        buf[tid] = tid\n" + body + "        out[tid] = acc\n"
    )


class TestStraightLineProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, len(_STMT_POOL) - 1), st.integers(0, 7)
            ),
            min_size=0,
            max_size=12,
        )
    )
    def test_no_divergence_or_race_findings(self, choices):
        """Straight-line code (no branches) cannot diverge at a barrier,
        and per-thread shared slots (``buf[tid]``) cannot race — the
        analyzer must agree on every generated kernel."""
        findings = analyze_device_source(
            _straight_line_source(choices), "straightline"
        )
        rules = {f.rule for f in findings}
        assert "KC001" not in rules
        assert "KC002" not in rules


# ======================================================================
# KC001/KC003 verdicts from absint's facts (source table)
# ======================================================================
#: (case, device-code body after ``tid = ctx.thread_idx`` on line 2,
#: expected (rule, line) findings)
_FACT_CASES = [
    # module globals and attributes of uniform bases are uniform
    ("module-global-test", "if n < math.inf:\n    yield ctx.syncthreads()\n", []),
    ("param-trip-count", "for _ in range(n):\n    yield ctx.syncthreads()\n", []),
    ("tid-trip-count", "for _ in range(tid):\n    yield ctx.syncthreads()\n",
     [("KC001", 4)]),
    # calls and tuples are uniform when every part is
    ("uniform-call-trip-count",
     "for _ in range(math.ceil(n / 4)):\n    yield ctx.syncthreads()\n", []),
    ("uniform-tuple-iterable",
     "for _ in (n, n + 1):\n    yield ctx.syncthreads()\n", []),
    # subscripts of uniform shapes, tables and tuples are uniform
    ("param-shape-trip-count",
     "for _ in range(out.shape[0]):\n    yield ctx.syncthreads()\n", []),
    ("shared-shape-trip-count",
     'buf = ctx.shared("buf", (ctx.block_dim,), np.int64)\n'
     "for _ in range(buf.shape[0]):\n    yield ctx.syncthreads()\n", []),
    ("module-table-test",
     "if OFFSETS[n] > 0:\n    yield ctx.syncthreads()\n", []),
    ("local-tuple-trip-count",
     "dims = (n, 4)\nfor _ in range(dims[0]):\n    yield ctx.syncthreads()\n", []),
    # unpacked names and loop targets are uniform when their source is
    ("uniform-unpacked-test",
     "lo, hi = divmod(n, 4)\nif lo > 0:\n    yield ctx.syncthreads()\n", []),
    ("uniform-iterable-target",
     "for k in OFFSETS:\n    if k > 0:\n        yield ctx.syncthreads()\n", []),
    ("bound-on-one-path",
     "for i in range(n):\n    last = i\nif last > 0:\n    yield ctx.syncthreads()\n",
     []),
    ("uniform-invert-test", "if ~n:\n    yield ctx.syncthreads()\n", []),
    ("uniform-starred-trip-count",
     "for _ in range(max(*OFFSETS)):\n    yield ctx.syncthreads()\n", []),
    ("tid-len-trip-count",
     "row = out[tid]\nfor _ in range(len(row)):\n    yield ctx.syncthreads()\n",
     [("KC001", 5)]),
    # a subscript of a thread-dependent value is thread-dependent
    ("tid-row-subscript-test",
     "row = out[tid]\nif row[0] > 0:\n    yield ctx.syncthreads()\n",
     [("KC001", 5)]),
    # try handlers, ``else`` and ``finally`` carry facts
    ("tid-branch-in-finally",
     "try:\n    pass\nfinally:\n    if tid == 0:\n        yield ctx.syncthreads()\n",
     [("KC001", 7)]),
    ("tid-branch-in-try-else",
     "try:\n    x = n\nexcept ValueError:\n    x = 0\nelse:\n"
     "    if tid == 0:\n        yield ctx.syncthreads()\n",
     [("KC001", 9)]),
    # a tuple index is thread-dependent when any part is
    ("shared-2d-tid-column",
     't = ctx.shared("t", (4, ctx.block_dim), np.int64)\n'
     "x = t[0, tid]\nif x > 0:\n    yield ctx.syncthreads()\n", [("KC001", 6)]),
    # so is a conditional expression with a thread-dependent test
    ("thread-dependent-ifexp",
     "k = 1 if tid < 4 else 2\nfor _ in range(k):\n    yield ctx.syncthreads()\n",
     [("KC001", 5)]),
    # flow-sensitive: the test reads x before it becomes thread-dependent
    ("rebound-after-branch",
     "x = 0\nif x == 0:\n    yield ctx.syncthreads()\nx = tid\n", []),
    # a shared slice may touch any thread's slot
    ("shared-slice",
     'buf = ctx.shared("buf", (ctx.block_dim,), np.int64)\n'
     "buf[tid] = tid\nout[tid] = buf[0:4].sum()\n", [("KC002", 5)]),
    # shared buffers declared in a tuple assignment
    ("shared-tuple-declaration",
     'a, b = ctx.shared("a", (4,), np.int64), ctx.shared("b", (4,), np.int64)\n'
     "b[0] = tid\n", [("KC002", 4)]),
    # only the ``then`` arm of ``tid == 0`` runs on one thread
    ("shared-write-in-else-of-pin",
     'buf = ctx.shared("buf", (ctx.block_dim,), np.int64)\n'
     "if tid == 0:\n    buf[0] = 1\nelse:\n    buf[0] = 2\n", [("KC002", 7)]),
    # one shared name bound twice is one block array
    ("shared-name-bound-twice",
     'a = ctx.shared("tile", (ctx.block_dim,), np.int64)\n'
     'b = ctx.shared("tile", (ctx.block_dim,), np.int64)\n'
     "a[tid] = 1\nout[tid] = b[0]\n", [("KC002", 6)]),
    # accesses through an alias and through an atomic are indexed too
    ("aliased-buffer", "o = out\no[tid * 4] = 1\n", [("KC003", 4)]),
    ("atomic-index", "ctx.atomic_add(out, tid * 4, 1)\n", [("KC003", 3)]),
    # each site is judged with the index it has there
    ("rebound-index",
     "j = tid\nout[j] = 1\nj = tid * tid\nout[j] = 2\n", [("KC003", 6)]),
]


class TestFactsTable:
    @pytest.mark.parametrize(
        "body,expected",
        [(body, expected) for _, body, expected in _FACT_CASES],
        ids=[case for case, _, _ in _FACT_CASES],
    )
    def test_findings(self, body, expected):
        source = (
            "def device_code(self, ctx, *, out, n):\n"
            "    tid = ctx.thread_idx\n"
            + "".join(f"    {line}\n" for line in body.splitlines())
        )
        findings = analyze_device_source(source, "table")
        assert [(f.rule, f.line) for f in findings] == expected
