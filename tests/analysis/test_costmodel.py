"""Cross-validation of the KC007 symbolic static cost model.

Four layers:

* **soundness** — for every shipped kernel, on both execution backends,
  the resolved per-thread *bound* times the thread count dominates every
  measured ``KernelCounters`` field, and the bound-mode modeled time
  dominates the simulator's measured modeled time;
* **calibration** — the estimate-mode prediction (contract trip
  estimates instead of worst cases) lands inside a CI-gated tolerance
  band of the measured modeled time, across block dims × device specs ×
  backends;
* **defect detection** — the KC007 seeds (unbounded loop, lying
  contract) produce exactly the advertised issues, and an unbounded
  model refuses to quote a bound;
* **units + serialization** — the ``eval_lin`` / ``eval_expr``
  evaluators, and a hypothesis round-trip proving every cost report is
  JSON-stable.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.costmodel import (
    COST_COUNTERS,
    UnboundedCostError,
    derive_cost,
    eval_expr,
    eval_lin,
)
from repro.analysis.absint import Lin
from repro.gpusim import Device, launch
from repro.gpusim.device import DeviceSpec
from repro.index import GridIndex
from repro.kernels import (
    BorderAttachKernel,
    ClusterUnionFindKernel,
    CoreFlagKernel,
    GPUCalcGlobal,
    GPUCalcShared,
    NeighborCountKernel,
    shipped_kernels,
)
from repro.kernels.count_kernel import sample_point_ids
from repro.core.batching import build_neighbor_table

#: calibration band the estimate-mode prediction must land in (measured
#: ratios sit at 1.01–1.30 across the matrix below; the band leaves
#: headroom without letting the model drift silently)
EST_RATIO_LO = 2.0 / 3.0
EST_RATIO_HI = 1.5

SMALL_SPEC = DeviceSpec(
    name="SimSmall-16K", sm_count=4, shared_mem_per_block_bytes=16 * 1024
)

BACKENDS = ("vector", "interpreter")


@pytest.fixture(scope="module")
def grid():
    rng = np.random.default_rng(7)
    return GridIndex.build(rng.random((120, 2)) * 3.0, 0.4)


@pytest.fixture(scope="module")
def base_binding(grid):
    ga = grid.device_arrays()
    nonempty = int(
        (np.asarray(ga["G_max"].data) >= np.asarray(ga["G_min"].data)).sum()
    )
    n = len(grid)
    return {
        "n": n,
        "nx": grid.nx,
        "ny": grid.ny,
        "r_cell": n / max(1, nonempty),
        "n_batches": 1,
        "batch": 0,
    }


# ----------------------------------------------------------------------
# launch plumbing: one measured run per (kernel, backend, block_dim, spec)
# ----------------------------------------------------------------------
def _run_count(grid, backend, block_dim, spec):
    dev = Device(spec=spec)
    n = len(grid)
    ids = sample_point_ids(n, 0.25)
    k = NeighborCountKernel()
    cfg = NeighborCountKernel.launch_config(len(ids), block_dim=block_dim)
    if backend == "vector":
        res = launch(k, cfg, dev, grid=grid, sample_ids=ids)
    else:
        ga = grid.device_arrays()
        counter = dev.allocate(1, np.int64, fill=0)
        res = launch(
            k, cfg, dev, backend="interpreter",
            D=ga["D"], A=ga["A"], G_min=ga["G_min"], G_max=ga["G_max"],
            eps=grid.eps, xmin=grid.xmin, ymin=grid.ymin,
            nx=grid.nx, ny=grid.ny, sample_ids=ids, counter=counter,
        )
    return k, res, {"n_sample": len(ids)}


def _run_pair(grid, kernel_cls, backend, block_dim, spec):
    dev = Device(spec=spec)
    n = len(grid)
    result = dev.allocate_result_buffer((max(64, 512 * n), 2), np.int64, name="R")
    k = kernel_cls()
    if kernel_cls is GPUCalcGlobal:
        cfg = GPUCalcGlobal.launch_config(n, n_batches=1, block_dim=block_dim)
    else:
        cfg = GPUCalcShared.launch_config(grid, block_dim=block_dim)
    if backend == "vector":
        res = launch(k, cfg, dev, grid=grid, result=result, batch=0, n_batches=1)
    else:
        ga = grid.device_arrays()
        kwargs = dict(
            D=ga["D"], A=ga["A"], G_min=ga["G_min"], G_max=ga["G_max"],
            eps=grid.eps, nx=grid.nx, ny=grid.ny,
            result=result, batch=0, n_batches=1,
        )
        if kernel_cls is GPUCalcGlobal:
            kwargs.update(xmin=grid.xmin, ymin=grid.ymin)
        else:
            kwargs.update(S=GPUCalcShared.schedule(grid))
        res = launch(k, cfg, dev, backend="interpreter", **kwargs)
    return k, res, {}


def _run_cluster(grid, backend, block_dim, spec):
    """The three label kernels over a real neighbor table; yields
    (kernel, result, extra_binding) triples."""
    dev = Device(spec=spec)
    table, _ = build_neighbor_table(grid, dev)
    nn = table.n_points
    m_flat = len(table.values)
    d_tmin = dev.to_device(table.t_min)
    d_tmax = dev.to_device(table.t_max)
    d_b = dev.to_device(table.values)
    d_core = dev.allocate(nn, np.int8, fill=0)
    d_labels = dev.allocate(nn, np.int64, fill=-1)
    cfg = CoreFlagKernel.launch_config(nn, block_dim=block_dim)
    extra = {"n": nn, "m": m_flat, "r_row": m_flat / max(1, nn), "minpts": 3}
    runs = []
    res = launch(
        CoreFlagKernel(), cfg, dev, backend=backend,
        t_min=d_tmin, t_max=d_tmax, minpts=3, core=d_core, labels=d_labels,
    )
    runs.append((CoreFlagKernel(), res, extra))
    d_changed = dev.allocate(1, np.int64, fill=0)
    res = launch(
        ClusterUnionFindKernel(), cfg, dev, backend=backend,
        t_min=d_tmin, t_max=d_tmax, B=d_b, core=d_core,
        labels=d_labels, changed=d_changed,
    )
    runs.append((ClusterUnionFindKernel(), res, extra))
    d_attach = dev.allocate(nn, np.int64, fill=-1)
    res = launch(
        BorderAttachKernel(), cfg, dev, backend=backend,
        t_min=d_tmin, t_max=d_tmax, B=d_b, core=d_core,
        labels=d_labels, attach=d_attach,
    )
    runs.append((BorderAttachKernel(), res, extra))
    return runs


def _all_runs(grid, backend, block_dim, spec):
    runs = [
        _run_count(grid, backend, block_dim, spec),
        _run_pair(grid, GPUCalcGlobal, backend, block_dim, spec),
        _run_pair(grid, GPUCalcShared, backend, block_dim, spec),
    ]
    runs.extend(_run_cluster(grid, backend, block_dim, spec))
    return runs


def _binding(base, res, extra):
    b = dict(base)
    b.update(extra)
    b["bdim"] = res.config.block_dim
    b["gdim"] = res.config.grid_dim
    return b


# ======================================================================
# soundness: symbolic bound dominates every measured counter
# ======================================================================
class TestBoundSoundness:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bound_dominates_measured_counters(self, grid, base_binding, backend):
        for kernel, res, extra in _all_runs(grid, backend, 64, DeviceSpec()):
            model = derive_cost(kernel)
            assert model is not None and model.bounded, kernel.name
            binding = _binding(base_binding, res, extra)
            per = model.counters_per_thread(binding, mode="bound")
            threads = res.config.total_threads
            for counter in COST_COUNTERS:
                measured = getattr(res.counters, counter)
                assert per[counter] * threads >= measured, (
                    kernel.name, counter, measured, per[counter] * threads,
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bound_ms_dominates_measured_ms(self, grid, base_binding, backend):
        for kernel, res, extra in _all_runs(grid, backend, 64, DeviceSpec()):
            model = derive_cost(kernel)
            binding = _binding(base_binding, res, extra)
            bound_ms = model.modeled_ms(binding, mode="bound")
            assert bound_ms >= res.modeled_ms, (kernel.name, bound_ms, res.modeled_ms)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_kernel_counters_shape(self, grid, base_binding, backend):
        """kernel_counters() reproduces the launch geometry the
        simulator saw (threads, blocks)."""
        for kernel, res, extra in _all_runs(grid, backend, 64, DeviceSpec()):
            model = derive_cost(kernel)
            binding = _binding(base_binding, res, extra)
            kc = model.kernel_counters(binding, mode="bound")
            assert kc.threads == res.config.total_threads
            assert kc.blocks == res.config.grid_dim


# ======================================================================
# calibration: estimate-mode prediction within the tolerance band
# ======================================================================
class TestPointPrediction:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("spec", [DeviceSpec(), SMALL_SPEC], ids=lambda s: s.name)
    @pytest.mark.parametrize("block_dim", [64, 128, 256])
    def test_estimate_within_band(self, grid, base_binding, backend, spec, block_dim):
        runs = [
            _run_count(grid, backend, block_dim, spec),
            _run_pair(grid, GPUCalcGlobal, backend, block_dim, spec),
            _run_pair(grid, GPUCalcShared, backend, block_dim, spec),
        ]
        for kernel, res, extra in runs:
            model = derive_cost(kernel)
            binding = _binding(base_binding, res, extra)
            est = model.modeled_ms(binding, spec=spec, mode="estimate")
            ratio = est / res.modeled_ms
            assert EST_RATIO_LO <= ratio <= EST_RATIO_HI, (
                kernel.name, backend, spec.name, block_dim, ratio,
            )


# ======================================================================
# shipped kernels all have bounded, issue-free cost models
# ======================================================================
class TestShippedBounded:
    def test_every_shipped_kernel_bounded(self):
        for kernel in shipped_kernels():
            model = derive_cost(kernel)
            if model is None:  # vector-only kernels have no device code
                assert kernel._device_fn() is None if hasattr(kernel, "_device_fn") else True
                continue
            assert model.bounded, kernel.name
            assert not model.issues, (kernel.name, model.issues)
            assert not model.unbounded_loops()

    def test_required_symbols_are_bindable(self):
        """No fresh (interpreter-invented) symbols leak into the binding
        surface — every required symbol is a parameter, geometry, or a
        contract stat."""
        for kernel in shipped_kernels():
            model = derive_cost(kernel)
            if model is None:
                continue
            for sym in model.required_symbols():
                assert ":" not in sym, (kernel.name, sym)


# ======================================================================
# defect detection: the KC007 seeds through the model layer
# ======================================================================
class TestDefects:
    def test_unbounded_kernel_refuses_bound(self):
        from tests.analysis.badkernels.kc007 import UnboundedLoopKernel

        model = derive_cost(UnboundedLoopKernel())
        assert model is not None
        assert not model.bounded
        assert any(i.severity == "error" for i in model.issues)
        assert model.unbounded_loops()
        with pytest.raises(UnboundedCostError):
            model.counters_per_thread({"n": 8, "bdim": 4, "gdim": 2}, mode="bound")

    def test_liar_contract_flagged_but_still_bounded(self):
        from tests.analysis.badkernels.kc007 import CostContractLiarKernel

        model = derive_cost(CostContractLiarKernel())
        assert model is not None
        assert model.bounded  # the *derived* bound is fine
        warns = [i for i in model.issues if i.severity == "warn"]
        assert warns and "global_loads" in warns[0].message
        # the derived truth, not the lying declaration, is what resolves
        per = model.counters_per_thread({"n": 8, "bdim": 4, "gdim": 2}, mode="bound")
        assert per["global_loads"] >= 2

    def test_honest_contracts_prove(self):
        """Every shipped contract's declared counter bounds are provable
        against the derivation — the KC007 'liar' check stays silent."""
        for kernel in shipped_kernels():
            model = derive_cost(kernel)
            if model is None or model.contract is None:
                continue
            assert not any(
                "below the derived worst case" in i.message for i in model.issues
            ), kernel.name


# ======================================================================
# evaluator units
# ======================================================================
class TestEvaluators:
    def test_eval_lin_constant(self):
        assert eval_lin(Lin.of(7), {}) == 7.0

    def test_eval_lin_affine(self):
        lin = Lin.sym("n").mul(Lin.of(3)) + Lin.of(2)
        assert eval_lin(lin, {"n": 5}) == 17.0

    def test_eval_lin_product_monomial(self):
        lin = Lin.sym("n").mul(Lin.sym("bdim"))
        assert eval_lin(lin, {"n": 4, "bdim": 8}) == 32.0

    def test_eval_lin_missing_symbol(self):
        with pytest.raises(KeyError):
            eval_lin(Lin.sym("n"), {"m": 1})

    def test_eval_expr_arithmetic(self):
        assert eval_expr("3*n + 2", {"n": 5}) == 17.0
        assert eval_expr("(n + 7) // 8", {"n": 9}) == 2.0
        assert eval_expr("n % 4", {"n": 9}) == 1.0
        assert eval_expr("n / 2", {"n": 9}) == 4.5

    def test_eval_expr_min_max(self):
        assert eval_expr("max(1, n - 10)", {"n": 5}) == 1.0
        assert eval_expr("min(n, 3)", {"n": 5}) == 3.0

    def test_eval_expr_rejects_calls(self):
        with pytest.raises(ValueError):
            eval_expr("__import__('os')", {})

    def test_eval_expr_rejects_names_not_bound(self):
        with pytest.raises(KeyError):
            eval_expr("n + m", {"n": 1})


# ======================================================================
# cost-report JSON: hypothesis round-trip
# ======================================================================
def _json_roundtrip(d):
    return json.loads(json.dumps(d, sort_keys=True))


class TestCostReportJson:
    @pytest.mark.parametrize("kernel", shipped_kernels(), ids=lambda k: k.name)
    def test_model_dict_json_stable(self, kernel):
        model = derive_cost(kernel)
        assert model is not None  # every shipped kernel has device code
        d = model.to_dict()
        assert _json_roundtrip(d) == d

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=100_000),
        n_cells=st.integers(min_value=1, max_value=5_000),
        top_k=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
    )
    def test_prune_report_json_roundtrip(self, n, n_cells, top_k):
        """Any workload's prune report survives a JSON round-trip and
        keeps its invariants (frontier ⊆ survivors, best ranked first,
        bounded by top_k)."""
        from repro.analysis.tuner import WorkloadStats, prune_configs

        stats = WorkloadStats(n=n, nx=16, ny=16, n_cells=n_cells, r_cell=n / n_cells)
        result = prune_configs(stats, top_k=top_k)
        d = result.to_dict()
        assert _json_roundtrip(d) == d
        labels = [r["kernel"] + "@" + str(r["block_dim"]) for r in d["ranked"]]
        assert set(d["frontier"]) <= set(labels)
        assert set(d["eliminated"]) <= set(labels)
        if top_k is not None:
            assert len(d["frontier"]) <= max(1, top_k)
        if result.best is not None:
            assert d["frontier"][0] == result.best.config.label
