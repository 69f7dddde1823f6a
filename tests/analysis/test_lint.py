"""Tests for the repo-invariant AST lint (GS001–GS006)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint import lint_source, main, run_lint

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def rules(findings):
    return [f.rule for f in findings]


class TestGS001DeviceData:
    def test_factory_assignment_tracked(self):
        src = (
            "buf = device.allocate(100, float)\n"
            "x = buf.data[0]\n"
        )
        findings = lint_source(src, "core/x.py")
        assert rules(findings) == ["GS001"]
        assert findings[0].line == 2

    def test_all_factories_tracked(self):
        for factory in (
            "allocate",
            "allocate_result_buffer",
            "alloc_pinned",
            "to_device",
        ):
            src = f"b = device.{factory}(1)\nb.data[:] = 0\n"
            assert rules(lint_source(src, "core/x.py")) == ["GS001"]

    def test_annotated_parameter_tracked(self):
        src = (
            "def stage(buf: DeviceBuffer):\n"
            "    return buf.data.sum()\n"
        )
        assert rules(lint_source(src, "core/x.py")) == ["GS001"]

    def test_optional_annotation_tracked(self):
        src = (
            "def stage(buf: Optional[ResultBuffer] = None):\n"
            "    return buf.data\n"
        )
        assert rules(lint_source(src, "core/x.py")) == ["GS001"]

    def test_device_layer_exempt(self):
        src = "buf = pool.allocate(10)\nbuf.data[:] = 0\n"
        assert lint_source(src, "gpusim/memory.py", in_device_layer=True) == []

    def test_unrelated_data_attribute_ok(self):
        src = "record = parse()\nprint(record.data)\n"
        assert lint_source(src, "core/x.py") == []

    def test_metadata_methods_ok(self):
        # shape/dtype/count/view etc. are part of the host-safe API
        src = (
            "buf = device.allocate(10)\n"
            "n = len(buf)\n"
            "s = buf.shape\n"
            "c = buf.nbytes\n"
        )
        assert lint_source(src, "core/x.py") == []


class TestGS002WallClock:
    def test_time_time_in_gpusim(self):
        src = "import time\nt0 = time.time()\n"
        assert rules(lint_source(src, "gpusim/x.py", in_device_layer=True)) == [
            "GS002"
        ]

    def test_datetime_now_in_gpusim(self):
        for method in ("now", "utcnow", "today"):
            src = f"from datetime import datetime\nd = datetime.{method}()\n"
            assert rules(
                lint_source(src, "gpusim/x.py", in_device_layer=True)
            ) == ["GS002"]

    def test_perf_counter_allowed(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert lint_source(src, "gpusim/x.py", in_device_layer=True) == []

    def test_wall_clock_outside_gpusim_allowed(self):
        src = "import time\nt0 = time.time()\n"
        assert lint_source(src, "bench/x.py") == []


class TestGS003BareAcquire:
    def test_bare_acquire_flagged(self):
        for name in ("self._lock", "lock", "self.mutex", "table_lock"):
            src = f"{name}.acquire()\n"
            assert rules(lint_source(src, "core/x.py")) == ["GS003"]

    def test_with_statement_ok(self):
        src = "with self._lock:\n    pass\n"
        assert lint_source(src, "core/x.py") == []

    def test_non_lock_acquire_ok(self):
        src = "connection.acquire()\n"
        assert lint_source(src, "core/x.py") == []

    def test_inline_constructor_flagged(self):
        src = "import threading\nthreading.Lock().acquire()\n"
        assert rules(lint_source(src, "core/x.py")) == ["GS003"]

    def test_assigned_constructor_receiver_flagged(self):
        """A lock hiding behind an innocent name is still a lock."""
        for ctor in ("Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"):
            src = (
                f"import threading\n"
                f"guard = threading.{ctor}()\n"
                f"guard.acquire()\n"
            )
            assert rules(lint_source(src, "core/x.py")) == ["GS003"]

    def test_assigned_attribute_receiver_flagged(self):
        src = (
            "import threading\n"
            "self.guard = threading.Lock()\n"
            "self.guard.acquire()\n"
        )
        assert rules(lint_source(src, "core/x.py")) == ["GS003"]

    def test_with_assigned_constructor_ok(self):
        src = "import threading\nguard = threading.Lock()\nwith guard:\n    pass\n"
        assert lint_source(src, "core/x.py") == []


class TestGS004SeededRandom:
    def test_legacy_global_api_flagged(self):
        for call in ("rand(3)", "shuffle(a)", "seed(0)", "randint(0, 9)"):
            src = f"import numpy as np\nnp.random.{call}\n"
            assert rules(lint_source(src, "core/x.py")) == ["GS004"]

    def test_full_module_name_flagged(self):
        src = "import numpy\nnumpy.random.rand(3)\n"
        assert rules(lint_source(src, "core/x.py")) == ["GS004"]

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nr = np.random.default_rng()\n"
        assert rules(lint_source(src, "core/x.py")) == ["GS004"]

    def test_seeded_generator_api_ok(self):
        for call in (
            "default_rng(7)",
            "default_rng(seed=7)",
            "SeedSequence(1)",
            "Generator(np.random.PCG64(3))",
        ):
            src = f"import numpy as np\nr = np.random.{call}\n"
            assert lint_source(src, "core/x.py") == []

    def test_instance_methods_ok(self):
        """Draws from an explicit Generator are not the global API."""
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng(7)\n"
            "x = rng.random(3)\n"
            "rng.shuffle(x)\n"
        )
        assert lint_source(src, "core/x.py") == []


class TestGS005HostOnlyAPI:
    def test_numpy_call_in_device_code_flagged(self):
        src = (
            "class K:\n"
            "    def device_code(self, ctx, *, out):\n"
            "        tmp = np.zeros(4)\n"
            "        out[ctx.global_id] = tmp[0]\n"
        )
        findings = lint_source(src, "kernels/x.py")
        assert rules(findings) == ["GS005"]
        assert findings[0].line == 3
        assert "np.zeros" in findings[0].message

    def test_host_helper_call_flagged(self):
        src = (
            "class K:\n"
            "    def device_code(self, ctx, *, out):\n"
            "        out[ctx.global_id] = expensive_host_helper()\n"
        )
        assert rules(lint_source(src, "kernels/x.py")) == ["GS005"]

    def test_print_flagged(self):
        src = (
            "def device_code(self, ctx, *, out):\n"
            "    print(ctx.global_id)\n"
        )
        assert rules(lint_source(src, "kernels/x.py")) == ["GS005"]

    def test_device_dialect_allowed(self):
        """The full sanctioned surface in one body: ctx methods, math
        intrinsics, arithmetic builtins, and device_array."""
        src = (
            "def device_code(self, ctx, *, D, out, n):\n"
            "    D = device_array(D)\n"
            "    gid = ctx.global_id\n"
            "    if gid >= int(n):\n"
            "        return\n"
            "    buf = ctx.shared('buf', (ctx.block_dim,), np.int64)\n"
            "    d = math.sqrt(abs(float(D[gid])))\n"
            "    lo = min(gid, n - 1)\n"
            "    hi = max(lo, 0)\n"
            "    for i in range(len(out)):\n"
            "        ctx.atomic_add(out, i, round(d))\n"
            "    yield ctx.syncthreads()\n"
        )
        assert lint_source(src, "kernels/x.py") == []

    def test_raise_constructor_exempt(self):
        src = (
            "def device_code(self, ctx, **kwargs):\n"
            "    raise NotImplementedError('no interpreter path')\n"
        )
        assert lint_source(src, "gpusim/launch.py", in_device_layer=True) == []

    def test_host_functions_unrestricted(self):
        """Only ``device_code`` bodies are restricted — host-side code
        calls whatever it likes."""
        src = (
            "def vector_impl(self, config, counters, *, out):\n"
            "    out[:] = np.arange(len(out))\n"
        )
        assert lint_source(src, "kernels/x.py") == []


class TestGS006UncontractedLoopBound:
    KERNEL_TMPL = (
        "class K:\n"
        "    def value_invariants(self):\n"
        "        return KernelInvariants(\n"
        "            lengths={{'out': 'n'}}, scalars={{'n': (1, None)}}\n"
        "        )\n"
        "    def device_code(self, ctx, *, out, n, steps):\n"
        "        gid = ctx.global_id\n"
        "        for i in range({bound}):\n"
        "            ctx.count_global_load(1)\n"
    )

    def test_uncontracted_parameter_flagged(self):
        src = self.KERNEL_TMPL.format(bound="steps")
        findings = lint_source(src, "kernels/x.py")
        assert rules(findings) == ["GS006"]
        assert "'steps'" in findings[0].message

    def test_contracted_parameter_ok(self):
        assert lint_source(self.KERNEL_TMPL.format(bound="n"), "kernels/x.py") == []

    def test_contracted_length_ok(self):
        assert (
            lint_source(self.KERNEL_TMPL.format(bound="len(out)"), "kernels/x.py")
            == []
        )

    def test_constant_bound_exempt(self):
        assert lint_source(self.KERNEL_TMPL.format(bound="3"), "kernels/x.py") == []

    def test_ctx_geometry_exempt(self):
        assert (
            lint_source(
                self.KERNEL_TMPL.format(bound="ctx.block_dim"), "kernels/x.py"
            )
            == []
        )

    def test_local_derived_bound_not_flagged(self):
        """Locals are KC007's (dataflow) concern, not the lint's — only
        direct parameter uses are precise enough to flag."""
        src = (
            "class K:\n"
            "    def value_invariants(self):\n"
            "        return KernelInvariants(lengths={'out': 'n'})\n"
            "    def device_code(self, ctx, *, out, n, steps):\n"
            "        k = steps\n"
            "        for i in range(k):\n"
            "            ctx.count_global_load(1)\n"
        )
        assert lint_source(src, "kernels/x.py") == []

    def test_raise_stub_invariants_exempt(self):
        """An abstract base declaring no contract on purpose (its
        value_invariants raises) must not be flagged."""
        src = (
            "class Base:\n"
            "    def value_invariants(self):\n"
            "        raise NotImplementedError('subclasses declare this')\n"
            "    def device_code(self, ctx, *, out, steps):\n"
            "        for i in range(steps):\n"
            "            ctx.count_global_load(1)\n"
        )
        assert lint_source(src, "kernels/x.py") == []

    def test_missing_invariants_flagged(self):
        """No value_invariants() at all covers nothing."""
        src = (
            "class K:\n"
            "    def device_code(self, ctx, *, out, steps):\n"
            "        for i in range(steps):\n"
            "            ctx.count_global_load(1)\n"
        )
        assert rules(lint_source(src, "kernels/x.py")) == ["GS006"]

    def test_bare_device_code_function_not_in_scope(self):
        """GS006 is a class-level rule: a free device_code function has
        no sibling value_invariants to check against."""
        src = (
            "def device_code(self, ctx, *, out, steps):\n"
            "    for i in range(steps):\n"
            "        ctx.count_global_load(1)\n"
        )
        assert lint_source(src, "kernels/x.py") == []

    def test_shipped_sources_clean(self):
        """Every shipped kernel's loop bounds are contracted — the
        repo-wide gate CI relies on."""
        findings = [f for f in run_lint([str(REPO_SRC)]) if f.rule == "GS006"]
        assert findings == []


class TestRunner:
    def test_run_lint_walks_tree(self, tmp_path):
        (tmp_path / "gpusim").mkdir()
        (tmp_path / "core").mkdir()
        (tmp_path / "gpusim" / "bad.py").write_text(
            "import time\nt = time.time()\n"
        )
        (tmp_path / "core" / "bad.py").write_text(
            "b = device.allocate(1)\nb.data[:] = 0\nmy_lock.acquire()\n"
        )
        findings = run_lint([str(tmp_path)])
        assert sorted(rules(findings)) == ["GS001", "GS002", "GS003"]
        d = findings[0].as_dict()
        assert {"rule", "path", "line", "col", "message"} <= set(d)

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("the_lock.acquire()\n")
        assert main([str(bad)]) == 1
        assert "GS003" in capsys.readouterr().out
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_syntax_error_propagates(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        with pytest.raises(SyntaxError):
            run_lint([str(bad)])

    def test_discovery_skips_artifacts(self, tmp_path):
        """Byte-compiled caches and egg-info debris under a lint root
        must not produce findings (or SyntaxErrors)."""
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "junk.py").write_text("the_lock.acquire()\n")
        (tmp_path / "pkg.egg-info").mkdir()
        (tmp_path / "pkg.egg-info" / "junk.py").write_text("def f(:\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert run_lint([str(tmp_path)]) == []

    def test_explicit_file_always_linted(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        f = tmp_path / "__pycache__" / "junk.py"
        f.write_text("the_lock.acquire()\n")
        assert rules(run_lint([str(f)])) == ["GS003"]

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("the_lock.acquire()\n")
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "GS003"
        assert payload[0]["line"] == 1
        # clean run emits a valid (empty) document too
        good = tmp_path / "good.py"
        good.write_text("x = 1\n")
        assert main([str(good), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_github_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nnp.random.rand(3)\n")
        assert main([str(bad), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert f"file={bad}" in out
        assert "line=2" in out
        assert "title=GS004" in out


class TestRepoIsClean:
    def test_src_tree_has_no_findings(self):
        findings = run_lint([str(REPO_SRC)])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_module_entry_point_runs_without_runpy_warning(self):
        """``python -m repro.analysis.lint`` must not find the module
        already imported by its package: runpy then warns on every run."""
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.analysis.lint", str(REPO_SRC)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "gpulint: clean" in proc.stdout
        assert "RuntimeWarning" not in proc.stderr
