"""Unit tests for the out-of-order timing model."""

import pytest

from repro.frontend import compile_source
from repro.ir import F64, I32, Constant, IRBuilder, Module
from repro.sim import Interpreter, SimConfig, TimingModel


def time_module(module, inputs=None, config=None):
    timing = TimingModel(config)
    interp = Interpreter(module, config=config, guard_mode="count", timing=timing)
    interp.run(inputs=inputs or {})
    return timing


def build_chain(n, opcode="add", type_=I32):
    """n dependent ops: v = ((1 op 1) op 1) op ..."""
    m = Module()
    fn = m.add_function("main", type_)
    b = IRBuilder(fn.add_block("entry"))
    v = b.binop(opcode, Constant(type_, 1), Constant(type_, 1))
    for _ in range(n - 1):
        v = b.binop(opcode, v, Constant(type_, 1))
    b.ret(v)
    return m


def build_independent(n, opcode="add", type_=I32):
    m = Module()
    fn = m.add_function("main", type_)
    b = IRBuilder(fn.add_block("entry"))
    last = None
    for _ in range(n):
        last = b.binop(opcode, Constant(type_, 1), Constant(type_, 1))
    b.ret(last)
    return m


class TestIssueMechanics:
    def test_dependent_chain_is_latency_bound(self):
        t = time_module(build_chain(100))
        # 100 dependent 1-cycle adds -> ~100 cycles
        assert 95 <= t.cycles <= 110

    def test_independent_ops_are_width_bound(self):
        t = time_module(build_independent(100))
        # 100 independent adds on a 2-wide machine -> ~50 cycles
        assert 45 <= t.cycles <= 60

    def test_float_chain_scales_with_latency(self):
        cfg = SimConfig()
        lat = cfg.latencies["fadd"]
        t = time_module(build_chain(50, "fadd", F64), config=cfg)
        assert t.cycles >= 50 * lat * 0.9

    def test_wider_issue_speeds_up_independent_work(self):
        narrow = time_module(build_independent(200), config=SimConfig(issue_width=1))
        wide = time_module(build_independent(200), config=SimConfig(issue_width=4))
        assert wide.cycles < narrow.cycles / 1.5

    def test_issue_queue_limits_runahead(self):
        """A long-latency chain with a tiny window stalls independent work."""
        m = Module()
        fn = m.add_function("main", F64)
        b = IRBuilder(fn.add_block("entry"))
        v = b.binop("fdiv", Constant(F64, 1.0), Constant(F64, 3.0))
        for _ in range(20):
            v = b.binop("fdiv", v, Constant(F64, 3.0))
        last = v
        for _ in range(200):
            last = b.binop("fadd", Constant(F64, 1.0), Constant(F64, 1.0))
        b.ret(v)
        small = time_module(m, config=SimConfig(issue_queue=4))
        large = time_module(m, config=SimConfig(issue_queue=512))
        assert small.cycles >= large.cycles

    def test_cycles_never_below_bandwidth_floor(self):
        t = time_module(build_independent(500))
        assert t.cycles >= 500 / 2


class TestMemoryAndBranches:
    def test_cache_misses_add_latency(self):
        src = """
        input int data[512];
        output int out[1];
        void main() {
            int s = 0;
            for (int i = 0; i < 512; i++) { s += data[i]; }
            out[0] = s;
        }
        """
        module = compile_source(src)
        t = time_module(module, inputs={"data": [1] * 512})
        assert t.dcache.misses > 0
        assert t.dcache.hits > t.dcache.misses  # 64B lines: 15/16 hit

    def test_branch_predictor_engaged(self):
        src = """
        output int out[1];
        void main() {
            int s = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 7 < 3) { s += 1; } else { s += 2; }
            }
            out[0] = s;
        }
        """
        module = compile_source(src)
        t = time_module(module)
        assert t.branch_predictor.mispredicts > 0

    def test_protected_module_is_slower(self, ):
        """Any instrumented variant must cost more estimated cycles."""
        from repro.transforms import apply_scheme
        from tests.conftest import build_sum_loop

        data = list(range(16))
        base_module, _ = build_sum_loop()
        base = time_module(base_module, inputs={"src": data})

        dup_module, _ = build_sum_loop()
        apply_scheme(dup_module, "full_dup")
        dup = time_module(dup_module, inputs={"src": data})
        assert dup.cycles > base.cycles


class TestCalls:
    def test_value_returning_call(self):
        """A call's result is ready once the callee's return value is."""
        src = """
        output int out[1];
        int sq(int x) { return x * x; }
        void main() {
            out[0] = sq(3);
        }
        """
        from repro.ir.instructions import Call

        module = compile_source(src)
        cfg = SimConfig()
        t = time_module(module, config=cfg)
        (call,) = (
            i for i in module.function("main").instructions()
            if isinstance(i, Call)
        )
        assert t.value_ready_time(call) >= cfg.latencies["mul"]


#: Figure 12's estimated cycles (``float.hex``), pinned bit-exactly: any
#: reordering of the timing model's float arithmetic shows up here
FIGURE12_CYCLES = {
    ("tiff2bw", "original"): "0x1.14b0000000000p+13",
    ("tiff2bw", "dup"): "0x1.4af0000000000p+13",
    ("tiff2bw", "dup_valchk"): "0x1.5198000000000p+13",
    ("tiff2bw", "full_dup"): "0x1.da7c000000000p+13",
    ("g721dec", "original"): "0x1.e094000000000p+14",
    ("g721dec", "dup"): "0x1.0674000000000p+15",
    ("g721dec", "dup_valchk"): "0x1.2160000000000p+15",
    ("g721dec", "full_dup"): "0x1.4819000000000p+15",
}


def test_figure12_cycles_pinned():
    from repro.experiments import ExperimentCache, ExperimentSettings

    cache = ExperimentCache(
        ExperimentSettings(trials=10, workloads=("tiff2bw", "g721dec"))
    )
    measured = {
        key: cache.runtime_cycles(*key).hex() for key in FIGURE12_CYCLES
    }
    assert measured == FIGURE12_CYCLES
