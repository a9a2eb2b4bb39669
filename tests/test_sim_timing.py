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
    from repro.faultinjection.diskcache import CampaignCache

    # No disk cache: every cycle count comes from a timing run here.
    cache = ExperimentCache(
        ExperimentSettings(trials=10, workloads=("tiff2bw", "g721dec")),
        disk_cache=CampaignCache(enabled=False),
    )
    measured = {
        key: cache.runtime_cycles(*key).hex() for key in FIGURE12_CYCLES
    }
    assert measured == FIGURE12_CYCLES


SCHEMES = ("original", "dup", "dup_valchk", "full_dup")


def test_timed_fast_path_matches_reference_loop(monkeypatch):
    """Figure 12's timing runs on the timed compiled variant and on the
    reference loop (``REPRO_FASTPATH=0``): the same cycles bit for bit, and
    the same retirements, D-cache hits and misses and branch mispredicts,
    for three workloads under all four schemes."""
    from repro.experiments import ExperimentCache, ExperimentSettings, runner
    from repro.faultinjection.diskcache import CampaignCache

    models = []

    def recorded_model(config):
        models.append(TimingModel(config))
        return models[-1]

    reference_runs = []
    run_reference = Interpreter._run_reference

    def counted(self, *args):
        reference_runs.append(self)
        return run_reference(self, *args)

    monkeypatch.setattr(runner, "TimingModel", recorded_model)
    monkeypatch.setattr(Interpreter, "_run_reference", counted)
    workloads = ("tiff2bw", "g721dec", "jpegdec")
    keys = [(w, s) for w in workloads for s in SCHEMES]
    # No disk cache, so clearing the memo below forces every timing run.
    cache = ExperimentCache(
        ExperimentSettings(trials=10, workloads=workloads),
        disk_cache=CampaignCache(enabled=False),
    )
    for key in keys:
        cache.prepared(*key)
    observed = {}
    for fastpath in ("0", "1"):
        monkeypatch.setenv("REPRO_FASTPATH", fastpath)
        cache._runtimes.clear()  # runtime_cycles memoises each key
        del models[:], reference_runs[:]
        cycles = [cache.runtime_cycles(*key).hex() for key in keys]
        observed[fastpath] = [
            (c, t.retired, t.dcache.hits, t.dcache.misses,
             t.branch_predictor.mispredicts)
            for c, t in zip(cycles, models)
        ]
        assert len(reference_runs) == (len(keys) if fastpath == "0" else 0)
    assert observed["1"] == observed["0"]


def _observe_kernel():
    """A loop reaching every timing-model call: calls with and without a
    result, a ``ret`` of a computed value (ready long after the issue front),
    of a constant and a bare one,
    ``alloca``, f32 and f64 loads and stores, an intrinsic, ``select``,
    phis, both branch kinds, and all three guard kinds (the range guard
    fails from ``i = 6`` on, which count mode records and survives).  SCL
    has no f32, ``select`` or guards, so it is built as IR."""
    from repro.ir import F32, I32, PTR, VOID, verify_module

    m = Module("observe")
    f32buf = m.add_global("f32buf", F32, 4, initializer=[0.5, 1.5, 2.5, 3.5])
    f64buf = m.add_global("f64buf", F64, 4)

    slow = m.add_function("slow", I32, [(I32, "x")])
    b = IRBuilder(slow.add_block("entry"))
    square = b.mul(slow.args[0], slow.args[0])
    b.ret(b.binop("sdiv", b.binop("sdiv", square, Constant(I32, 3)),
                  Constant(I32, 5)))
    seven = m.add_function("seven", I32)
    IRBuilder(seven.add_block("entry")).ret(Constant(I32, 7))
    poke = m.add_function("poke", VOID, [(PTR, "p"), (F32, "v")])
    b = IRBuilder(poke.add_block("entry"))
    slot = b.alloca(F32)
    b.store(poke.args[1], slot)
    b.store(b.load(F32, slot), poke.args[0])
    b.ret()

    main = m.add_function("main", I32)
    entry, loop, done = (main.add_block(n) for n in ("entry", "loop", "done"))
    IRBuilder(entry).br(loop)
    b = IRBuilder(loop)
    i, acc = b.phi(I32, "i"), b.phi(I32, "acc")
    quotient = b.call(slow, [i])
    const = b.call(seven, [])
    p32 = b.gep(f32buf, b.binop("and", i, Constant(I32, 3)), F32)
    x = b.cast("fpext", b.load(F32, p32), F64)
    b.call(poke, [p32, Constant(F32, 4.25)])
    p64 = b.gep(f64buf, b.binop("and", i, Constant(I32, 3)), F64)
    b.store(b.fmul(x, Constant(F64, 2.0)), p64)
    root = b.intrinsic("sqrt", [b.load(F64, p64)])
    pick = b.select(b.fcmp("ogt", root, Constant(F64, 2.5)), quotient, const)
    b.guard_eq(pick, pick, 1)
    b.guard_range(i, Constant(I32, 0), Constant(I32, 5), 2)
    b.guard_values(const, [Constant(I32, 7)], 3)
    acc_next = b.add(acc, pick)
    i_next = b.add(i, Constant(I32, 1))
    b.condbr(b.icmp("slt", i_next, Constant(I32, 10)), loop, done)
    i.add_incoming(Constant(I32, 0), entry)
    i.add_incoming(i_next, loop)
    acc.add_incoming(Constant(I32, 0), entry)
    acc.add_incoming(acc_next, loop)
    IRBuilder(done).ret(acc_next)
    verify_module(m)
    return m


def test_timed_variant_makes_every_observe_call():
    """Both loops give the kernel the same cycles, mispredicts, D-cache
    hits and ready time of every value, with and without an injection;
    ``RunResult.cycles`` is the model's on the fast path, and a snapshot
    capture hook is dropped on a timed run: same cycles, no snapshot
    stored."""
    from repro.sim.faults import InjectionPlan
    from repro.sim.snapshot import SnapshotRecorder

    m = _observe_kernel()
    values = [ins for fn in m.functions.values() for ins in fn.instructions()]

    def timed(fastpath, **kwargs):
        timing = TimingModel()
        interp = Interpreter(m, guard_mode="count", timing=timing,
                             fastpath=fastpath)
        result = interp.run(**kwargs)
        assert result.cycles == timing.cycles
        return (timing.cycles.hex(), timing.retired, result.return_value,
                result.instructions, result.guard_stats.failures_by_guard,
                timing.branch_predictor.mispredicts, timing.dcache.hits,
                [timing.value_ready_time(v) for v in values])

    reference = timed(False)
    assert reference[4] == {2: 4}
    assert timed(True) == reference
    recorder = SnapshotRecorder(every=5)
    assert timed(True, capture=recorder) == reference
    assert len(recorder.store) == 0
    plan = InjectionPlan(cycle=40, bit=3, seed=11)
    assert timed(True, injection=plan) == timed(False, injection=plan)
