"""Shared fixtures and IR-building helpers for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.ir import I32, IRBuilder, Module, verify_module


def pytest_addoption(parser):
    parser.addoption(
        "--oracle-bits", default="0", metavar="A[-B]",
        help="bits the exhaustive register-site oracle flips, one bit or an "
             "inclusive range (default 0; CI's oracle job runs 1-31, which "
             "take about 8 s a bit)",
    )


@pytest.fixture
def oracle_bits(request):
    """The bits of ``--oracle-bits``, e.g. ``range(1, 32)`` for ``1-31``."""
    first, _, last = request.config.getoption("--oracle-bits").partition("-")
    return range(int(first), int(last or first) + 1)


@pytest.fixture(scope="session", autouse=True)
def _hermetic_campaign_cache(tmp_path_factory):
    """Point the on-disk campaign cache at a per-session temp directory.

    Keeps the suite independent of (and from writing into) the user's
    ``~/.cache/repro``, and guarantees campaign-running tests actually
    exercise the code under test instead of replaying stale cached results.
    """
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


def build_sum_loop(mul_factor: int = 3, n: int = 16):
    """A canonical counted loop with two state variables (i, acc).

    Returns (module, handles) where handles exposes the interesting values::

        acc = 7
        for i in 0..n:  acc = acc * mul_factor + src[i]
        dst[0] = acc
    """
    m = Module("sumloop")
    src = m.add_global("src", I32, n, is_input=True)
    dst = m.add_global("dst", I32, 1, is_output=True)
    fn = m.add_function("main", I32)
    entry = fn.add_block("entry")
    header = fn.add_block("header")
    body = fn.add_block("body")
    exit_ = fn.add_block("exit")

    b = IRBuilder(entry)
    b.br(header)

    b.set_block(header)
    i = b.phi(I32, "i")
    acc = b.phi(I32, "acc")
    cond = b.icmp("slt", i, b.const(n))
    b.condbr(cond, body, exit_)

    b.set_block(body)
    ptr = b.gep(src, i, I32)
    loaded = b.load(I32, ptr)
    scaled = b.mul(acc, b.const(mul_factor))
    acc_next = b.add(scaled, loaded)
    i_next = b.add(i, b.const(1))
    b.br(header)

    i.add_incoming(b.const(0), entry)
    i.add_incoming(i_next, body)
    acc.add_incoming(b.const(7), entry)
    acc.add_incoming(acc_next, body)

    b.set_block(exit_)
    out_ptr = b.gep(dst, b.const(0), I32)
    b.store(acc, out_ptr)
    b.ret(acc)

    verify_module(m)
    handles = {
        "fn": fn, "entry": entry, "header": header, "body": body, "exit": exit_,
        "i": i, "acc": acc, "i_next": i_next, "acc_next": acc_next,
        "scaled": scaled, "loaded": loaded, "ptr": ptr, "cond": cond,
        "src": src, "dst": dst, "n": n, "mul": mul_factor,
    }
    return m, handles


def sum_loop_reference(data, mul_factor: int = 3) -> int:
    """Python model of :func:`build_sum_loop` (with i32 wrapping)."""
    acc = 7
    for v in data:
        acc = (acc * mul_factor + v) & 0xFFFFFFFF
    if acc & 0x80000000:
        acc -= 1 << 32
    return acc


@pytest.fixture
def sum_loop():
    return build_sum_loop()


@pytest.fixture
def fast_campaign_config():
    """A small-but-real campaign configuration for integration tests."""
    from repro.faultinjection import CampaignConfig

    return CampaignConfig(trials=8, seed=7)
