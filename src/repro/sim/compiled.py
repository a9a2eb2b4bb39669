"""Pre-compiled fast execution path for the IR interpreter.

The reference loop in :mod:`repro.sim.interpreter` re-resolves every
instruction on every retirement: an isinstance-chain dispatch, an opcode table
lookup, and a generic ``_fetch`` per operand.  For a fault-injection campaign
the same module runs thousands of times, so this module performs that
resolution **once per module** and caches the result:

* every instruction becomes a specialized *step closure* ``step(I, frame,
  vals)`` with its evaluator inlined (integer wrap is emitted as a pure
  arithmetic expression, no calls), constant operands folded to raw Python
  values, and SSA operands pre-bound to their ``id()`` dictionary keys;
* every ``br``/``cond_br`` takes its block edge itself: it ends with the
  successor's phi moves for that edge (one parallel copy: every incoming
  read before any phi is written), sets ``frame.block``/``frame.prev_block``
  and returns the successor's :class:`CompiledBlock`, so the driving loop
  only counts the phis.  Two rare edges go through the interpreter's
  generic ``_edge`` instead: a branch whose target a control fault
  corrupts, and an edge whose phi input was never computed (reachable only
  after a control fault);
* calls and returns pre-bind the callee entry block and the return-resume
  point, so the inter-procedural transfer is a couple of attribute writes;
* loads and stores of the untracked variants (golden, profiling, timing and
  post-injection runs) index the memory's segment map inline and read or
  write with one ``struct`` call; only a miss goes through
  ``Memory._locate``, which raises the reference trap.  The tracked variant
  keeps calling the interpreter's address translators, which the
  occupancy capture wraps (capture runs are tracked);
* maximal straight-line runs of non-control instructions are additionally
  fused into **superblock closures** (``CompiledBlock.fused``): one Python
  call executes the whole run with no per-instruction driver-loop iteration,
  and an operand produced earlier in the run is read from the local that
  holds it rather than from the frame's value dict (every result is still
  stored there: register-file picks, snapshots and the re-convergence
  comparison read frame values).  Each fragment's code is generated once,
  in the form its superblock needs; a single-step closure for a position
  inside a superblock is built on its first call.
  The driving loop enters a superblock only when neither the pending
  injection cycle nor the instruction budget falls inside the run, so
  per-instruction event checks are never skipped when they could fire; trap
  cycles stay exact because a fused body stores its intra-run progress in
  ``I._sbk`` before every instruction that can raise a
  :class:`~repro.sim.events.SimTrap` (integer div/rem, loads, stores,
  guards, alloca), and the driver re-times an escaping trap from that
  marker.

Closures are produced by exec-based *makers* cached by source text, so the
number of distinct ``exec`` calls is bounded by the number of distinct
instruction shapes (a few dozen process-wide), while each closure carries its
own constants in cell variables.

Semantics are mirrored from the reference loop **exactly** — same evaluator
tables (:mod:`repro.sim.ops`), same memory access rules, same trap order,
same register-file write order — and the differential tests in
``tests/test_fastpath_parity.py`` plus the campaign golden files hold the two
paths bit-identical.  Two deliberate differences, both invisible to existing
clients: traps are raised from closures with ``cycle=-1`` and re-timed by the
driving loop (:class:`~repro.sim.events.SimTrap` messages are built at
construction), and ``Interpreter.cycle`` is only synced at injection points,
trap exits, and run end (no in-tree value hook reads it mid-run).

Each variant bakes in what its runs need: ``track`` the register-file write
log (injection and capture runs), ``hooked`` the value hook (profiling),
and ``timed`` the attached :class:`~repro.sim.timing.TimingModel`'s calls,
made at the reference loop's points in its order (Figure 12's timing runs).

Compiled code is cached on the module object and keyed by an identity token
over every function, block, instruction, operand, successor, and callee.  The
cache *pins* those objects, so a matching token proves the structure is
unchanged (a live ``id`` cannot be reused); any in-place transform produces a
new token and triggers recompilation.  A campaign walks the token once for
all its trials (``campaign._ensure_compiled``) and hands the variants to
each trial's interpreter; every other run checks it itself.  A timed
variant is built for its one run and not cached.
"""

from __future__ import annotations

import re
import struct
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    Alloca,
    BinaryOp,
    Br,
    Call,
    Cast,
    CondBr,
    FCmp,
    GetElementPtr,
    GuardEq,
    GuardRange,
    GuardValues,
    ICmp,
    IntrinsicCall,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from ..ir.module import Module
from ..ir.types import F32, F64, I8, I16, I32, I64, PTR, IntType
from ..ir.values import Constant, GlobalVariable, UndefValue
from ..obs.metrics import global_registry as _obs_registry
from .events import ArithmeticTrap, GuardTrap, StackOverflowTrap
from .memory import SEGMENT_SHIFT
from .ops import ICMP_EVAL, INTRINSIC_EVAL, c_div, c_rem, float_div

__all__ = [
    "STOP",
    "UNWIND",
    "CompiledBlock",
    "CompiledFunction",
    "CompiledModule",
    "compile_variants",
]

_F32_STRUCT = struct.Struct("<f")
_F64_STRUCT = struct.Struct("<d")

#: (load, store) struct of each type whose memory access is one ``struct``
#: call: a full-width integer loads with its signed format, which is the
#: two's-complement wrap, and stores ``v & mask`` with its unsigned one
_ACCESS_STRUCTS = {
    t: (struct.Struct(f"<{c}"), struct.Struct(f"<{c.upper()}"))
    for t, c in ((I8, "b"), (I16, "h"), (I32, "i"), (I64, "q"))
}
_ACCESS_STRUCTS[PTR] = (struct.Struct("<Q"),) * 2
_ACCESS_STRUCTS[F32] = (_F32_STRUCT,) * 2
_ACCESS_STRUCTS[F64] = (_F64_STRUCT,) * 2

#: Step-closure return sentinels: ``None`` means fall through to the next
#: instruction; a :class:`CompiledBlock` means jump; ``UNWIND`` means the
#: current frame changed (call or return) — resume from ``I._resume_cb`` /
#: ``I._resume_idx``; ``STOP`` means the entry function returned.
UNWIND = object()
STOP = object()


def _missing_value(I, frame, value):
    """Mirror of the reference ``_fetch`` fallback for unbound SSA values."""
    if I._control_fault_fired:
        return 0.0 if value.type.is_float else 0
    raise RuntimeError(
        f"value {value.short()} has no binding in frame of @{frame.function.name}"
    )


def _f32_round(x: float) -> float:
    return _F32_STRUCT.unpack(_F32_STRUCT.pack(x))[0]


def _leading_phis(block: BasicBlock) -> int:
    n = 0
    for instr in block.instructions:
        if instr.__class__ is not Phi:
            break
        n += 1
    return n


class CompiledBlock:
    """One basic block: step closures and superblocks.

    The block's leading phis have no step closures: the branch that enters
    the block performs them (see ``_edge_code``), and execution resumes at
    index ``n_phis``.
    """

    __slots__ = ("block", "code", "fused", "n_phis")

    def __init__(self, block: BasicBlock) -> None:
        self.block = block
        self.code: List[Optional[Callable]] = []
        #: parallel to ``code``: at the start index of each maximal
        #: straight-line run of >= 2 non-control instructions, the
        #: ``(superblock closure, run length)`` executing the whole run in
        #: one call; ``None`` elsewhere
        self.fused: List[Optional[Tuple[Callable, int]]] = []
        self.n_phis = _leading_phis(block)


class CompiledFunction:
    __slots__ = ("function", "blocks", "entry_cb")

    def __init__(self, function: Function) -> None:
        self.function = function
        self.blocks: Dict[BasicBlock, CompiledBlock] = {
            block: CompiledBlock(block) for block in function.blocks
        }
        self.entry_cb = self.blocks[function.entry]


class CompiledModule:
    """All compiled functions of one module for one (track, hooked, timed)
    variant.

    ``pinned`` holds a strong reference to every object whose ``id`` appears
    in ``token`` — that is what makes token comparison sound (see module
    docstring).
    """

    __slots__ = ("module", "variant", "token", "functions", "pinned")

    def __init__(self, module: Module, variant: Tuple[bool, bool, bool],
                 token: Tuple, pinned: List) -> None:
        self.module = module
        self.variant = variant
        self.token = token
        self.pinned = pinned
        self.functions: Dict[Function, CompiledFunction] = {}


# ---------------------------------------------------------------------------
# Structure token
# ---------------------------------------------------------------------------


def _snapshot(module: Module) -> List:
    """Every object whose identity the compiled code depends on."""
    pinned: List = []
    add = pinned.append
    for fn in module.functions.values():
        add(fn)
        for block in fn.blocks:
            add(block)
            for instr in block.instructions:
                add(instr)
                pinned.extend(instr._operands)
                cls = instr.__class__
                if cls is Br:
                    add(instr.target)
                elif cls is CondBr:
                    add(instr.if_true)
                    add(instr.if_false)
                elif cls is Phi:
                    pinned.extend(instr.incoming_blocks)
                elif cls is Call:
                    add(instr.callee)
    return pinned


# ---------------------------------------------------------------------------
# Closure makers (exec-cached by source text)
# ---------------------------------------------------------------------------

_ENV: Dict[str, object] = {
    "ArithmeticTrap": ArithmeticTrap,
    "GuardTrap": GuardTrap,
    "StackOverflowTrap": StackOverflowTrap,
    "UNWIND": UNWIND,
    "STOP": STOP,
    "_mv": _missing_value,
    "from_bytes": int.from_bytes,
}

_MAKER_CACHE: Dict[Tuple[Tuple[str, ...], str], Callable] = {}


def _build_step(bindings: List[Tuple[str, object]], body: str) -> Callable:
    """Compile ``body`` into a step closure with ``bindings`` as cells."""
    names = tuple(name for name, _ in bindings)
    maker = _MAKER_CACHE.get((names, body))
    if maker is None:
        indented = "".join(
            "        " + line + "\n" for line in body.rstrip("\n").split("\n")
        )
        src = (
            f"def _make({', '.join(names)}):\n"
            f"    def step(I, frame, vals):\n"
            f"{indented}"
            f"    return step\n"
        )
        ns = dict(_ENV)
        exec(compile(src, "<ir-fastpath>", "exec"), ns)
        maker = ns["_make"]
        _MAKER_CACHE[(names, body)] = maker
    return maker(*(value for _, value in bindings))


#: ``id(value)`` → name of the superblock local holding it, for the values
#: produced earlier in the run a fragment is fused into
Locals = Dict[int, str]


def _operand(op, i: int, bindings: List[Tuple[str, object]], dest: str,
             local: Locals) -> str:
    """Code fragment assigning operand ``op`` to local ``dest``.

    Mirrors the reference ``_fetch`` resolution order; constants fold to raw
    values, a value produced earlier in the same superblock is read from
    its local, and other SSA values become a pre-keyed dict lookup.
    """
    cls = op.__class__
    if cls is Constant:
        bindings.append((f"c{i}", op.value))
        return f"{dest} = c{i}\n"
    if cls is UndefValue:
        return f"{dest} = 0\n"
    if cls is GlobalVariable:
        bindings.append((f"n{i}", op.name))
        return f"{dest} = I._global_addr[n{i}]\n"
    name = local.get(id(op))
    if name is not None:
        return f"{dest} = {name}\n"
    bindings.append((f"k{i}", id(op)))
    bindings.append((f"o{i}", op))
    return (
        f"try:\n"
        f"    {dest} = vals[k{i}]\n"
        f"except KeyError:\n"
        f"    {dest} = _mv(I, frame, o{i})\n"
    )


def _post(instr, track: bool, hooked: bool, timed: bool,
          bindings: List[Tuple[str, object]], result: str = "r",
          hook: bool = True, observe: str = "observe(ins)") -> str:
    """Register-file / value-hook writes after a producing instruction, then
    its timing-model call (``observe``), in the reference loop's order.

    ``hook=False`` for GEP and Alloca, whose results the reference loop never
    reports to the value hook.  Stores, guards and branches, which produce
    nothing, pass ``track=hooked=False`` for the timing call alone.
    """
    if not (track or (hooked and hook) or timed):
        return ""
    bindings.append(("ins", instr))
    code = ""
    if track:
        # Lazy tracking: appending (frame, producer) to a log is ~3x cheaper
        # than a RegisterFile.write; the driving loop replays the log into the
        # real register file at the injection instant (the only reader).
        code += "I._rf_log.append((frame, ins))\n"
    if hooked and hook:
        code += f"I.value_hook(ins, {result})\n"
    if timed:
        code += f"I.timing.{observe}\n"
    return code


def _locate_code(track: bool, translate: str) -> str:
    """Code binding ``seg, off`` for an access of ``sz`` bytes at ``p``.

    Tracked code calls ``translate`` (``I._mem_locate`` or
    ``I._mem_store_locate``), which the occupancy capture wraps with its
    recording hooks; capture runs are tracked.  Untracked code indexes the
    segment map itself and calls ``I._mem_locate`` only on a miss: a null,
    negative, unmapped or non-integer address, or one whose access leaves
    its segment.  ``Memory._locate`` then raises the reference loop's trap
    (or ``TypeError``), in its order.
    """
    if track:
        return f"seg, off = {translate}(p, sz)\n"
    return (
        "try:\n"
        f"    seg = I._segments[p >> {SEGMENT_SHIFT}]\n"
        "except (KeyError, TypeError):\n"
        "    I._mem_locate(p, sz)\n"
        "off = p - seg.base\n"
        "if off < 0 or off + sz > seg.size:\n"
        "    I._mem_locate(p, sz)\n"
    )


def _int_wrap_expr(expr: str) -> str:
    """Inline two's-complement wrap: ``((expr & m) ^ s) - s``.

    Equals ``IntType.wrap`` for every width (``s`` is bound to 0 for i1,
    where wrap is a plain mask).
    """
    return f"((({expr}) & m) ^ s) - s"


def _bind_int_type(t: IntType, bindings: List[Tuple[str, object]]) -> None:
    bindings.append(("m", t.mask))
    bindings.append(("s", t.sign_bit if t.bits > 1 else 0))


_INT_BINOP_EXPR = {
    "add": "a + b",
    "sub": "a - b",
    "mul": "a * b",
    "and": "a & b",
    "or": "a | b",
    "xor": "a ^ b",
    "shl": "a << (b & bm)",
    "lshr": "(a & m) >> (b & bm)",
    "ashr": "a >> (b & bm)",
}

_INT_DIV_EXPR = {
    "sdiv": "c_div(a, b)",
    "udiv": "(a & m) // (b & m)",
    "srem": "c_rem(a, b)",
    "urem": "(a & m) % (b & m)",
}

_FLOAT_BINOP_EXPR = {
    "fadd": "a + b",
    "fsub": "a - b",
    "fmul": "a * b",
    "fdiv": "fd(a, b)",
    "frem": "fr(a, b)",
}

_ICMP_EXPR = {
    "eq": "a == b",
    "ne": "a != b",
    "slt": "a < b",
    "sle": "a <= b",
    "sgt": "a > b",
    "sge": "a >= b",
    "ult": "(a & m) < (b & m)",
    "ule": "(a & m) <= (b & m)",
    "ugt": "(a & m) > (b & m)",
    "uge": "(a & m) >= (b & m)",
}

_FCMP_EXPR = {
    "oeq": "a == b",
    # one: ordered-and-unequal; x == x is the inline not-NaN test
    "one": "a != b and a == a and b == b",
    "olt": "a < b",
    "ole": "a <= b",
    "ogt": "a > b",
    "oge": "a >= b",
}


# ---------------------------------------------------------------------------
# Per-kind compilers
# ---------------------------------------------------------------------------


def _compile_binop(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = (_operand(ops[0], 0, b, "a", local)
            + _operand(ops[1], 1, b, "b", local))
    opcode = instr.opcode
    if opcode in _INT_BINOP_EXPR:
        _bind_int_type(instr.type, b)
        if "bm" in _INT_BINOP_EXPR[opcode]:
            b.append(("bm", instr.type.bits - 1))
        code += f"r = {_int_wrap_expr(_INT_BINOP_EXPR[opcode])}\n"
    elif opcode in _INT_DIV_EXPR:
        _bind_int_type(instr.type, b)
        b.append(("opc", opcode))
        if opcode == "sdiv":
            b.append(("c_div", c_div))
        elif opcode == "srem":
            b.append(("c_rem", c_rem))
        code += (
            "if b == 0:\n"
            "    raise ArithmeticTrap(opc, -1)\n"
            f"r = {_int_wrap_expr(_INT_DIV_EXPR[opcode])}\n"
        )
    else:
        if opcode == "fdiv":
            b.append(("fd", float_div))
        elif opcode == "frem":
            from .ops import FLOAT_BINOP_EVAL

            b.append(("fr", FLOAT_BINOP_EVAL["frem"]))
        code += f"r = {_FLOAT_BINOP_EXPR[opcode]}\n"
    b.append(("kr", id(instr)))
    code += "vals[kr] = r\n"
    code += _post(instr, track, hooked, timed, b)
    code += "return None\n"
    return b, code


def _compile_load(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    code = _operand(instr._operands[0], 0, b, "p", local)
    t = instr.type
    structs = _ACCESS_STRUCTS.get(t)
    if structs is not None:
        b.append(("sz", t.size_bytes))
        b.append(("st", structs[0]))
        code += (
            _locate_code(track, "I._mem_locate")
            + "r = st.unpack_from(seg.data, off)[0]\n"
        )
    elif isinstance(t, IntType):  # i1
        b.append(("sz", t.size_bytes))
        _bind_int_type(t, b)
        raw = "from_bytes(seg.data[off:off + sz], 'little')"
        code += (
            "seg, off = I._mem_locate(p, sz)\n"
            f"r = {_int_wrap_expr(raw)}\n"
        )
    else:  # pragma: no cover - mirrors Memory.load's TypeError
        b.append(("t", t))
        code += "r = I.memory.load(t, p)\n"
    b.append(("kr", id(instr)))
    code += "vals[kr] = r\n"
    code += _post(instr, track, hooked, timed, b,
                  observe="observe_load(ins, p)")
    code += "return None\n"
    return b, code


def _compile_store(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = (_operand(ops[0], 0, b, "v", local)
            + _operand(ops[1], 1, b, "p", local))
    t = ops[0].type
    structs = _ACCESS_STRUCTS.get(t)
    if structs is not None:
        b.append(("sz", t.size_bytes))
        b.append(("st", structs[1]))
        code += _locate_code(track, "I._mem_store_locate")
        if t is F32 or t is F64:
            b.append(("inf", float("inf")))
            b.append(("ninf", float("-inf")))
            code += (
                "try:\n"
                "    st.pack_into(seg.data, off, v)\n"
                "except (OverflowError, ValueError):\n"
                "    st.pack_into(seg.data, off, inf if v > 0 else ninf)\n"
            )
        else:
            b.append(("m", (1 << t.bits) - 1))
            code += "st.pack_into(seg.data, off, v & m)\n"
    elif isinstance(t, IntType):  # i1
        b.append(("sz", t.size_bytes))
        b.append(("m", t.mask))
        code += (
            "seg, off = I._mem_store_locate(p, sz)\n"
            "seg.data[off:off + sz] = (v & m).to_bytes(sz, 'little')\n"
        )
    else:  # pragma: no cover - mirrors Memory.store's TypeError
        b.append(("t", t))
        code += "I.memory.store(t, p, v)\n"
    code += _post(instr, False, False, timed, b,
                  observe="observe_store(ins, p)")
    code += "return None\n"
    return b, code


def _compile_gep(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = (_operand(ops[0], 0, b, "a", local)
            + _operand(ops[1], 1, b, "b", local))
    b.append(("esz", instr.elem_size))
    b.append(("kr", id(instr)))
    code += "r = (a + b * esz) & 0xFFFFFFFFFFFFFFFF\nvals[kr] = r\n"
    code += _post(instr, track, hooked, timed, b, hook=False)
    code += "return None\n"
    return b, code


def _compile_icmp(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = (_operand(ops[0], 0, b, "a", local)
            + _operand(ops[1], 1, b, "b", local))
    expr = _ICMP_EXPR[instr.predicate]
    if instr.predicate in ("ult", "ule", "ugt", "uge"):
        mask = getattr(ops[0].type, "mask", None)
        if mask is None:
            # Unsigned predicate on a maskless type: defer to the shared
            # evaluator so the failure mode matches the reference loop.
            b.append(("pred", ICMP_EVAL[instr.predicate]))
            b.append(("t", ops[0].type))
            expr = "pred(a, b, t)"
        else:
            b.append(("m", mask))
    code += f"r = 1 if {expr} else 0\n"
    b.append(("kr", id(instr)))
    code += "vals[kr] = r\n"
    code += _post(instr, track, hooked, timed, b)
    code += "return None\n"
    return b, code


def _compile_fcmp(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = (_operand(ops[0], 0, b, "a", local)
            + _operand(ops[1], 1, b, "b", local))
    code += f"r = 1 if {_FCMP_EXPR[instr.predicate]} else 0\n"
    b.append(("kr", id(instr)))
    code += "vals[kr] = r\n"
    code += _post(instr, track, hooked, timed, b)
    code += "return None\n"
    return b, code


def _compile_cast(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    code = _operand(instr._operands[0], 0, b, "v", local)
    opcode = instr.opcode
    t = instr.type
    if opcode in ("trunc", "sext", "ptrtoint"):
        _bind_int_type(t, b)
        code += f"r = {_int_wrap_expr('v')}\n"
    elif opcode == "zext":
        _bind_int_type(t, b)
        b.append(("fm", instr._operands[0].type.mask))
        code += f"r = {_int_wrap_expr('v & fm')}\n"
    elif opcode == "sitofp":
        if t is F32:
            b.append(("f32", _f32_round))
            code += "r = f32(float(v))\n"
        else:
            code += "r = float(v)\n"
    elif opcode == "fptosi":
        b.append(("hi", t.max_signed))
        b.append(("lo", t.min_signed))
        code += (
            "if v != v:\n"
            "    r = 0\n"
            "elif v >= hi:\n"
            "    r = hi\n"
            "elif v <= lo:\n"
            "    r = lo\n"
            "else:\n"
            "    r = int(v)\n"
        )
    elif opcode == "fpext":
        code += "r = float(v)\n"
    elif opcode == "fptrunc":
        b.append(("f32", _f32_round))
        b.append(("inf", float("inf")))
        b.append(("ninf", float("-inf")))
        code += (
            "try:\n"
            "    r = f32(v)\n"
            "except (OverflowError, ValueError):\n"
            "    r = inf if v > 0 else ninf\n"
        )
    elif opcode == "inttoptr":
        code += "r = v & 0xFFFFFFFFFFFFFFFF\n"
    elif opcode == "bitcast":
        code += "r = v\n"
    else:  # pragma: no cover - mirrors the reference RuntimeError
        b.append(("opc", opcode))
        code += "raise RuntimeError(f'unhandled cast {opc}')\n"
    b.append(("kr", id(instr)))
    code += "vals[kr] = r\n"
    code += _post(instr, track, hooked, timed, b)
    code += "return None\n"
    return b, code


def _indent(code: str) -> str:
    return "".join(
        "    " + line + "\n" for line in code.rstrip("\n").split("\n")
    )


def _compile_select(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = _operand(ops[0], 0, b, "c", local)
    # Arms stay lazy: the reference loop only fetches the taken operand, so an
    # unbound value on the untaken side must not raise.
    true_frag = _operand(ops[1], 1, b, "r", local)
    false_frag = _operand(ops[2], 2, b, "r", local)
    code += "if c & 1:\n" + _indent(true_frag)
    code += "else:\n" + _indent(false_frag)
    b.append(("kr", id(instr)))
    code += "vals[kr] = r\n"
    code += _post(instr, track, hooked, timed, b)
    code += "return None\n"
    return b, code


def _compile_intrinsic(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = ""
    argv = []
    for i, op in enumerate(ops):
        code += _operand(op, i, b, f"a{i}", local)
        argv.append(f"a{i}")
    impl = INTRINSIC_EVAL.get(instr.intrinsic)
    if impl is None:  # pragma: no cover - mirrors the reference KeyError
        b.append(("tbl", INTRINSIC_EVAL))
        b.append(("nm", instr.intrinsic))
        code += f"r = tbl[nm]({', '.join(argv)})\n"
    else:
        b.append(("fn", impl))
        code += f"r = fn({', '.join(argv)})\n"
    b.append(("kr", id(instr)))
    code += "vals[kr] = r\n"
    code += _post(instr, track, hooked, timed, b)
    code += "return None\n"
    return b, code


def _guard_tail(instr, kind: str, failed: str, timed: bool,
                b: List[Tuple[str, object]]) -> str:
    """A guard's failure accounting when ``failed`` holds, then (for a guard
    that did not raise) its timing-model call."""
    b.append(("gid", instr.guard_id))
    return (
        f"if {failed}:\n"
        "    gs.record_failure(gid)\n"
        "    if (I._guard_detect and I._guard_armed\n"
        "            and gid not in I.disabled_guards):\n"
        f"        raise GuardTrap(gid, '{kind}', -1)\n"
        + _post(instr, False, False, timed, b, observe="observe_guard(ins)")
        + "return None\n"
    )


def _compile_guard_eq(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = "gs = I.guard_stats\ngs.evaluations += 1\n"
    code += (_operand(ops[0], 0, b, "a", local)
             + _operand(ops[1], 1, b, "b", local))
    code += _guard_tail(instr, "eq", "a != b", timed, b)
    return b, code


def _compile_guard_range(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = "gs = I.guard_stats\ngs.evaluations += 1\n"
    code += _operand(ops[0], 0, b, "v", local)
    for name, op in (("lo", ops[1]), ("hi", ops[2])):
        if op.__class__ is Constant:
            b.append((name, op.value))
        else:  # pragma: no cover - transforms always emit constant bounds
            b.append((f"{name}_op", op))
            code += f"{name} = {name}_op.value\n"
    # NaN comparisons are False, so ``not (lo <= v <= hi)`` already covers the
    # reference loop's explicit isnan clause.
    code += _guard_tail(instr, "range", "not (lo <= v <= hi)", timed, b)
    return b, code


def _compile_guard_values(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    ops = instr._operands
    code = "gs = I.guard_stats\ngs.evaluations += 1\n"
    code += _operand(ops[0], 0, b, "v", local)
    if all(op.__class__ is Constant for op in ops[1:]):
        terms = []
        for i, op in enumerate(ops[1:]):
            b.append((f"e{i}", op.value))
            terms.append(f"v == e{i}")
        cond = " or ".join(terms) if terms else "False"
    else:  # pragma: no cover - transforms always emit constant expecteds
        b.append(("cs", tuple(ops[1:])))
        cond = "any(v == c.value for c in cs)"
    code += _guard_tail(instr, "values", f"not ({cond})", timed, b)
    return b, code


def _edge_code(src: BasicBlock, dst: CompiledBlock, pre: str, track: bool,
               hooked: bool, timed: bool, local: Locals,
               b: List[Tuple[str, object]]) -> str:
    """Code taking the edge ``src`` → ``dst`` and returning ``dst``.

    Mirrors the reference loop's ``_enter_block``: the target's phi moves
    as one parallel copy (every incoming read into a local before any phi
    is written), each write followed by its register-log, value-hook and
    timing-model lines as the variant needs, then the frame's block
    fields.  An incoming that was never computed raises ``KeyError``
    before any write, and the edge is retaken by the interpreter's generic
    ``_edge``; so is an edge the target's phis name no incoming for.
    Binding names carry ``pre``, so a ``cond_br`` can hold two edges.
    """
    b.append((f"{pre}cb", dst))
    phis = dst.block.instructions[:dst.n_phis]
    try:
        incomings = [phi.incoming_for(src) for phi in phis]
    except KeyError:
        return f"return I._edge(frame, {pre}cb)\n"
    fetch = move = commit = ""
    for i, (phi, op) in enumerate(zip(phis, incomings)):
        t = f"{pre}t{i}"
        cls = op.__class__
        if cls is Constant:
            b.append((f"{pre}c{i}", op.value))
            move += f"{t} = {pre}c{i}\n"
        elif cls is UndefValue:
            move += f"{t} = 0\n"
        elif cls is GlobalVariable:
            b.append((f"{pre}n{i}", op.name))
            move += f"{t} = I._global_addr[{pre}n{i}]\n"
        elif id(op) in local:
            move += f"{t} = {local[id(op)]}\n"
        else:
            b.append((f"{pre}k{i}", id(op)))
            fetch += f"    {t} = vals[{pre}k{i}]\n"
        b.append((f"{pre}d{i}", id(phi)))
        commit += f"vals[{pre}d{i}] = {t}\n"
        if track or hooked or timed:
            b.append((f"{pre}p{i}", phi))
        if track:
            commit += f"I._rf_log.append((frame, {pre}p{i}))\n"
        if hooked:
            commit += f"I.value_hook({pre}p{i}, {t})\n"
        if timed:
            b.append((f"{pre}o{i}", op))
            commit += f"I.timing.observe_phi({pre}p{i}, {pre}o{i})\n"
    code = ""
    if fetch:
        code = (
            "try:\n" + fetch + "except KeyError:\n"
            f"    return I._edge(frame, {pre}cb)\n"
        )
    b.append((f"{pre}src", src))
    b.append((f"{pre}dst", dst.block))
    return code + move + commit + (
        f"frame.prev_block = {pre}src\n"
        f"frame.block = {pre}dst\n"
        f"return {pre}cb\n"
    )


def _compile_br(instr, src, cf, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    edge = _edge_code(src, cf.blocks[instr.target], "t", track, hooked,
                      timed, local, b)
    code = (
        _post(instr, False, False, timed, b, observe="observe_jump(ins)")
        + "if I._pending_control_fault:\n"
        "    return I._edge(frame, tcb)\n"
        + edge
    )
    return b, code


def _compile_condbr(instr, src, cf, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    code = _operand(instr._operands[0], 0, b, "c", local)
    taken = _edge_code(src, cf.blocks[instr.if_true], "t", track, hooked,
                       timed, local, b)
    fallen = _edge_code(src, cf.blocks[instr.if_false], "f", track, hooked,
                        timed, local, b)
    code += (
        _post(instr, False, False, timed, b,
              observe="observe_branch(ins, bool(c & 1))")
        + "if I._pending_control_fault:\n"
        "    return I._edge(frame, tcb if c & 1 else fcb)\n"
        "if c & 1:\n"
        + _indent(taken)
        + fallen
    )
    return b, code


def _compile_call(instr, pos, own_cb, cm, track, hooked, timed):
    callee = instr.callee
    callee_cf = cm.functions[callee]
    b: List[Tuple[str, object]] = [
        ("callee", callee),
        ("ins", instr),
        ("rcb", own_cb),
        ("ridx", pos + 1),
        ("ecb", callee_cf.entry_cb),
        ("hr", instr.has_result),
        ("rk", id(instr)),
    ]
    code = (
        "frames = I._frames\n"
        "if len(frames) >= I._max_depth:\n"
        "    raise StackOverflowTrap(-1)\n"
        + ("I.timing.observe_call(ins)\n" if timed else "")
        + "nf = Frame(callee, ins, I._stack_sp)\n"
        "nv = nf.values\n"
    )
    for i, (formal, op) in enumerate(zip(callee.args, instr._operands)):
        b.append((f"f{i}", id(formal)))
        code += _operand(op, i, b, f"a{i}", {})
        code += f"nv[f{i}] = a{i}\n"
    code += (
        "nf.ret_cb = rcb\n"
        "nf.ret_idx = ridx\n"
        "nf.ret_has_result = hr\n"
        "nf.ret_key = rk\n"
        "frame.index = ridx\n"
        "frames.append(nf)\n"
        "I._frame = nf\n"
        "I._resume_cb = ecb\n"
        "I._resume_idx = 0\n"
        "return UNWIND\n"
    )
    return b, code


def _compile_ret(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = []
    if instr._operands:
        code = _operand(instr._operands[0], 0, b, "v", local)
    else:
        code = "v = None\n"
    code += (
        "frame.active = False\n"
        "frames = I._frames\n"
        "frames.pop()\n"
        "I._stack_sp = frame.stack_mark\n"
        "if not frames:\n"
        "    I._ret_value = v\n"
        "    return STOP\n"
        "caller = frames[-1]\n"
        "if frame.ret_has_result:\n"
        "    caller.values[frame.ret_key] = v\n"
    )
    if track:
        code += "    I._rf_log.append((caller, frame.call_instr))\n"
    if hooked:
        code += "    I.value_hook(frame.call_instr, v)\n"
    if timed:
        ready = "0.0"
        if instr._operands:
            b.append(("rv", instr._operands[0]))
            ready = "I.timing.value_ready_time(rv)"
        code += f"I.timing.observe_return(frame.call_instr, {ready})\n"
    code += (
        "I._frame = caller\n"
        "I._resume_cb = frame.ret_cb\n"
        "I._resume_idx = frame.ret_idx\n"
        "return UNWIND\n"
    )
    return b, code


def _compile_alloca(instr, track, hooked, timed, local):
    b: List[Tuple[str, object]] = [("sz", instr.size_bytes), ("kr", id(instr))]
    code = (
        "r = (I._stack_sp + 7) & -8\n"
        "if r + sz > I._stack_limit:\n"
        "    raise StackOverflowTrap(-1)\n"
        "vals[kr] = r\n"
        "I._stack_sp = r + sz\n"
    )
    code += _post(instr, track, hooked, timed, b, hook=False)
    code += "return None\n"
    return b, code


def _compile_unhandled(instr):  # pragma: no cover - verifier prevents
    b: List[Tuple[str, object]] = [("ins", instr)]
    code = "raise RuntimeError(f'unhandled instruction {ins.format()}')\n"
    return b, code


_SIMPLE_COMPILERS = {
    BinaryOp: _compile_binop,
    Load: _compile_load,
    Store: _compile_store,
    GetElementPtr: _compile_gep,
    ICmp: _compile_icmp,
    FCmp: _compile_fcmp,
    Cast: _compile_cast,
    Select: _compile_select,
    IntrinsicCall: _compile_intrinsic,
    GuardEq: _compile_guard_eq,
    GuardRange: _compile_guard_range,
    GuardValues: _compile_guard_values,
    Ret: _compile_ret,
    Alloca: _compile_alloca,
}

#: Instruction classes whose step fragments always fall through (``return
#: None``) — the only ones eligible for superblock fusion.  Control transfers
#: (Br/CondBr/Call/Ret) and phis need the driving loop.
_LINEAR_CLASSES = frozenset(_SIMPLE_COMPILERS) - {Ret}

_DIV_OPCODES = frozenset({"sdiv", "udiv", "srem", "urem"})


def _can_trap(instr) -> bool:
    """Can this (linear) instruction raise a :class:`SimTrap`?

    Integer div/rem raise :class:`ArithmeticTrap`; loads and stores raise
    :class:`MemoryTrap` from ``Memory._locate``, which tracked code calls
    on every access and untracked code only on a miss (see
    ``_locate_code``); guards raise :class:`GuardTrap`, and alloca raises
    :class:`StackOverflowTrap`.
    Everything else either cannot raise or raises non-``SimTrap`` exceptions
    that need no cycle re-timing (identical on the reference path).
    """
    cls = instr.__class__
    if cls is BinaryOp:
        return instr.opcode in _DIV_OPCODES
    return cls in (Load, Store, GuardEq, GuardRange, GuardValues, Alloca)


#: linear classes whose fragment leaves its result in the local ``r``
_PRODUCER_CLASSES = _LINEAR_CLASSES - {Store, GuardEq, GuardRange,
                                       GuardValues}


def _rename_bindings(
    j: int, b: List[Tuple[str, object]], code: str
) -> Tuple[List[Tuple[str, object]], str]:
    """Namespace fragment ``j``'s binding names and its result local ``r``
    as ``i{j}_name``.

    The bindings (closure cells) must not collide, and a later fragment of
    the run reads the result as ``i{j}_r``.  Other fragment-local
    temporaries (``a``, ``seg``, ...) are assigned-before-use within every
    fragment, so they may safely shadow each other across fragments.
    """
    names = sorted([name for name, _ in b] + ["r"], key=len, reverse=True)
    pattern = re.compile(r"\b(?:" + "|".join(map(re.escape, names)) + r")\b")
    code = pattern.sub(lambda m: f"i{j}_{m.group(0)}", code)
    return [(f"i{j}_{name}", value) for name, value in b], code


def _build_fused(
    parts: List[Tuple[List[Tuple[str, object]], str, bool]],
    terminator: Optional[Tuple[List[Tuple[str, object]], str]] = None,
):
    """Fuse per-instruction fragments into one superblock closure.

    Each part is ``(bindings, code, can_trap)`` as produced by the per-kind
    compilers with the run's :data:`Locals`.  Before every instruction that
    can raise a :class:`SimTrap`, the body records its 1-based position in
    ``I._sbk`` — the driving loop re-times an escaping trap to
    ``run_start_cycle + I._sbk``.  When the run extends to the end of its
    block, ``terminator`` is the Br/CondBr/Ret fragment (none of which can
    trap): its own ``return`` statement becomes the superblock's return
    value, which the driving loop dispatches exactly like a single-step
    result.

    Returns ``(closure, n_instructions)``.
    """
    bindings: List[Tuple[str, object]] = []
    body: List[str] = []
    for j, (b, code, traps) in enumerate(parts):
        b, code = _rename_bindings(j, b, code)
        bindings.extend(b)
        assert code.endswith("return None\n"), code
        code = code[: -len("return None\n")]
        if traps:
            body.append(f"I._sbk = {j + 1}\n")
        body.append(code)
    if terminator is None:
        body.append("return None\n")
    else:
        b, code = _rename_bindings(len(parts), terminator[0], terminator[1])
        bindings.extend(b)
        body.append(code)
    n = len(parts) + (terminator is not None)
    return _build_step(bindings, "".join(body)), n


# ---------------------------------------------------------------------------
# Module compilation
# ---------------------------------------------------------------------------


def _fragment(instr, pos: int, cb: CompiledBlock, cf: CompiledFunction,
              cm: CompiledModule, track: bool, hooked: bool, timed: bool,
              local: Locals):
    """``(bindings, code)`` of the step fragment for ``instr``."""
    cls = instr.__class__
    compiler = _SIMPLE_COMPILERS.get(cls)
    if compiler is not None:
        return compiler(instr, track, hooked, timed, local)
    if cls is Br:
        return _compile_br(instr, cb.block, cf, track, hooked, timed, local)
    if cls is CondBr:
        return _compile_condbr(instr, cb.block, cf, track, hooked, timed,
                               local)
    if cls is Call:
        return _compile_call(instr, pos, cb, cm, track, hooked, timed)
    return _compile_unhandled(instr)  # pragma: no cover - verifier prevents


def _lazy_step(code: List, pos: int, instr, context: Tuple) -> Callable:
    """Stand-in for the single-step closure at a position inside a
    superblock, which only runs when a pending injection or the budget
    keeps the driver out of the superblock: the first call builds the
    closure (from a fragment without superblock locals) and replaces the
    stand-in with it."""
    def step(I, frame, vals):
        real = code[pos] = _build_step(
            *_fragment(instr, pos, *context, {})
        )
        return real(I, frame, vals)

    return step


_TERMINATOR_CLASSES = (Br, CondBr, Ret)


def _fill_block(cb: CompiledBlock, cf: CompiledFunction, cm: CompiledModule,
                track: bool, hooked: bool, timed: bool) -> None:
    instrs = cb.block.instructions
    code: List[Optional[Callable]] = [None] * len(instrs)
    fused: List[Optional[Tuple[Callable, int]]] = [None] * len(instrs)
    context = (cb, cf, cm, track, hooked, timed)
    run_start: Optional[int] = None
    run_parts: List[Tuple[List[Tuple[str, object]], str, bool]] = []
    local: Locals = {}

    for pos in range(cb.n_phis, len(instrs)):
        instr = instrs[pos]
        cls = instr.__class__
        # Br/CondBr/Ret (which cannot trap) join a run as its returning
        # tail; a Call cannot — its return-resume point lands *inside* the
        # run, which a closure cannot re-enter.
        if cls in _LINEAR_CLASSES or (
            run_start is not None and cls in _TERMINATOR_CLASSES
        ):
            b, frag = _fragment(instr, pos, *context, local)
            code[pos] = _lazy_step(code, pos, instr, context)
            if run_start is None:
                run_start = pos
            if cls in _LINEAR_CLASSES:
                if cls in _PRODUCER_CLASSES:
                    local[id(instr)] = f"i{len(run_parts)}_r"
                run_parts.append((b, frag, _can_trap(instr)))
                continue
            fused[run_start] = _build_fused(run_parts, (b, frag))
        else:
            if len(run_parts) >= 2:
                fused[run_start] = _build_fused(run_parts)
            elif run_parts:
                # A lone instruction before a Call: no superblock, and its
                # fragment reads no superblock local.
                code[run_start] = _build_step(*run_parts[0][:2])
            code[pos] = _build_step(*_fragment(instr, pos, *context, {}))
        run_start, run_parts, local = None, [], {}
    cb.code = code
    cb.fused = fused


def compile_variants(
    module: Module, hooked: bool, tracks: Tuple[bool, ...],
    timed: bool = False,
) -> Tuple[CompiledModule, ...]:
    """Return (building and caching as needed) the compiled forms of
    ``module``, one per entry of ``tracks``.

    ``track`` bakes in register-file bookkeeping (fault-injection runs);
    ``hooked`` bakes in value-hook dispatch (profiling/tracing runs);
    ``timed`` bakes in the attached :class:`~repro.sim.timing.TimingModel`'s
    calls (Figure 12's timing runs).  The cache lives on the module object
    and is invalidated whenever the structure token changes — i.e. after any
    in-place transform.  The token walk runs once per call, shared by every
    variant asked for (an injection run needs the tracked and the untracked
    one).  Timed variants are built afresh and never cached: a module's
    timing run happens once (``ExperimentCache.runtime_cycles`` memoises
    it), so keeping them would only hold memory.
    """
    if "Frame" not in _ENV:
        from .interpreter import Frame

        _ENV["Frame"] = Frame
    pinned = _snapshot(module)
    token = tuple(map(id, pinned))
    cache = getattr(module, "_compiled_cache", None)
    if timed:
        cache = {"token": token}
    elif cache is None or cache.get("token") != token:
        cache = {"token": token}
        module._compiled_cache = cache
    return tuple(
        _cached_variant(module, cache, token, pinned, track, hooked, timed)
        for track in tracks
    )


def _cached_variant(module: Module, cache: Dict, token: Tuple, pinned: List,
                    track: bool, hooked: bool, timed: bool) -> CompiledModule:
    variant = (track, hooked, timed)
    cm = cache.get(variant)
    registry = _obs_registry()
    if cm is None:
        from ..obs import trace as _trace_mod

        with _trace_mod.current().span(
            "compile_module", cat="compile", track=track, hooked=hooked,
            timed=timed,
        ):
            cm = CompiledModule(module, variant, token, pinned)
            for fn in module.functions.values():
                cm.functions[fn] = CompiledFunction(fn)
            n_blocks = n_superblocks = 0
            for cf in cm.functions.values():
                for cb in cf.blocks.values():
                    _fill_block(cb, cf, cm, track, hooked, timed)
                    n_blocks += 1
                    n_superblocks += sum(
                        1 for sb in cb.fused if sb is not None
                    )
            cache[variant] = cm
        if registry.enabled:
            registry.counter("sim.compile.modules").inc()
            registry.counter("sim.compile.blocks").inc(n_blocks)
            registry.counter("sim.compile.superblocks").inc(n_superblocks)
    elif registry.enabled:
        registry.counter("sim.compile.cache_hits").inc()
    return cm
