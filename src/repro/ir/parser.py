"""Parser for the textual IR format emitted by :mod:`repro.ir.printer`.

Round-tripping (``parse_module(module_to_str(m))``) is primarily a testing
and debugging aid: golden IR files can be checked in, diffed, and reloaded.
The grammar is exactly what the printer produces — one instruction per line,
``%name`` for locals, ``@name`` for globals, ``<type> <literal>`` for
constants — plus comments after ``;``.

Guard ids are preserved; shadow markers (the ``;dup`` comment) are restored
onto the parsed instructions.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .basicblock import BasicBlock
from .function import Function
from .instructions import (
    Alloca,
    BinaryOp,
    BINOPS,
    Br,
    Call,
    Cast,
    CAST_OPS,
    CondBr,
    FCmp,
    GetElementPtr,
    GuardEq,
    GuardRange,
    GuardValues,
    ICmp,
    Instruction,
    IntrinsicCall,
    INTRINSICS,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from .module import Module
from .types import parse_type
from .values import Constant, UndefValue, Value


class IRParseError(Exception):
    """Raised on malformed textual IR."""

    def __init__(self, message: str, line_no: int, line: str = "") -> None:
        suffix = f": {line.strip()!r}" if line else ""
        super().__init__(f"line {line_no}: {message}{suffix}")
        self.line_no = line_no


_GLOBAL_RE = re.compile(
    r"@(?P<name>\w+)\s*=\s*global\s+(?P<type>\w+)\s+x\s+(?P<count>\d+)"
    r"(?:\s*\{(?P<init>[^}]*)\})?"
)
_DEFINE_RE = re.compile(
    r"define\s+(?P<ret>\w+)\s+@(?P<name>\w+)\((?P<args>[^)]*)\)\s*\{"
)
_LABEL_RE = re.compile(r"^(?P<name>[\w.]+):\s*$")
_ASSIGN_RE = re.compile(r"^%(?P<dest>[\w.]+)\s*=\s*(?P<rest>.+)$")


_GUARD_ID_RE = re.compile(r";\s*id=(-?\d+)")


def _strip_comment(line: str) -> Tuple[str, bool, Optional[int]]:
    """Remove trailing comments; returns (code, had_dup_marker, guard_id)."""
    is_dup = ";dup" in line
    guard_id = None
    m = _GUARD_ID_RE.search(line)
    if m:
        guard_id = int(m.group(1))
    if ";" in line:
        line = line.split(";", 1)[0]
    return line.strip(), is_dup, guard_id


class _FunctionParser:
    """Parses one function body; resolves forward references in two phases."""

    def __init__(self, module: Module, fn: Function) -> None:
        self.module = module
        self.fn = fn
        self.values: Dict[str, Value] = {a.name: a for a in fn.args}
        self.blocks: Dict[str, BasicBlock] = {}
        #: (phi, [(value_token, block_name), ...]) resolved after all blocks
        self.pending_phis: List[Tuple[Phi, List[Tuple[str, str]]]] = []
        #: (instr-factory deferred lines) not needed: two-phase via tokens

    def block(self, name: str) -> BasicBlock:
        if name not in self.blocks:
            self.blocks[name] = self.fn.add_block(name)
        return self.blocks[name]

    def operand(self, token: str, line_no: int) -> Value:
        token = token.strip()
        if token.startswith("%"):
            name = token[1:]
            if name not in self.values:
                raise IRParseError(f"use of undefined value %{name}", line_no)
            return self.values[name]
        if token.startswith("@"):
            return self.module.global_var(token[1:])
        parts = token.split(None, 1)
        if len(parts) == 2:
            if parts[1].startswith(("%", "@")):
                # redundant type prefix before a reference ("add i32 %x, ...")
                return self.operand(parts[1], line_no)
            head = parts[1].split(None, 1)[0]
            try:
                parse_type(head)
            except ValueError:
                pass
            else:
                # doubly-typed constant ("sub i32 i32 0"): drop the result-
                # type prefix the binop format adds before the operand list
                return self.operand(parts[1], line_no)
            type_ = parse_type(parts[0])
            if parts[1] == "undef":
                return UndefValue(type_)
            literal = parts[1]
            if type_.is_float:
                return Constant(type_, float(literal))
            return Constant(type_, int(literal))
        raise IRParseError(f"cannot parse operand {token!r}", line_no)

    def split_operands(self, text: str) -> List[str]:
        return [t for t in (s.strip() for s in text.split(",")) if t]


def parse_module(text: str) -> Module:
    """Parse printer-format textual IR back into a verified-shape module.

    (Run :func:`repro.ir.verifier.verify_module` on the result if you need
    the full invariants checked.)
    """
    module = Module("parsed")
    lines = text.splitlines()
    i = 0
    n = len(lines)

    # -- pass 1: globals and function signatures -----------------------------------
    while i < n:
        raw = lines[i]
        line, _, _ = _strip_comment(raw)
        if not line:
            i += 1
            continue
        g = _GLOBAL_RE.match(line)
        if g:
            flags = raw.split(";", 1)[1] if ";" in raw else ""
            elem_type = parse_type(g.group("type"))
            initializer = None
            init_text = g.group("init")
            if init_text is not None:
                convert = float if elem_type.is_float else int
                initializer = [
                    convert(tok) for tok in init_text.split(",") if tok.strip()
                ]
            module.add_global(
                g.group("name"),
                elem_type,
                int(g.group("count")),
                initializer=initializer,
                is_input="input" in flags,
                is_output="output" in flags,
            )
            i += 1
            continue
        d = _DEFINE_RE.match(line)
        if d:
            args = []
            arg_text = d.group("args").strip()
            if arg_text:
                for part in arg_text.split(","):
                    type_name, value_name = part.strip().split()
                    args.append((parse_type(type_name), value_name.lstrip("%")))
            module.add_function(d.group("name"), parse_type(d.group("ret")), args)
            # skip to matching close brace
            depth = 1
            i += 1
            while i < n and depth:
                body_line, _, _ = _strip_comment(lines[i])
                if body_line.endswith("{"):
                    depth += 1
                if body_line == "}":
                    depth -= 1
                i += 1
            continue
        i += 1

    # -- pass 2: function bodies -------------------------------------------------------
    i = 0
    while i < n:
        line, _, _ = _strip_comment(lines[i])
        d = _DEFINE_RE.match(line)
        if not d:
            i += 1
            continue
        fn = module.function(d.group("name"))
        parser = _FunctionParser(module, fn)
        i += 1
        # Collect the body first: operands may reference values defined later
        # in textual order (SSA dominance is not print order), so parsing
        # retries deferred lines until all names resolve.
        entries = []  # (line_no, block, code, is_dup, guard_id)
        block_order: List[BasicBlock] = []
        current: Optional[BasicBlock] = None
        while i < n:
            raw = lines[i]
            line, is_dup, guard_id = _strip_comment(raw)
            i += 1
            if not line:
                continue
            if line == "}":
                break
            label = _LABEL_RE.match(line)
            if label:
                current = parser.block(label.group("name"))
                block_order.append(current)
                continue
            if current is None:
                raise IRParseError("instruction outside a block", i, raw)
            entries.append([i, current, line, is_dup, guard_id, None])

        unresolved = list(range(len(entries)))
        while unresolved:
            progressed = False
            still = []
            last_error: Optional[IRParseError] = None
            for idx in unresolved:
                line_no, block, code, is_dup, guard_id, _ = entries[idx]
                try:
                    instr = _parse_instruction(code, parser, line_no)
                except IRParseError as exc:
                    last_error = exc
                    still.append(idx)
                    continue
                instr.is_shadow = is_dup
                if guard_id is not None and instr.is_guard:
                    instr.guard_id = guard_id
                entries[idx][5] = instr
                if instr.has_result:
                    parser.values[instr.name] = instr
                progressed = True
            if still and not progressed:
                raise last_error  # type: ignore[misc]
            unresolved = still

        for _, block, _, _, _, instr in entries:
            block.append(instr)

        # resolve phi incomings now that every value exists
        for phi, pairs in parser.pending_phis:
            for value_token, block_name in pairs:
                phi.add_incoming(
                    parser.operand(value_token, 0), parser.block(block_name)
                )
    return module


_PHI_INCOMING_RE = re.compile(r"\[([^\]]+),\s*%([\w.]+)\]")


def _parse_instruction(line: str, p: _FunctionParser, line_no: int) -> Instruction:
    dest = None
    m = _ASSIGN_RE.match(line)
    if m:
        dest = m.group("dest")
        line = m.group("rest").strip()

    op, _, rest = line.partition(" ")
    rest = rest.strip()

    instr = _build(op, rest, p, line_no, dest)
    if dest is not None:
        if not instr.has_result:
            raise IRParseError(f"{op} produces no value", line_no, line)
        instr.name = dest
    return instr


def _build(op: str, rest: str, p: _FunctionParser, line_no: int, dest) -> Instruction:
    if op in BINOPS:
        ops = p.split_operands(rest)
        if len(ops) != 2:
            raise IRParseError(f"{op} expects two operands", line_no, rest)
        return BinaryOp(op, p.operand(_norm(ops[0]), line_no),
                        p.operand(_norm(ops[1]), line_no))
    if op == "icmp":
        pred, _, operands = rest.partition(" ")
        a, b = p.split_operands(operands)
        return ICmp(pred, p.operand(_norm(a), line_no), p.operand(_norm(b), line_no))
    if op == "fcmp":
        pred, _, operands = rest.partition(" ")
        a, b = p.split_operands(operands)
        return FCmp(pred, p.operand(_norm(a), line_no), p.operand(_norm(b), line_no))
    if op == "select":
        a, b, c = p.split_operands(rest)
        return Select(p.operand(_norm(a), line_no), p.operand(_norm(b), line_no),
                      p.operand(_norm(c), line_no))
    if op in CAST_OPS:
        # "%v to i32"
        value_part, _, type_part = rest.partition(" to ")
        return Cast(op, p.operand(_norm(value_part), line_no),
                    parse_type(type_part.strip()))
    if op == "alloca":
        # "i32 x 4"
        type_name, _, count = rest.partition(" x ")
        return Alloca(parse_type(type_name.strip()), int(count))
    if op == "load":
        # "i32, %ptr"
        type_name, _, pointer = rest.partition(",")
        return Load(parse_type(type_name.strip()), p.operand(_norm(pointer), line_no))
    if op == "store":
        value, pointer = p.split_operands(rest)
        return Store(p.operand(_norm(value), line_no), p.operand(_norm(pointer), line_no))
    if op == "gep":
        # "%base, %idx x i32"
        base, _, idx_part = rest.partition(",")
        idx, _, elem = idx_part.partition(" x ")
        return GetElementPtr(
            p.operand(_norm(base), line_no),
            p.operand(_norm(idx), line_no),
            parse_type(elem.strip()),
        )
    if op == "br":
        # "label %name"
        name = rest.split("%", 1)[1]
        return Br(p.block(name.strip()))
    if op == "condbr":
        cond, t_label, f_label = p.split_operands(rest)
        return CondBr(
            p.operand(_norm(cond), line_no),
            p.block(t_label.split("%", 1)[1].strip()),
            p.block(f_label.split("%", 1)[1].strip()),
        )
    if op == "ret":
        if not rest or rest == "void":
            return Ret()
        return Ret(p.operand(_norm(rest), line_no))
    if op == "phi":
        # "i32 [v, %b], [v, %b]"
        type_name = rest.split(None, 1)[0]
        phi = Phi(parse_type(type_name))
        pairs = [
            (value.strip(), block)
            for value, block in _PHI_INCOMING_RE.findall(rest)
        ]
        p.pending_phis.append((phi, pairs))
        return phi
    if op == "call":
        # "@fn(args)"
        name, _, arg_text = rest.partition("(")
        callee = p.module.function(name.strip().lstrip("@"))
        args = [
            p.operand(_norm(a), line_no)
            for a in p.split_operands(arg_text.rstrip(")"))
        ]
        return Call(callee, args)
    if op == "guard_eq":
        a, b = p.split_operands(rest)
        return GuardEq(p.operand(_norm(a), line_no), p.operand(_norm(b), line_no),
                       guard_id=-1)
    if op == "guard_values":
        ops = [p.operand(_norm(t), line_no) for t in p.split_operands(rest)]
        return GuardValues(ops[0], ops[1:], guard_id=-1)  # type: ignore[arg-type]
    if op == "guard_range":
        v, lo, hi = (p.operand(_norm(t), line_no) for t in p.split_operands(rest))
        return GuardRange(v, lo, hi, guard_id=-1)  # type: ignore[arg-type]
    # intrinsic call: "name(args)" comes through as op="name(...)" or split
    full = f"{op} {rest}".strip() if rest else op
    if "(" in full:
        name, _, arg_text = full.partition("(")
        name = name.strip()
        if name in INTRINSICS:
            args = [
                p.operand(_norm(a), line_no)
                for a in p.split_operands(arg_text.rstrip(")"))
            ]
            return IntrinsicCall(name, args)
    raise IRParseError(f"unknown instruction {op!r}", line_no, rest)


def _norm(token: str) -> str:
    return token.strip()

