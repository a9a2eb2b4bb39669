"""SCL AST → IR code generation.

Produces alloca-based IR (every scalar local lives in a stack slot); the
mem2reg pass (:mod:`repro.frontend.mem2reg`) then promotes the slots to SSA
registers, which is what makes loop-carried variables visible as phi nodes —
the representation the paper's state-variable analysis operates on.

Type rules (deliberately small):

* ``int`` = i32 (two's complement, wrapping), ``float`` = f64;
* mixed int/float arithmetic promotes to float;
* ``/`` is sdiv on ints and fdiv on floats; ``>>`` is arithmetic shift;
* comparisons yield i1 internally and are materialised as 0/1 ints when used
  as values;
* ``&&``/``||`` short-circuit.

Semantic checking is integrated here rather than in a separate pass — every
rule violation raises :class:`CodegenError` with the source position; this
keeps the frontend one-walk simple while giving usable diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..ir.basicblock import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.instructions import INTRINSICS
from ..ir.module import Module
from ..ir.types import F64, I1, I32, PTR, VOID, FloatType, IntType, IRType
from ..ir.values import Constant, Value
from . import astnodes as ast


class CodegenError(Exception):
    """Raised on semantic errors, with source position."""

    def __init__(self, message: str, node: ast.Node) -> None:
        super().__init__(f"{message} at line {node.line}, column {node.col}")
        self.node = node


#: builtins whose arguments are always promoted to float
_FLOAT_BUILTINS = frozenset({"sqrt", "exp", "log", "sin", "cos", "fabs", "floor", "pow"})
#: builtins that keep their operands' (common) type
_POLY_BUILTINS = frozenset({"abs", "min", "max"})


@dataclass
class ExprValue:
    """A generated expression: the IR value plus pointer element type info."""

    value: Value
    elem_type: Optional[IRType] = None  # set when value is a pointer

    @property
    def type(self) -> IRType:
        return self.value.type


def _surface_to_ir(type_: ast.TypeName, node: ast.Node) -> IRType:
    if type_.is_pointer:
        return PTR
    if type_.base == "int":
        return I32
    if type_.base == "float":
        return F64
    if type_.base == "void":
        return VOID
    raise CodegenError(f"unknown type {type_}", node)


def _elem_ir(type_: ast.TypeName, node: ast.Node) -> IRType:
    if type_.base == "int":
        return I32
    if type_.base == "float":
        return F64
    raise CodegenError(f"arrays/pointers must have int or float elements", node)


class _Scope:
    """Lexically-nested symbol table."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.symbols: Dict[str, Tuple[str, object, Optional[IRType]]] = {}

    def define(self, name: str, kind: str, obj: object, elem: Optional[IRType], node: ast.Node) -> None:
        if name in self.symbols:
            raise CodegenError(f"redefinition of {name!r}", node)
        self.symbols[name] = (kind, obj, elem)

    def lookup(self, name: str) -> Optional[Tuple[str, object, Optional[IRType]]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class CodeGenerator:
    """Generates one IR module from one SCL program."""

    def __init__(self, program: ast.Program, module_name: str = "scl") -> None:
        self.program = program
        self.module = Module(module_name)
        self.consts: Dict[str, Constant] = {}
        self.builder = IRBuilder()

    def generate(self) -> Module:
        for const in self.program.consts:
            self._declare_const(const)
        for gv in self.program.globals:
            self.module.add_global(
                gv.name,
                _elem_ir(gv.type, gv),
                gv.count,
                initializer=gv.initializer,
                is_input=gv.is_input,
                is_output=gv.is_output,
            )
        # Two passes over functions so forward calls resolve.
        for fdef in self.program.functions:
            self.module.add_function(
                fdef.name,
                _surface_to_ir(fdef.return_type, fdef),
                [(_surface_to_ir(p.type, p), p.name) for p in fdef.params],
            )
        for fdef in self.program.functions:
            self._gen_function(fdef)
        return self.module

    def _declare_const(self, const: ast.ConstDecl) -> None:
        if const.name in self.consts:
            raise CodegenError(f"redefinition of const {const.name!r}", const)
        ir_type = _surface_to_ir(const.type, const)
        if ir_type is I32:
            self.consts[const.name] = Constant(I32, int(const.value))  # type: ignore[arg-type]
        elif ir_type is F64:
            self.consts[const.name] = Constant(F64, float(const.value))  # type: ignore[arg-type]
        else:
            raise CodegenError("const must be int or float", const)

    # -- functions -------------------------------------------------------------------

    def _gen_function(self, fdef: ast.FunctionDef) -> None:
        fn = self.module.function(fdef.name)
        self._fn = fn
        self._return_type = fn.return_type
        entry = fn.add_block("entry")
        self.builder.set_block(entry)
        self._break_targets: List[BasicBlock] = []
        self._continue_targets: List[BasicBlock] = []
        self._terminated = False

        scope = _Scope()
        for gv in self.module.globals.values():
            scope.symbols[gv.name] = ("global", gv, gv.elem_type)
        for name, const in self.consts.items():
            scope.symbols[name] = ("const", const, None)

        fn_scope = _Scope(scope)
        # Parameters are copied into stack slots so they are assignable;
        # mem2reg promotes the slots right back to registers.
        for param, arg in zip(fdef.params, fn.args):
            slot = self.builder.alloca(arg.type, 1, name=f"{param.name}.addr")
            self.builder.store(arg, slot)
            elem = _elem_ir(param.type, param) if param.type.is_pointer else None
            fn_scope.define(param.name, "slot", slot, elem, param)

        self._gen_body(fdef.body, fn_scope)

        if not self._terminated:
            if self._return_type is VOID:
                self.builder.ret()
            else:
                # C-style fall-off-the-end: return a zero of the return type.
                self.builder.ret(Constant(self._return_type, 0))

    def _gen_body(self, stmts: List[ast.Node], scope: _Scope) -> None:
        inner = _Scope(scope)
        for stmt in stmts:
            if self._terminated:
                return  # unreachable code after return/break/continue: dropped
            self._gen_statement(stmt, inner)

    # -- statements --------------------------------------------------------------------

    def _gen_statement(self, stmt: ast.Node, scope: _Scope) -> None:
        if isinstance(stmt, ast.DeclStmt):
            self._gen_decl(stmt, scope)
        elif isinstance(stmt, ast.AssignStmt):
            self._gen_assign(stmt, scope)
        elif isinstance(stmt, ast.ExprStmt):
            self._gen_expr(stmt.expr, scope)
        elif isinstance(stmt, ast.IfStmt):
            self._gen_if(stmt, scope)
        elif isinstance(stmt, ast.WhileStmt):
            self._gen_while(stmt, scope)
        elif isinstance(stmt, ast.ForStmt):
            self._gen_for(stmt, scope)
        elif isinstance(stmt, ast.ReturnStmt):
            self._gen_return(stmt, scope)
        elif isinstance(stmt, ast.BreakStmt):
            if not self._break_targets:
                raise CodegenError("break outside loop", stmt)
            self.builder.br(self._break_targets[-1])
            self._terminated = True
        elif isinstance(stmt, ast.ContinueStmt):
            if not self._continue_targets:
                raise CodegenError("continue outside loop", stmt)
            self.builder.br(self._continue_targets[-1])
            self._terminated = True
        else:
            raise CodegenError(f"unsupported statement {type(stmt).__name__}", stmt)

    def _gen_decl(self, stmt: ast.DeclStmt, scope: _Scope) -> None:
        elem = _elem_ir(stmt.type, stmt)
        if stmt.type.is_pointer:
            raise CodegenError("local pointers are not supported", stmt)
        if stmt.array_size is not None:
            slot = self.builder.alloca(elem, stmt.array_size, name=stmt.name)
            scope.define(stmt.name, "array", slot, elem, stmt)
            return
        slot = self.builder.alloca(elem, 1, name=f"{stmt.name}.addr")
        scope.define(stmt.name, "slot", slot, None, stmt)
        if stmt.init is not None:
            value = self._coerce(self._gen_expr(stmt.init, scope), elem, stmt)
            self.builder.store(value, slot)

    def _gen_assign(self, stmt: ast.AssignStmt, scope: _Scope) -> None:
        addr, elem = self._gen_lvalue(stmt.target, scope)
        rhs = self._gen_expr(stmt.value, scope)
        if stmt.op:
            current = ExprValue(self.builder.load(elem, addr))
            combined = self._binary_op(stmt.op, current, rhs, stmt)
            value = self._coerce(combined, elem, stmt)
        else:
            value = self._coerce(rhs, elem, stmt)
        self.builder.store(value, addr)

    def _gen_lvalue(self, target: ast.Node, scope: _Scope) -> Tuple[Value, IRType]:
        """Returns (address, element type) of an assignable location."""
        if isinstance(target, ast.NameRef):
            sym = scope.lookup(target.name)
            if sym is None:
                raise CodegenError(f"undefined variable {target.name!r}", target)
            kind, obj, elem = sym
            if kind == "slot":
                return obj, obj.elem_type  # type: ignore[union-attr, return-value]
            raise CodegenError(f"{target.name!r} is not an assignable scalar", target)
        if isinstance(target, ast.IndexExpr):
            base = self._gen_indexable(target.base, scope)
            index = self._gen_expr(target.index, scope)
            if not isinstance(index.type, IntType):
                raise CodegenError("array index must be an integer", target)
            assert base.elem_type is not None
            addr = self.builder.gep(base.value, index.value, base.elem_type)
            return addr, base.elem_type
        raise CodegenError("invalid assignment target", target)

    def _gen_indexable(self, base: ast.Node, scope: _Scope) -> ExprValue:
        """An expression usable as an array base (global, local array, pointer)."""
        if isinstance(base, ast.NameRef):
            sym = scope.lookup(base.name)
            if sym is None:
                raise CodegenError(f"undefined variable {base.name!r}", base)
            kind, obj, elem = sym
            if kind == "global":
                return ExprValue(obj, elem)  # type: ignore[arg-type]
            if kind == "array":
                return ExprValue(obj, elem)  # type: ignore[arg-type]
            if kind == "slot" and elem is not None:  # pointer parameter
                ptr = self.builder.load(PTR, obj)  # type: ignore[arg-type]
                return ExprValue(ptr, elem)
            raise CodegenError(f"{base.name!r} is not indexable", base)
        raise CodegenError("only named arrays/pointers can be indexed", base)

    def _gen_if(self, stmt: ast.IfStmt, scope: _Scope) -> None:
        fn = self._fn
        cond = self._gen_condition(stmt.cond, scope)
        then_bb = fn.add_block("if.then")
        else_bb = fn.add_block("if.else") if stmt.else_body else None
        merge_bb = fn.add_block("if.end")
        # NB: BasicBlock defines __len__, so `else_bb or merge_bb` would treat
        # an empty else block as falsy — compare against None explicitly.
        false_target = merge_bb if else_bb is None else else_bb
        self.builder.condbr(cond, then_bb, false_target)

        self.builder.set_block(then_bb)
        self._terminated = False
        self._gen_body(stmt.then_body, scope)
        then_terminated = self._terminated
        if not then_terminated:
            self.builder.br(merge_bb)

        else_terminated = False
        if else_bb is not None:
            self.builder.set_block(else_bb)
            self._terminated = False
            self._gen_body(stmt.else_body, scope)
            else_terminated = self._terminated
            if not else_terminated:
                self.builder.br(merge_bb)

        if then_terminated and (else_bb is not None and else_terminated):
            # both arms leave; the merge block is unreachable — drop it
            fn.blocks.remove(merge_bb)
            self._terminated = True
        else:
            self.builder.set_block(merge_bb)
            self._terminated = False

    def _gen_while(self, stmt: ast.WhileStmt, scope: _Scope) -> None:
        fn = self._fn
        header = fn.add_block("while.cond")
        body = fn.add_block("while.body")
        exit_bb = fn.add_block("while.end")
        self.builder.br(header)

        self.builder.set_block(header)
        cond = self._gen_condition(stmt.cond, scope)
        self.builder.condbr(cond, body, exit_bb)

        self.builder.set_block(body)
        self._break_targets.append(exit_bb)
        self._continue_targets.append(header)
        self._terminated = False
        self._gen_body(stmt.body, scope)
        if not self._terminated:
            self.builder.br(header)
        self._break_targets.pop()
        self._continue_targets.pop()

        self.builder.set_block(exit_bb)
        self._terminated = False

    def _gen_for(self, stmt: ast.ForStmt, scope: _Scope) -> None:
        fn = self._fn
        loop_scope = _Scope(scope)
        if stmt.init is not None:
            self._gen_statement(stmt.init, loop_scope)
        header = fn.add_block("for.cond")
        body = fn.add_block("for.body")
        step_bb = fn.add_block("for.step")
        exit_bb = fn.add_block("for.end")
        self.builder.br(header)

        self.builder.set_block(header)
        if stmt.cond is not None:
            cond = self._gen_condition(stmt.cond, loop_scope)
            self.builder.condbr(cond, body, exit_bb)
        else:
            self.builder.br(body)

        self.builder.set_block(body)
        self._break_targets.append(exit_bb)
        self._continue_targets.append(step_bb)
        self._terminated = False
        self._gen_body(stmt.body, loop_scope)
        if not self._terminated:
            self.builder.br(step_bb)
        self._break_targets.pop()
        self._continue_targets.pop()

        self.builder.set_block(step_bb)
        self._terminated = False
        if stmt.step is not None:
            self._gen_statement(stmt.step, loop_scope)
        self.builder.br(header)

        self.builder.set_block(exit_bb)
        self._terminated = False

    def _gen_return(self, stmt: ast.ReturnStmt, scope: _Scope) -> None:
        if self._return_type is VOID:
            if stmt.value is not None:
                raise CodegenError("void function cannot return a value", stmt)
            self.builder.ret()
        else:
            if stmt.value is None:
                raise CodegenError("non-void function must return a value", stmt)
            value = self._coerce(self._gen_expr(stmt.value, scope), self._return_type, stmt)
            self.builder.ret(value)
        self._terminated = True

    # -- expressions ---------------------------------------------------------------------

    def _gen_expr(self, expr: ast.Node, scope: _Scope) -> ExprValue:
        if isinstance(expr, ast.IntLiteral):
            return ExprValue(Constant(I32, expr.value))
        if isinstance(expr, ast.FloatLiteral):
            return ExprValue(Constant(F64, expr.value))
        if isinstance(expr, ast.NameRef):
            return self._gen_name(expr, scope)
        if isinstance(expr, ast.IndexExpr):
            base = self._gen_indexable(expr.base, scope)
            index = self._gen_expr(expr.index, scope)
            if not isinstance(index.type, IntType):
                raise CodegenError("array index must be an integer", expr)
            assert base.elem_type is not None
            addr = self.builder.gep(base.value, index.value, base.elem_type)
            return ExprValue(self.builder.load(base.elem_type, addr))
        if isinstance(expr, ast.UnaryExpr):
            return self._gen_unary(expr, scope)
        if isinstance(expr, ast.BinaryExpr):
            if expr.op in ("&&", "||"):
                return self._gen_short_circuit(expr, scope)
            lhs = self._gen_expr(expr.lhs, scope)
            rhs = self._gen_expr(expr.rhs, scope)
            return self._binary_op(expr.op, lhs, rhs, expr)
        if isinstance(expr, ast.TernaryExpr):
            return self._gen_ternary(expr, scope)
        if isinstance(expr, ast.CastExpr):
            value = self._gen_expr(expr.operand, scope)
            target = _surface_to_ir(expr.target, expr)
            return ExprValue(self._coerce(value, target, expr))
        if isinstance(expr, ast.CallExpr):
            return self._gen_call(expr, scope)
        raise CodegenError(f"unsupported expression {type(expr).__name__}", expr)

    def _gen_name(self, expr: ast.NameRef, scope: _Scope) -> ExprValue:
        sym = scope.lookup(expr.name)
        if sym is None:
            raise CodegenError(f"undefined variable {expr.name!r}", expr)
        kind, obj, elem = sym
        if kind == "const":
            return ExprValue(obj)  # type: ignore[arg-type]
        if kind == "slot":
            if elem is not None:  # pointer parameter used as a value
                return ExprValue(self.builder.load(PTR, obj), elem)  # type: ignore[arg-type]
            return ExprValue(self.builder.load(obj.elem_type, obj))  # type: ignore[union-attr, arg-type]
        if kind in ("global", "array"):
            return ExprValue(obj, elem)  # type: ignore[arg-type]
        raise CodegenError(f"cannot read {expr.name!r}", expr)

    def _gen_unary(self, expr: ast.UnaryExpr, scope: _Scope) -> ExprValue:
        operand = self._gen_expr(expr.operand, scope)
        if expr.op == "-":
            if isinstance(operand.type, FloatType):
                return ExprValue(self.builder.fsub(Constant(F64, 0.0), operand.value))
            if isinstance(operand.type, IntType):
                v = self._as_int(operand, expr)
                return ExprValue(self.builder.sub(Constant(I32, 0), v))
            raise CodegenError("cannot negate this type", expr)
        if expr.op == "~":
            v = self._as_int(operand, expr)
            return ExprValue(self.builder.xor(v, Constant(I32, -1)))
        if expr.op == "!":
            cond = self._to_condition(operand, expr)
            flipped = self.builder.icmp("eq", cond, Constant(I1, 0))
            return ExprValue(flipped)
        raise CodegenError(f"unsupported unary operator {expr.op!r}", expr)

    def _gen_short_circuit(self, expr: ast.BinaryExpr, scope: _Scope) -> ExprValue:
        fn = self._fn
        lhs = self._gen_condition(expr.lhs, scope)
        lhs_block = self.builder.block
        rhs_bb = fn.add_block("sc.rhs")
        merge_bb = fn.add_block("sc.end")
        if expr.op == "&&":
            self.builder.condbr(lhs, rhs_bb, merge_bb)
            short_value = Constant(I1, 0)
        else:
            self.builder.condbr(lhs, merge_bb, rhs_bb)
            short_value = Constant(I1, 1)

        self.builder.set_block(rhs_bb)
        rhs = self._gen_condition(expr.rhs, scope)
        rhs_exit = self.builder.block
        self.builder.br(merge_bb)

        self.builder.set_block(merge_bb)
        phi = self.builder.phi(I1)
        phi.add_incoming(short_value, lhs_block)
        phi.add_incoming(rhs, rhs_exit)
        return ExprValue(phi)

    def _gen_ternary(self, expr: ast.TernaryExpr, scope: _Scope) -> ExprValue:
        fn = self._fn
        cond = self._gen_condition(expr.cond, scope)
        then_bb = fn.add_block("sel.then")
        else_bb = fn.add_block("sel.else")
        merge_bb = fn.add_block("sel.end")
        self.builder.condbr(cond, then_bb, else_bb)

        self.builder.set_block(then_bb)
        tval = self._gen_expr(expr.if_true, scope)
        then_exit = self.builder.block

        self.builder.set_block(else_bb)
        fval = self._gen_expr(expr.if_false, scope)
        else_exit = self.builder.block

        # unify types: float wins
        common: IRType = tval.type
        if isinstance(tval.type, FloatType) or isinstance(fval.type, FloatType):
            common = F64
        elif isinstance(tval.type, IntType) and tval.type.bits == 1:
            common = fval.type if not fval.type.is_bool else I1

        self.builder.set_block(then_exit)
        t = self._coerce(tval, common, expr)
        self.builder.br(merge_bb)
        self.builder.set_block(else_exit)
        f = self._coerce(fval, common, expr)
        self.builder.br(merge_bb)

        self.builder.set_block(merge_bb)
        phi = self.builder.phi(common)
        phi.add_incoming(t, then_exit)
        phi.add_incoming(f, else_exit)
        return ExprValue(phi)

    def _gen_call(self, expr: ast.CallExpr, scope: _Scope) -> ExprValue:
        name = expr.callee
        args = [self._gen_expr(a, scope) for a in expr.args]

        if name in INTRINSICS:
            _, arity = INTRINSICS[name]
            if len(args) != arity:
                raise CodegenError(f"{name}() expects {arity} argument(s)", expr)
            if name in _FLOAT_BUILTINS:
                values = [self._coerce(a, F64, expr) for a in args]
            else:  # polymorphic: unify to a common numeric type
                if any(isinstance(a.type, FloatType) for a in args):
                    values = [self._coerce(a, F64, expr) for a in args]
                else:
                    values = [self._as_int(a, expr) for a in args]
            return ExprValue(self.builder.intrinsic(name, values))

        if name not in self.module.functions:
            raise CodegenError(f"call to undefined function {name!r}", expr)
        callee = self.module.function(name)
        if len(args) != len(callee.args):
            raise CodegenError(
                f"{name}() expects {len(callee.args)} argument(s), got {len(args)}", expr
            )
        values = []
        for arg_expr, formal in zip(args, callee.args):
            if formal.type is PTR:
                if arg_expr.type is not PTR:
                    raise CodegenError(f"argument {formal.name!r} must be a pointer", expr)
                values.append(arg_expr.value)
            else:
                values.append(self._coerce(arg_expr, formal.type, expr))
        return ExprValue(self.builder.call(callee, values))

    # -- conversions and operators ---------------------------------------------------------

    def _gen_condition(self, expr: ast.Node, scope: _Scope) -> Value:
        return self._to_condition(self._gen_expr(expr, scope), expr)

    def _to_condition(self, ev: ExprValue, node: ast.Node) -> Value:
        t = ev.type
        if isinstance(t, IntType):
            if t.bits == 1:
                return ev.value
            return self.builder.icmp("ne", ev.value, Constant(t, 0))
        if isinstance(t, FloatType):
            return self.builder.fcmp("one", ev.value, Constant(F64, 0.0))
        raise CodegenError("condition must be numeric", node)

    def _as_int(self, ev: ExprValue, node: ast.Node) -> Value:
        t = ev.type
        if isinstance(t, IntType):
            if t.bits == 1:
                return self.builder.cast("zext", ev.value, I32)
            return ev.value
        raise CodegenError("expected an integer value", node)

    def _coerce(self, ev: ExprValue, target: IRType, node: ast.Node) -> Value:
        t = ev.type
        if t is target:
            return ev.value
        if isinstance(t, IntType) and target is F64:
            v = self.builder.cast("zext", ev.value, I32) if t.bits == 1 else ev.value
            return self.builder.sitofp(v, F64)
        if isinstance(t, FloatType) and target is I32:
            return self.builder.fptosi(ev.value, I32)
        if isinstance(t, IntType) and isinstance(target, IntType):
            return self.builder.int_cast(ev.value, target, signed=t.bits > 1)
        raise CodegenError(f"cannot convert {t} to {target}", node)

    _CMP_PRED = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle", ">": "sgt", ">=": "sge"}
    _FCMP_PRED = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole", ">": "ogt", ">=": "oge"}
    _INT_OPS = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
                "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr"}
    _FLOAT_OPS = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv", "%": "frem"}

    def _binary_op(self, op: str, lhs: ExprValue, rhs: ExprValue, node: ast.Node) -> ExprValue:
        is_float = isinstance(lhs.type, FloatType) or isinstance(rhs.type, FloatType)
        if op in self._CMP_PRED:
            if is_float:
                a = self._coerce(lhs, F64, node)
                b = self._coerce(rhs, F64, node)
                return ExprValue(self.builder.fcmp(self._FCMP_PRED[op], a, b))
            a = self._as_int(lhs, node)
            b = self._as_int(rhs, node)
            return ExprValue(self.builder.icmp(self._CMP_PRED[op], a, b))
        if is_float:
            if op not in self._FLOAT_OPS:
                raise CodegenError(f"operator {op!r} is not defined on floats", node)
            a = self._coerce(lhs, F64, node)
            b = self._coerce(rhs, F64, node)
            return ExprValue(self.builder.binop(self._FLOAT_OPS[op], a, b))
        if op not in self._INT_OPS:
            raise CodegenError(f"unsupported operator {op!r}", node)
        a = self._as_int(lhs, node)
        b = self._as_int(rhs, node)
        return ExprValue(self.builder.binop(self._INT_OPS[op], a, b))
