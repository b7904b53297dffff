"""Closure compiler for device programs: the interpreter's fast backend.

The reference :class:`~repro.interp.machine.Machine` walks the IR tree per
statement per round, paying a chain of ``isinstance`` tests for every node
it touches.  This module lowers each expression, statement, and basic
block into a pre-dispatched Python closure *once*, so the per-round loop
is a chain of direct calls with zero type tests.

Design constraints (all load-bearing):

* Compiled code is shared across every :class:`Machine` running the same
  :class:`~repro.ir.program.Program` — closures take the machine as their
  first argument instead of capturing one, so speculative machines and
  training reboots reuse the same compiled artifact (cached on the
  program object).
* Each block compiles to **two** variants: a *fast* body used when no
  trace sinks are attached (the deployment hot path — sink fan-out is
  elided entirely; only extern taps are notified) and a *traced* body
  that emits exactly the sink events of the reference interpreter, in
  the same order.
* Cycle/step accounting, flag updates, fault kinds, and error messages
  replicate the reference interpreter bit-for-bit; the differential test
  suite (``tests/interp/test_compile.py``) holds both backends to that.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import DeviceFault, InterpError
from repro.interp.ops import (
    DEFAULT_EXTERN_COST, STMT_COST, TERM_COST, binop_fn, unop_fn,
)
from repro.ir import (
    Assign, BasicBlock, BinOp, Branch, BufLen, BufLoad, BufStore, Call,
    Const, ExternCall, Expr, FuncPtrType, Function, Goto, ICall,
    Intrinsic, IntType, Local, Param, Program, Return, StateRef,
    StateStore, Stmt, Switch, SyncVar, Terminator, UnOp,
)

#: ``(machine, env, params) -> int`` — a compiled expression.
ExprFn = Callable[..., int]
#: ``(machine, env, params) -> None`` — a compiled statement.
StmtFn = Callable[..., None]
#: ``(machine, env, params) -> Optional[str]`` — next label, None = return.
TermFn = Callable[..., Optional[str]]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def compile_expr(expr: Expr, func_name: str, program: Program) -> ExprFn:
    """Lower one expression tree into a closure chain."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda m, env, params: value
    if isinstance(expr, Param):
        name = expr.name

        def run_param(m, env, params):
            try:
                return params[name]
            except KeyError:
                raise InterpError(
                    f"{func_name}: unknown parameter {name!r}") from None
        return run_param
    if isinstance(expr, Local):
        name = expr.name

        def run_local(m, env, params):
            try:
                return env[name]
            except KeyError:
                raise InterpError(
                    f"{func_name}: local {name!r} read before "
                    f"assignment") from None
        return run_local
    if isinstance(expr, StateRef):
        return _compile_state_read(expr.field, program)
    if isinstance(expr, BufLoad):
        return _compile_buf_load(expr, func_name, program)
    if isinstance(expr, BufLen):
        length = expr.length
        return lambda m, env, params: length
    if isinstance(expr, BinOp):
        fn = binop_fn(expr.op)
        left = compile_expr(expr.left, func_name, program)
        right = compile_expr(expr.right, func_name, program)
        if isinstance(expr.left, Const) and isinstance(expr.right, Const):
            try:
                folded = fn(expr.left.value, expr.right.value)
            except DeviceFault:
                pass    # div0 must stay a runtime fault
            else:
                return lambda m, env, params: folded
        return lambda m, env, params: fn(left(m, env, params),
                                         right(m, env, params))
    if isinstance(expr, UnOp):
        fn = unop_fn(expr.op)
        operand = compile_expr(expr.operand, func_name, program)
        return lambda m, env, params: fn(operand(m, env, params))
    if isinstance(expr, SyncVar):
        name = expr.name

        def run_sync(m, env, params):
            raise InterpError(
                f"SyncVar {name!r} in a device program (sync vars "
                f"belong to execution specifications)")
        return run_sync
    raise InterpError(f"unknown expression {type(expr).__name__}")


def _compile_state_read(field_name: str, program: Program) -> ExprFn:
    """Specialized scalar-field load: offsets resolved at compile time."""
    decl = program.layout.field(field_name)
    if decl.is_buffer:
        # Malformed IR; defer to the reference path's error.
        return lambda m, env, params: m.state.read_field(field_name)
    off, end = decl.offset, decl.end
    if isinstance(decl.type, IntType) and decl.type.signed:
        half = 1 << (decl.type.bits - 1)
        modulus = 1 << decl.type.bits

        def run_signed(m, env, params):
            raw = int.from_bytes(m.state.data[off:end], "little")
            return raw - modulus if raw >= half else raw
        return run_signed
    return lambda m, env, params: int.from_bytes(m.state.data[off:end],
                                                 "little")


def _compile_buf_load(expr: BufLoad, func_name: str,
                      program: Program) -> ExprFn:
    """Flat-layout buffer load with element geometry pre-resolved; the
    in-struct fast path reads bytes directly, anything else defers to
    the reference accessor so far-OOB faults stay byte-identical."""
    buf = expr.buf
    index_fn = compile_expr(expr.index, func_name, program)
    decl = program.layout.field(buf)
    if not decl.is_buffer:
        return lambda m, env, params: m.state.read_buf(
            buf, index_fn(m, env, params))
    base, esize = decl.offset, decl.type.elem.size
    struct_size = program.layout.size
    signed = decl.type.elem.signed
    half = 1 << (decl.type.elem.bits - 1)
    modulus = 1 << decl.type.elem.bits

    def run_bufload(m, env, params):
        off = base + index_fn(m, env, params) * esize
        if 0 <= off and off + esize <= struct_size:
            raw = int.from_bytes(m.state.data[off:off + esize], "little")
            if signed and raw >= half:
                return raw - modulus
            return raw
        # Far OOB: raise the reference path's DeviceFault verbatim.
        return m.state.read_buf(buf, (off - base) // esize)
    return run_bufload


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

def compile_stmt(stmt: Stmt, func_name: str,
                 program: Program) -> Tuple[StmtFn, StmtFn]:
    """Lower one statement; returns ``(fast, traced)`` variants."""
    if isinstance(stmt, Assign):
        target = stmt.target
        value_fn = compile_expr(stmt.value, func_name, program)

        def run_assign(m, env, params):
            m.cycles += STMT_COST
            env[target] = value_fn(m, env, params)
        return run_assign, run_assign

    if isinstance(stmt, StateStore):
        field_name = stmt.field
        value_fn = compile_expr(stmt.value, func_name, program)
        decl = program.layout.field(field_name)
        if decl.is_buffer or not isinstance(decl.type,
                                            (IntType, FuncPtrType)):
            # Malformed IR; defer to the reference accessor's error.
            def fast_store(m, env, params):
                m.cycles += STMT_COST
                flags = m.flags
                flags.overflow = m.state.write_field(
                    field_name, value_fn(m, env, params))
                flags.last_store_field = field_name
        else:
            # Stored bytes are value modulo 2**bits little-endian for
            # every scalar type; the overflow flag is the declared-range
            # test (funcptr stores never flag, as in the reference).
            off, end, size = decl.offset, decl.end, decl.size
            mask = (1 << (size * 8)) - 1
            if isinstance(decl.type, FuncPtrType):
                def fast_store(m, env, params):
                    m.cycles += STMT_COST
                    value = value_fn(m, env, params)
                    flags = m.flags
                    flags.overflow = False
                    flags.last_store_field = field_name
                    m.state.data[off:end] = (value & mask).to_bytes(
                        size, "little")
            else:
                lo, hi = decl.type.min_value, decl.type.max_value

                def fast_store(m, env, params):
                    m.cycles += STMT_COST
                    value = value_fn(m, env, params)
                    flags = m.flags
                    flags.overflow = not lo <= value <= hi
                    flags.last_store_field = field_name
                    m.state.data[off:end] = (value & mask).to_bytes(
                        size, "little")

        def traced_store(m, env, params):
            m.cycles += STMT_COST
            overflowed = m.state.write_field(field_name,
                                             value_fn(m, env, params))
            flags = m.flags
            flags.overflow = overflowed
            flags.last_store_field = field_name
            stored = m.state.read_field(field_name)
            for sink in m._sinks:
                sink.on_state_store(field_name, stored, overflowed)
        return fast_store, traced_store

    if isinstance(stmt, BufStore):
        buf = stmt.buf
        index_fn = compile_expr(stmt.index, func_name, program)
        value_fn = compile_expr(stmt.value, func_name, program)
        decl = program.layout.field(buf)
        if decl.is_buffer:
            base, esize = decl.offset, decl.type.elem.size
            struct_size = program.layout.size
            emask = (1 << (esize * 8)) - 1

            def fast_bufstore(m, env, params):
                m.cycles += STMT_COST
                off = base + index_fn(m, env, params) * esize
                value = value_fn(m, env, params)
                if 0 <= off and off + esize <= struct_size:
                    m.state.data[off:off + esize] = (
                        value & emask).to_bytes(esize, "little")
                else:
                    # Far OOB: the reference DeviceFault, verbatim.
                    m.state.write_buf(buf, (off - base) // esize, value)
        else:
            def fast_bufstore(m, env, params):
                m.cycles += STMT_COST
                m.state.write_buf(buf, index_fn(m, env, params),
                                  value_fn(m, env, params))

        def traced_bufstore(m, env, params):
            m.cycles += STMT_COST
            index = index_fn(m, env, params)
            value = value_fn(m, env, params)
            m.state.write_buf(buf, index, value)
            for sink in m._sinks:
                sink.on_buf_store(buf, index, value)
        return fast_bufstore, traced_bufstore

    if isinstance(stmt, ExternCall):
        extern_name = stmt.func
        arg_fns = tuple(compile_expr(a, func_name, program)
                        for a in stmt.args)
        dest = stmt.dest

        # Arity-specialized fast paths: DMA helpers run per byte, so the
        # per-call argument list allocation is worth eliding.
        if len(arg_fns) == 1:
            arg0 = arg_fns[0]

            def fast_extern(m, env, params):
                m.cycles += STMT_COST
                fn = m._externs.get(extern_name)
                if fn is None:
                    raise InterpError(
                        f"extern {extern_name!r} is not bound")
                m.cycles += m._extern_cost.get(extern_name,
                                               DEFAULT_EXTERN_COST)
                a0 = arg0(m, env, params)
                value = int(fn(m, a0) or 0)
                for tap in m._taps:
                    tap.on_extern(func_name, extern_name, dest, (a0,),
                                  value)
                if dest is not None:
                    env[dest] = value
        elif len(arg_fns) == 2:
            arg0, arg1 = arg_fns

            def fast_extern(m, env, params):
                m.cycles += STMT_COST
                fn = m._externs.get(extern_name)
                if fn is None:
                    raise InterpError(
                        f"extern {extern_name!r} is not bound")
                m.cycles += m._extern_cost.get(extern_name,
                                               DEFAULT_EXTERN_COST)
                a0 = arg0(m, env, params)
                a1 = arg1(m, env, params)
                value = int(fn(m, a0, a1) or 0)
                for tap in m._taps:
                    tap.on_extern(func_name, extern_name, dest, (a0, a1),
                                  value)
                if dest is not None:
                    env[dest] = value
        else:
            def fast_extern(m, env, params):
                m.cycles += STMT_COST
                fn = m._externs.get(extern_name)
                if fn is None:
                    raise InterpError(
                        f"extern {extern_name!r} is not bound")
                m.cycles += m._extern_cost.get(extern_name,
                                               DEFAULT_EXTERN_COST)
                args = [f(m, env, params) for f in arg_fns]
                value = int(fn(m, *args) or 0)
                for tap in m._taps:
                    tap.on_extern(func_name, extern_name, dest,
                                  tuple(args), value)
                if dest is not None:
                    env[dest] = value

        def traced_extern(m, env, params):
            m.cycles += STMT_COST
            fn = m._externs.get(extern_name)
            if fn is None:
                raise InterpError(f"extern {extern_name!r} is not bound")
            m.cycles += m._extern_cost.get(extern_name,
                                           DEFAULT_EXTERN_COST)
            args = [f(m, env, params) for f in arg_fns]
            value = int(fn(m, *args) or 0)
            for sink in m._taps + m._sinks:
                sink.on_extern(func_name, extern_name, dest,
                               tuple(args), value)
            if dest is not None:
                env[dest] = value
        return fast_extern, traced_extern

    if isinstance(stmt, Intrinsic):
        kind = stmt.kind
        arg_fns = tuple(compile_expr(a, func_name, program)
                        for a in stmt.args)

        def fast_intrinsic(m, env, params):
            # Argument evaluation can fault (OOB load); keep it.
            m.cycles += STMT_COST
            for f in arg_fns:
                f(m, env, params)

        def traced_intrinsic(m, env, params):
            m.cycles += STMT_COST
            values = tuple(f(m, env, params) for f in arg_fns)
            for sink in m._sinks:
                sink.on_intrinsic(kind, values)
        return fast_intrinsic, traced_intrinsic

    raise InterpError(f"unknown statement {type(stmt).__name__}")


# ---------------------------------------------------------------------------
# Terminators
# ---------------------------------------------------------------------------

def compile_terminator(block: BasicBlock, func: Function,
                       program: Program) -> Tuple[TermFn, TermFn]:
    """Lower one terminator; returns ``(fast, traced)`` variants."""
    term = block.terminator
    func_name = func.name
    cost = TERM_COST.get(type(term).__name__, 1)

    if isinstance(term, Goto):
        target = term.target

        def run_goto(m, env, params):
            m.cycles += 1
            return target
        return run_goto, run_goto

    if isinstance(term, Branch):
        cond_fn = compile_expr(term.cond, func_name, program)
        taken, not_taken = term.taken, term.not_taken

        def fast_branch(m, env, params):
            m.cycles += 2
            return taken if cond_fn(m, env, params) else not_taken

        def traced_branch(m, env, params):
            m.cycles += 2
            outcome = bool(cond_fn(m, env, params))
            for sink in m._sinks:
                sink.on_branch(block, outcome)
            return taken if outcome else not_taken
        return fast_branch, traced_branch

    if isinstance(term, Switch):
        scrut_fn = compile_expr(term.scrutinee, func_name, program)
        table = dict(term.table)
        default = term.default
        label = block.label
        #: label -> address, resolved once for the traced TIP payload
        addr_of = {lbl: b.address for lbl, b in func.blocks.items()}

        def fast_switch(m, env, params):
            m.cycles += 3
            value = scrut_fn(m, env, params)
            target = table.get(value, default)
            if not target:
                raise InterpError(
                    f"switch in {func_name}:{label} has no arm "
                    f"for {value} and no default")
            return target

        def traced_switch(m, env, params):
            m.cycles += 3
            value = scrut_fn(m, env, params)
            target = table.get(value, default)
            if not target:
                raise InterpError(
                    f"switch in {func_name}:{label} has no arm "
                    f"for {value} and no default")
            target_addr = addr_of[target]
            for sink in m._sinks:
                sink.on_tip(block, target_addr, "switch")
                sink.on_switch(block, value, target_addr)
            return target
        return fast_switch, traced_switch

    if isinstance(term, Call):
        callee = program.function(term.func)
        arg_fns = tuple(compile_expr(a, func_name, program)
                        for a in term.args)
        dest, cont = term.dest, term.cont

        def fast_call(m, env, params):
            m.cycles += 4
            args = tuple(f(m, env, params) for f in arg_fns)
            result = m._call(callee, args)
            if dest is not None:
                env[dest] = int(result or 0)
            return cont

        def traced_call(m, env, params):
            m.cycles += 4
            args = tuple(f(m, env, params) for f in arg_fns)
            for sink in m._sinks:
                sink.on_call(func, callee)
            result = m._call(callee, args)
            if dest is not None:
                env[dest] = int(result or 0)
            return cont
        return fast_call, traced_call

    if isinstance(term, ICall):
        ptr_field = term.ptr_field
        arg_fns = tuple(compile_expr(a, func_name, program)
                        for a in term.args)
        dest, cont = term.dest, term.cont
        addr_to_func = program.addr_to_func
        functions = program.functions
        device_name = program.name

        def fast_icall(m, env, params):
            m.cycles += 6
            addr = m.state.read_field(ptr_field)
            callee_name = addr_to_func.get(addr)
            if callee_name is None:
                raise DeviceFault(
                    f"indirect call through dev.{ptr_field} to "
                    f"non-code address {addr:#x}",
                    device=device_name, kind="wild-jump")
            args = tuple(f(m, env, params) for f in arg_fns)
            result = m._call(functions[callee_name], args)
            if dest is not None:
                env[dest] = int(result or 0)
            return cont

        def traced_icall(m, env, params):
            m.cycles += 6
            addr = m.state.read_field(ptr_field)
            callee_name = addr_to_func.get(addr)
            for sink in m._sinks:
                sink.on_tip(block, addr, "icall")
            if callee_name is None:
                raise DeviceFault(
                    f"indirect call through dev.{ptr_field} to "
                    f"non-code address {addr:#x}",
                    device=device_name, kind="wild-jump")
            args = tuple(f(m, env, params) for f in arg_fns)
            result = m._call(functions[callee_name], args)
            if dest is not None:
                env[dest] = int(result or 0)
            return cont
        return fast_icall, traced_icall

    if isinstance(term, Return):
        if term.value is None:
            def fast_ret_void(m, env, params):
                m.cycles += 2
                return None

            def traced_ret_void(m, env, params):
                m.cycles += 2
                for sink in m._sinks:
                    sink.on_return(func)
                return None
            return fast_ret_void, traced_ret_void

        value_fn = compile_expr(term.value, func_name, program)

        def fast_ret(m, env, params):
            m.cycles += 2
            env["__retval__"] = value_fn(m, env, params)
            return None

        def traced_ret(m, env, params):
            m.cycles += 2
            value = value_fn(m, env, params)
            for sink in m._sinks:
                sink.on_return(func)
            env["__retval__"] = value
            return None
        return fast_ret, traced_ret

    raise InterpError(f"unknown terminator {type(term).__name__}")


# ---------------------------------------------------------------------------
# Blocks / functions / programs
# ---------------------------------------------------------------------------

class CompiledBlock:
    """One block's pre-dispatched bodies plus the IR handles sinks need."""

    __slots__ = ("fast", "traced", "func", "block")

    def __init__(self, fast: TermFn, traced: TermFn,
                 func: Function, block: BasicBlock):
        self.fast = fast
        self.traced = traced
        self.func = func
        self.block = block


def _chain(stmt_fns: List[StmtFn], term_fn: TermFn) -> TermFn:
    """Fuse a block body into one closure: stmts then terminator.
    Short bodies (the common case) unroll into direct calls."""
    if not stmt_fns:
        return term_fn
    if len(stmt_fns) == 1:
        s0 = stmt_fns[0]

        def run1(m, env, params):
            s0(m, env, params)
            return term_fn(m, env, params)
        return run1
    if len(stmt_fns) == 2:
        s0, s1 = stmt_fns

        def run2(m, env, params):
            s0(m, env, params)
            s1(m, env, params)
            return term_fn(m, env, params)
        return run2
    fns = tuple(stmt_fns)

    def run(m, env, params):
        for fn in fns:
            fn(m, env, params)
        return term_fn(m, env, params)
    return run


class CompiledFunction:
    """Closure-compiled CFG of one device routine."""

    __slots__ = ("name", "params", "entry", "blocks")

    def __init__(self, func: Function, program: Program):
        self.name = func.name
        self.params = func.params
        self.entry = func.entry
        self.blocks: Dict[str, CompiledBlock] = {}
        for label, block in func.blocks.items():
            fast_stmts, traced_stmts = [], []
            for stmt in block.stmts:
                fast, traced = compile_stmt(stmt, func.name, program)
                fast_stmts.append(fast)
                traced_stmts.append(traced)
            fast_term, traced_term = compile_terminator(block, func,
                                                        program)
            self.blocks[label] = CompiledBlock(
                _chain(fast_stmts, fast_term),
                _chain(traced_stmts, traced_term), func, block)


class CompiledProgram:
    """All compiled functions of one program, keyed for `_call`."""

    __slots__ = ("funcs",)

    def __init__(self, program: Program):
        if not program.frozen:
            raise InterpError("program must be frozen before compilation")
        self.funcs: Dict[str, CompiledFunction] = {
            name: CompiledFunction(func, program)
            for name, func in program.functions.items()
        }


def compiled_program_for(program: Program) -> CompiledProgram:
    """Compile once per program; the artifact is shared by every machine
    (including the per-round speculative machines of co-execution)."""
    cached = getattr(program, "_compiled_backend", None)
    if cached is None:
        cached = CompiledProgram(program)
        program._compiled_backend = cached
    return cached
