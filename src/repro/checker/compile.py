"""Closure compiler for execution specifications: the ES-Checker's fast
backend.

The reference :class:`~repro.checker.escheck._Walker` re-dispatches on IR
node types for every DSOD statement of every I/O round, and re-derives
every check table (one-sided-branch verdicts, legitimate icall/switch
targets, command-access rows) through ``self.spec.*`` lookups per site per
round.  This module lowers the whole spec once, at spec load:

* every DSOD expression/statement and every NBTD becomes a pre-dispatched
  closure (zero ``isinstance`` tests on the walk);
* every check table is resolved per site at compile time — the branch
  check captures its one-sided verdict, the indirect-jump and switch
  checks capture ``frozenset`` rows, the command gate captures the
  inverted command-access row for its block, and the parameter check
  captures the declared range predicate and type name per field.

What stays runtime-dynamic, deliberately: the enabled strategy set (one
compiled spec serves checkers with different strategy configurations — the
ablation benches rely on that), the sync oracle, and the scratch shadow
state, all carried by the per-round :class:`_WalkContext`.

Anomaly messages, counter values, and stop semantics replicate the
reference walker bit-for-bit; ``tests/checker/test_backend_diff.py``
holds both backends to that across all five devices and every CVE PoC.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CheckerError, DeviceFault
from repro.checker.anomalies import Anomaly, Strategy
from repro.interp.ops import binop_fn, unop_fn
from repro.ir import (
    Assign, BinOp, Branch, BufLen, BufLoad, BufStore, Call, Const, Expr,
    FuncPtrType, Goto, ICall, Intrinsic, IntType, Local, Param, Return,
    StateRef, StateStore, Stmt, Switch, SyncVar, UnOp,
)
from repro.spec.escfg import ESBlock, ESFunction, ExecutionSpec

#: ``(w, env, params) -> int`` over a :class:`_WalkContext`.
ExprFn = Callable[..., int]

#: NBTD result tags: a plain ``str`` is the next label; tuples carry
#: call/return transfers for the driver's explicit stack.
_CALL = "c"
_RET = "r"


class _WalkStop(Exception):
    """Internal: the walk cannot or need not continue.

    Duplicated from :mod:`repro.checker.escheck` (which imports *this*
    module) — the checker catches both via a shared tuple alias.
    """

    def __init__(self, incomplete: bool = False):
        self.incomplete = incomplete


class _WalkContext:
    """Per-round mutable state threaded through the compiled closures.

    A checker keeps one context for its life and :meth:`reset` rearms it
    at the top of every round."""

    __slots__ = ("checker", "report", "state", "oracle", "strategies",
                 "param_on", "ijump_on", "cond_on", "current_address",
                 "current_cmd", "blocks", "dsod", "pchecks", "ichecks",
                 "cchecks")

    def __init__(self, checker, report, state, oracle):
        self.checker = checker
        self.strategies = checker.strategies
        self.param_on = Strategy.PARAMETER in checker.strategies
        self.ijump_on = Strategy.INDIRECT_JUMP in checker.strategies
        self.cond_on = Strategy.CONDITIONAL_JUMP in checker.strategies
        self.reset(report, state, oracle)

    def reset(self, report, state, oracle) -> None:
        """Rearm for a new round: the strategy toggles are fixed per
        checker, everything else starts over."""
        self.report = report
        self.state = state
        self.oracle = oracle
        self.current_address = 0
        self.current_cmd: Optional[int] = None
        self.blocks = self.dsod = 0
        # Check-site executions per enabled strategy; flushed into the
        # report with the walk counters (mirrors the reference walker's
        # direct report increments).
        self.pchecks = self.ichecks = self.cchecks = 0


def _flag(w: _WalkContext, strategy: Strategy, kind: str, message: str,
          address: int) -> bool:
    """Record an anomaly if its strategy is enabled (mirrors
    ``ESChecker._flag``)."""
    if strategy not in w.strategies:
        return False
    w.report.anomalies.append(Anomaly(
        strategy=strategy, kind=kind, message=message,
        block_address=address, io_key=w.report.io_key))
    return True


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

def _compile_expr(expr: Expr, spec: ExecutionSpec,
                  block_address: int) -> ExprFn:
    """Lower one ES expression; *block_address* anchors anomaly reports
    (the reference walker's ``current_address`` equals the executing
    block's address throughout that block's DSOD and NBTD)."""
    if isinstance(expr, Const):
        value = expr.value
        return lambda w, env, params: value
    if isinstance(expr, Param):
        name = expr.name

        def run_param(w, env, params):
            try:
                return params[name]
            except KeyError:
                raise CheckerError(
                    f"missing I/O parameter {name!r}") from None
        return run_param
    if isinstance(expr, Local):
        name = expr.name

        def run_local(w, env, params):
            try:
                return env[name]
            except KeyError:
                raise CheckerError(
                    f"ES local {name!r} undefined (slice gap)") from None
        return run_local
    if isinstance(expr, StateRef):
        return _compile_state_read(expr.field, spec)
    if isinstance(expr, BufLoad):
        return _compile_buf_load(expr, spec, block_address)
    if isinstance(expr, BufLen):
        length = expr.length
        return lambda w, env, params: length
    if isinstance(expr, SyncVar):
        name = expr.name
        return lambda w, env, params: w.oracle.resolve(name)
    if isinstance(expr, BinOp):
        fn = binop_fn(expr.op)
        left = _compile_expr(expr.left, spec, block_address)
        right = _compile_expr(expr.right, spec, block_address)
        if isinstance(expr.left, Const) and isinstance(expr.right, Const):
            try:
                folded = fn(expr.left.value, expr.right.value)
            except DeviceFault:
                pass    # div0 must stay a runtime fault
            else:
                return lambda w, env, params: folded
        return lambda w, env, params: fn(left(w, env, params),
                                         right(w, env, params))
    if isinstance(expr, UnOp):
        fn = unop_fn(expr.op)
        operand = _compile_expr(expr.operand, spec, block_address)
        return lambda w, env, params: fn(operand(w, env, params))
    kind = type(expr).__name__

    def run_unknown(w, env, params):
        raise CheckerError(f"cannot evaluate {kind}")
    return run_unknown


def _compile_state_read(field_name: str, spec: ExecutionSpec) -> ExprFn:
    """Specialized shadow-state scalar load (offsets fixed at compile)."""
    decl = spec.layout.field(field_name)
    if decl.is_buffer:
        return lambda w, env, params: w.state.read_field(field_name)
    off, end = decl.offset, decl.end
    if isinstance(decl.type, IntType) and decl.type.signed:
        half = 1 << (decl.type.bits - 1)
        modulus = 1 << decl.type.bits

        def run_signed(w, env, params):
            raw = int.from_bytes(w.state.memory.data[off:end], "little")
            return raw - modulus if raw >= half else raw
        return run_signed
    return lambda w, env, params: int.from_bytes(
        w.state.memory.data[off:end], "little")


def _index_is_state_derived(index: Expr) -> bool:
    """The paper's parameter-check scope (same rule as the reference
    walker): constant indices and device-state-derived indices are in
    scope; temporary-local cursors are the indirect-jump check's job."""
    if isinstance(index, Const):
        return True
    return bool(index.state_refs())


def _compile_buf_load(expr: BufLoad, spec: ExecutionSpec,
                      block_address: int) -> ExprFn:
    buf = expr.buf
    index_fn = _compile_expr(expr.index, spec, block_address)
    decl = spec.layout.field(buf)
    length = decl.type.length
    # Flat-layout load, fully specialized: base offset and element
    # geometry are compile-time constants; leaving the struct entirely
    # (the reference path's DeviceFault) becomes a direct _WalkStop.
    base, esize = decl.offset, decl.type.elem.size
    struct_size = spec.layout.size
    signed = decl.type.elem.signed
    half = 1 << (decl.type.elem.bits - 1)
    modulus = 1 << decl.type.elem.bits
    checked = _index_is_state_derived(expr.index)

    def run_load(w, env, params):
        index = index_fn(w, env, params)
        if checked and w.param_on:
            w.pchecks += 1
            if not 0 <= index < length:
                _flag(w, Strategy.PARAMETER, "buffer-overflow",
                      f"read at dev.{buf}[{index}] is outside the "
                      f"buffer's {length} elements", block_address)
                raise _WalkStop()
        off = base + index * esize
        if off < 0 or off + esize > struct_size:
            # Far OOB: the shadow cannot follow (segfault analogue).
            raise _WalkStop(incomplete=True)
        raw = int.from_bytes(w.state.memory.data[off:off + esize],
                             "little")
        if signed and raw >= half:
            return raw - modulus
        return raw
    return run_load


# ---------------------------------------------------------------------------
# DSOD statements
# ---------------------------------------------------------------------------

def _compile_set_command(spec: ExecutionSpec,
                         block_address: int) -> Callable[..., None]:
    """Command-decision resolution with the known-command row frozen."""
    known = spec.cmd_access.known_commands()

    def set_command(w, cmd):
        if w.cond_on:
            w.cchecks += 1
        if cmd not in known:
            recorded = _flag(
                w, Strategy.CONDITIONAL_JUMP, "unknown-command",
                f"command {cmd:#x} never observed in training",
                block_address)
            raise _WalkStop(incomplete=not recorded)
        w.current_cmd = cmd
    return set_command


def _compile_dsod_stmt(stmt: Stmt, spec: ExecutionSpec,
                       block: ESBlock) -> Callable[..., None]:
    address = block.address

    if isinstance(stmt, Assign):
        target = stmt.target
        value_fn = _compile_expr(stmt.value, spec, address)

        def run_assign(w, env, params):
            w.dsod += 1
            env[target] = value_fn(w, env, params)
        return run_assign

    if isinstance(stmt, StateStore):
        field_name = stmt.field
        value_fn = _compile_expr(stmt.value, spec, address)
        decl = spec.layout.field(field_name)
        type_name = str(decl.type)
        if isinstance(decl.type, FuncPtrType):
            lo, hi = 0, (1 << 64) - 1
        elif isinstance(decl.type, IntType):
            lo, hi = decl.type.min_value, decl.type.max_value
        else:
            # Malformed spec (store to a buffer field): defer to the
            # shadow state's own SpecError, like the reference walker.
            def run_store_malformed(w, env, params):
                w.dsod += 1
                value = value_fn(w, env, params)
                if w.param_on:
                    w.pchecks += 1
                    if not w.state.in_range(field_name, value):
                        raise AssertionError("unreachable")
                w.state.write_field(field_name, value)
            return run_store_malformed

        # Stored bytes are the value modulo 2**bits little-endian for
        # every scalar type (two's complement), so the store compiles
        # to one masked to_bytes — no wrap object, no layout lookup.
        off, end, size = decl.offset, decl.end, decl.size
        mask = (1 << (size * 8)) - 1

        def run_store(w, env, params):
            w.dsod += 1
            value = value_fn(w, env, params)
            if w.param_on:
                w.pchecks += 1
                if not lo <= value <= hi:
                    _flag(w, Strategy.PARAMETER, "integer-overflow",
                          f"storing {value} into dev.{field_name} "
                          f"({type_name}) overflows its declared range",
                          address)
                    raise _WalkStop()
            w.state.memory.data[off:end] = (value & mask).to_bytes(
                size, "little")
        return run_store

    if isinstance(stmt, BufStore):
        buf = stmt.buf
        index_fn = _compile_expr(stmt.index, spec, address)
        value_fn = _compile_expr(stmt.value, spec, address)
        checked = _index_is_state_derived(stmt.index)
        decl = spec.layout.field(buf)
        length = decl.type.length
        base, esize = decl.offset, decl.type.elem.size
        struct_size = spec.layout.size
        emask = (1 << (esize * 8)) - 1

        def run_bufstore(w, env, params):
            w.dsod += 1
            index = index_fn(w, env, params)
            value = value_fn(w, env, params)
            if checked and w.param_on:
                w.pchecks += 1
                if not 0 <= index < length:
                    _flag(w, Strategy.PARAMETER, "buffer-overflow",
                          f"write at dev.{buf}[{index}] is outside the "
                          f"buffer's {length} elements", address)
                    raise _WalkStop()
            # Flat-layout shadow: near-OOB corrupts the same neighbour
            # the real device would (prediction!).  Leaving the struct
            # entirely with the check disabled is the segfault analogue:
            # the shadow cannot follow, walk ends unresolved.
            off = base + index * esize
            if off < 0 or off + esize > struct_size:
                raise _WalkStop(incomplete=True)
            w.state.memory.data[off:off + esize] = (
                value & emask).to_bytes(esize, "little")
        return run_bufstore

    if isinstance(stmt, Intrinsic):
        if stmt.kind == "command_decision" and stmt.args:
            cmd_fn = _compile_expr(stmt.args[0], spec, address)
            set_command = _compile_set_command(spec, address)

            def run_decision(w, env, params):
                w.dsod += 1
                set_command(w, cmd_fn(w, env, params))
            return run_decision
        if stmt.kind == "command_end":
            def run_end(w, env, params):
                w.dsod += 1
                w.current_cmd = None
            return run_end

        def run_noop(w, env, params):
            w.dsod += 1
        return run_noop

    kind = type(stmt).__name__

    def run_unknown(w, env, params):
        w.dsod += 1
        raise CheckerError(f"unexpected DSOD statement {kind}")
    return run_unknown


# ---------------------------------------------------------------------------
# NBTD terminators
# ---------------------------------------------------------------------------

def _compile_nbtd(block: ESBlock, func: ESFunction, spec: ExecutionSpec,
                  link: Dict[str, "CompiledESFunction"]):
    """Lower the block's NBTD with its check tables resolved per site."""
    nbtd = block.nbtd
    address = block.address

    if isinstance(nbtd, Goto):
        target = nbtd.target
        return lambda w, env, params: target

    if isinstance(nbtd, Branch):
        cond_fn = _compile_expr(nbtd.cond, spec, address)
        taken, not_taken = nbtd.taken, nbtd.not_taken
        one_sided = spec.branch_is_one_sided(address)

        if one_sided is None:
            return lambda w, env, params: (
                taken if cond_fn(w, env, params) else not_taken)

        def run_one_sided(w, env, params):
            outcome = bool(cond_fn(w, env, params))
            if w.cond_on:
                w.cchecks += 1
            if outcome != one_sided:
                recorded = _flag(
                    w, Strategy.CONDITIONAL_JUMP, "unobserved-branch",
                    f"branch at {address:#x} took its never-trained "
                    f"side ({'taken' if outcome else 'not taken'})",
                    address)
                raise _WalkStop(incomplete=not recorded)
            return taken if outcome else not_taken
        return run_one_sided

    if isinstance(nbtd, Switch):
        scrut_fn = _compile_expr(nbtd.scrutinee, spec, address)
        table = dict(nbtd.table)
        default = nbtd.default
        legit = spec.frozen_switch_targets(address)
        addr_of = {lbl: b.address for lbl, b in func.blocks.items()}
        is_cmd_decision = block.is_cmd_decision
        set_command = (_compile_set_command(spec, address)
                       if is_cmd_decision else None)

        def run_switch(w, env, params):
            value = scrut_fn(w, env, params)
            if is_cmd_decision:
                # Auto-detected dispatch: the scrutinee names the command.
                set_command(w, value)
            if w.cond_on:
                w.cchecks += 1
            label = table.get(value, default)
            if not label:
                recorded = _flag(
                    w, Strategy.CONDITIONAL_JUMP, "unobserved-arm",
                    f"switch at {address:#x} has no arm for {value}",
                    address)
                raise _WalkStop(incomplete=not recorded)
            if legit:
                if w.cond_on:
                    w.cchecks += 1
                if addr_of.get(label) not in legit:
                    recorded = _flag(
                        w, Strategy.CONDITIONAL_JUMP, "unobserved-arm",
                        f"switch arm for {value} at {address:#x} was "
                        f"never observed in training", address)
                    raise _WalkStop(incomplete=not recorded)
            return label
        return run_switch

    if isinstance(nbtd, Call):
        arg_fns = tuple(_compile_expr(a, spec, address) for a in nbtd.args)
        cont, dest = nbtd.cont, nbtd.dest
        name = nbtd.func
        if not spec.has_function(name):
            def run_untrained_call(w, env, params):
                recorded = _flag(
                    w, Strategy.CONDITIONAL_JUMP, "unobserved-path",
                    f"call into {name}, which no training run executed",
                    address)
                raise _WalkStop(incomplete=not recorded)
            return run_untrained_call
        callee = link[name]

        def run_call(w, env, params):
            cargs = tuple(f(w, env, params) for f in arg_fns)
            return (_CALL, callee, cargs, cont, dest)
        return run_call

    if isinstance(nbtd, ICall):
        ptr_field = nbtd.ptr_field
        arg_fns = tuple(_compile_expr(a, spec, address) for a in nbtd.args)
        cont, dest = nbtd.cont, nbtd.dest
        legit = spec.frozen_icall_targets(address)
        #: addr -> compiled callee, only for legitimised+trained targets
        by_addr = {
            addr: link[fname]
            for addr, fname in ((a, spec.addr_to_func.get(a))
                                for a in legit)
            if fname is not None and fname in link
        }

        def run_icall(w, env, params):
            if w.ijump_on:
                w.ichecks += 1
            ptr = w.state.read_field(ptr_field)
            if ptr not in legit:
                recorded = _flag(
                    w, Strategy.INDIRECT_JUMP, "illegal-target",
                    f"dev.{ptr_field} points at {ptr:#x}, not a "
                    f"legitimate target of this call site", address)
                raise _WalkStop(incomplete=not recorded)
            callee = by_addr.get(ptr)
            if callee is None:
                # Target legitimised but its body never trained — cannot
                # simulate further.
                raise _WalkStop(incomplete=True)
            cargs = tuple(f(w, env, params) for f in arg_fns)
            return (_CALL, callee, cargs, cont, dest)
        return run_icall

    if isinstance(nbtd, Return):
        if nbtd.value is None:
            return lambda w, env, params: (_RET, 0)
        value_fn = _compile_expr(nbtd.value, spec, address)
        return lambda w, env, params: (_RET, value_fn(w, env, params))

    label = block.label

    def run_missing(w, env, params):
        raise CheckerError(f"ES block {label} has no NBTD")
    return run_missing


# ---------------------------------------------------------------------------
# Blocks / functions / the compiled spec
# ---------------------------------------------------------------------------

class CompiledESBlock:
    """One ES block: fused DSOD+NBTD closure plus frozen gate rows."""

    __slots__ = ("address", "is_cmd_end", "is_cmd_decision", "gate_cmds",
                 "run")

    def __init__(self, block: ESBlock, func: ESFunction,
                 spec: ExecutionSpec,
                 link: Dict[str, "CompiledESFunction"]):
        self.address = block.address
        self.is_cmd_end = block.is_cmd_end
        self.is_cmd_decision = block.is_cmd_decision
        #: inverted command-access row, resolved once at spec load
        self.gate_cmds = spec.cmd_access.commands_allowing(block.address)
        dsod_fns = [_compile_dsod_stmt(s, spec, block) for s in block.dsod]
        nbtd_fn = _compile_nbtd(block, func, spec, link)
        self.run = _chain(dsod_fns, nbtd_fn)


def _chain(dsod_fns: List[Callable], nbtd_fn):
    if not dsod_fns:
        return nbtd_fn
    fns = tuple(dsod_fns)

    def run(w, env, params):
        for fn in fns:
            fn(w, env, params)
        return nbtd_fn(w, env, params)
    return run


class CompiledESFunction:
    """Closure-compiled ES-CFG of one trained routine."""

    __slots__ = ("name", "params", "entry", "blocks")

    def __init__(self, func: ESFunction):
        self.name = func.name
        self.params = func.params
        self.entry = func.entry
        self.blocks: Dict[str, CompiledESBlock] = {}

    def _fill(self, func: ESFunction, spec: ExecutionSpec,
              link: Dict[str, "CompiledESFunction"]) -> None:
        for label, block in func.blocks.items():
            self.blocks[label] = CompiledESBlock(block, func, spec, link)


class CompiledSpec:
    """The whole execution specification, lowered to closures."""

    def __init__(self, spec: ExecutionSpec):
        # Two passes: shells first so call sites can link cyclic CFGs.
        self.funcs: Dict[str, CompiledESFunction] = {
            name: CompiledESFunction(func)
            for name, func in spec.functions.items()
        }
        for name, func in spec.functions.items():
            self.funcs[name]._fill(func, spec, self.funcs)

    def run(self, w: _WalkContext, cfunc: CompiledESFunction,
            args: Tuple[int, ...]) -> Optional[int]:
        """One I/O round's walk; counters flush even on early stops."""
        try:
            return self._run(w, cfunc, args)
        finally:
            report = w.report
            report.blocks_walked += w.blocks
            report.dsod_stmts_executed += w.dsod
            report.param_checks += w.pchecks
            report.indirect_checks += w.ichecks
            report.conditional_checks += w.cchecks

    def _run(self, w: _WalkContext, cfunc: CompiledESFunction,
             args: Tuple[int, ...]) -> Optional[int]:
        env: Dict[str, int] = {}
        params = dict(zip(cfunc.params, args))
        blocks = cfunc.blocks
        label = cfunc.entry
        stack: List[tuple] = []
        max_blocks = w.checker.max_walk_blocks
        while True:
            cblock = blocks.get(label)
            if cblock is None:
                recorded = _flag(
                    w, Strategy.CONDITIONAL_JUMP, "unobserved-path",
                    f"transition into {cfunc.name}:{label} was never "
                    f"observed in training", w.current_address)
                raise _WalkStop(incomplete=not recorded)
            w.current_address = cblock.address
            w.blocks += 1
            if w.blocks > max_blocks:
                _flag(w, Strategy.CONDITIONAL_JUMP, "walk-watchdog",
                      "specification walk exceeded block budget",
                      w.current_address)
                raise _WalkStop()
            # Command access gate (Algorithm 1's cmd_act), inverted row.
            if cblock.is_cmd_end:
                w.current_cmd = None
            cmd = w.current_cmd
            if cmd is not None and not cblock.is_cmd_decision:
                if w.cond_on:
                    w.cchecks += 1
                if cmd not in cblock.gate_cmds:
                    recorded = _flag(
                        w, Strategy.CONDITIONAL_JUMP, "command-access",
                        f"block {cblock.address:#x} is not accessible "
                        f"under command {cmd:#x}", cblock.address)
                    raise _WalkStop(incomplete=not recorded)

            result = cblock.run(w, env, params)
            if type(result) is str:
                label = result
            elif result[0] is _CALL:
                _, callee, cargs, cont, dest = result
                stack.append((env, params, blocks, cfunc, cont, dest))
                cfunc = callee
                blocks = callee.blocks
                env = {}
                params = dict(zip(callee.params, cargs))
                label = callee.entry
            else:   # _RET
                value = result[1]
                if not stack:
                    return value
                env, params, blocks, cfunc, cont, dest = stack.pop()
                label = cont
                if dest is not None:
                    env[dest] = value


def compiled_spec_for(spec: ExecutionSpec) -> CompiledSpec:
    """Compile once per spec object; shared by every checker deployed on
    it (benchmark conftests cache specs across modules, so this amortizes
    to one compile per device per session)."""
    cached = getattr(spec, "_compiled_backend", None)
    if cached is None:
        cached = CompiledSpec(spec)
        spec._compiled_backend = cached
    return cached
