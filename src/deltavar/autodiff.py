"""Reverse-mode automatic differentiation on a scalar operation tape.

The tape is a Wengert list: each node records its opcode, the indices of its
arguments, and the local partial derivatives evaluated during the forward
pass. A gradient is one reverse sweep over stored partials. A dense Hessian
is one forward tangent sweep plus one reverse sweep of adjoints and their
tangents (forward-over-reverse), capped at d = 2048. The package's own loss
Hessians are closed-form numpy (models.nll_hessian); the tape serves
user-supplied callables and is the test reference for the vectorized paths.

The primitive set is deliberately small: +, -, *, /, pow, exp, log, tanh,
sin, cos, max. Composite functions are built from these. The module-level
math helpers (exp, log, tanh, sin, cos, maximum) accept both plain floats and
tape variables, so the same scalar code can be evaluated numerically or
recorded for differentiation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import ResourceError, StructuralError

HESSIAN_DIM_CAP = 2048

# opcodes
_CONST = 0
_INPUT = 1
_ADD = 2
_SUB = 3
_MUL = 4
_DIV = 5
_POW = 6   # variable exponent, base must be positive
_POWC = 7  # constant exponent stored in aux
_EXP = 8
_LOG = 9
_TANH = 10
_SIN = 11
_COS = 12
_MAX = 13


class Var:
    """Handle to one tape node. Supports the usual arithmetic operators."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape: "Tape", idx: int):
        self.tape = tape
        self.idx = idx

    @property
    def value(self) -> float:
        return self.tape._vals[self.idx]

    def _coerce(self, other) -> "Var":
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise StructuralError("cannot mix variables from different tapes")
            return other
        return self.tape.const(float(other))

    def __add__(self, other):
        return self.tape._binary(_ADD, self, self._coerce(other))

    def __radd__(self, other):
        return self._coerce(other) + self

    def __sub__(self, other):
        return self.tape._binary(_SUB, self, self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        return self.tape._binary(_MUL, self, self._coerce(other))

    def __rmul__(self, other):
        return self._coerce(other) * self

    def __truediv__(self, other):
        return self.tape._binary(_DIV, self, self._coerce(other))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, other):
        if isinstance(other, Var):
            return self.tape._binary(_POW, self, self._coerce(other))
        return self.tape._powc(self, float(other))

    def __rpow__(self, other):
        return self._coerce(other) ** self

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"Var(idx={self.idx}, value={self.value!r})"


class Tape:
    """Scalar computation tape with reverse-mode differentiation."""

    def __init__(self):
        self._ops: list[int] = []
        self._args: list[tuple[int, ...]] = []
        self._aux: list[float | None] = []
        self._vals: list[float] = []
        self._partials: list[tuple[float, ...]] = []
        self._const_cache: dict[float, int] = {}

    def __len__(self) -> int:
        return len(self._ops)

    # ---- construction -------------------------------------------------

    def _emit(self, op: int, args: tuple[int, ...], value: float,
              partials: tuple[float, ...], aux: float | None = None) -> Var:
        self._ops.append(op)
        self._args.append(args)
        self._aux.append(aux)
        self._vals.append(value)
        self._partials.append(partials)
        return Var(self, len(self._ops) - 1)

    def input(self, value: float) -> Var:
        """Fresh differentiable leaf."""
        return self._emit(_INPUT, (), float(value), ())

    def inputs(self, values: Sequence[float]) -> list[Var]:
        return [self.input(v) for v in values]

    def const(self, value: float) -> Var:
        """Non-differentiable leaf; identical constants share one node."""
        value = float(value)
        idx = self._const_cache.get(value)
        if idx is None:
            var = self._emit(_CONST, (), value, ())
            self._const_cache[value] = var.idx
            return var
        return Var(self, idx)

    def _check(self, var: Var) -> None:
        if not isinstance(var, Var) or var.tape is not self:
            raise StructuralError("variable does not belong to this tape")

    def _binary(self, op: int, a: Var, b: Var) -> Var:
        va, vb = self._vals[a.idx], self._vals[b.idx]
        if op == _ADD:
            return self._emit(op, (a.idx, b.idx), va + vb, (1.0, 1.0))
        if op == _SUB:
            return self._emit(op, (a.idx, b.idx), va - vb, (1.0, -1.0))
        if op == _MUL:
            return self._emit(op, (a.idx, b.idx), va * vb, (vb, va))
        if op == _DIV:
            out = va / vb
            return self._emit(op, (a.idx, b.idx), out, (1.0 / vb, -out / vb))
        if op == _POW:
            out = va ** vb
            return self._emit(op, (a.idx, b.idx), out,
                              (vb * va ** (vb - 1.0), out * math.log(va)))
        if op == _MAX:
            take_a = va >= vb
            return self._emit(op, (a.idx, b.idx), va if take_a else vb,
                              (1.0, 0.0) if take_a else (0.0, 1.0))
        raise StructuralError(f"unknown binary op {op}")

    def _powc(self, a: Var, exponent: float) -> Var:
        va = self._vals[a.idx]
        out = va ** exponent
        return self._emit(_POWC, (a.idx,), out, (exponent * va ** (exponent - 1.0),),
                          aux=exponent)

    def _unary(self, op: int, a: Var) -> Var:
        va = self._vals[a.idx]
        if op == _EXP:
            out = math.exp(va)
            return self._emit(op, (a.idx,), out, (out,))
        if op == _LOG:
            return self._emit(op, (a.idx,), math.log(va), (1.0 / va,))
        if op == _TANH:
            out = math.tanh(va)
            return self._emit(op, (a.idx,), out, (1.0 - out * out,))
        if op == _SIN:
            return self._emit(op, (a.idx,), math.sin(va), (math.cos(va),))
        if op == _COS:
            return self._emit(op, (a.idx,), math.cos(va), (-math.sin(va),))
        raise StructuralError(f"unknown unary op {op}")

    # ---- differentiation -----------------------------------------------

    def grad(self, root: Var, wrt: Sequence[Var]) -> np.ndarray:
        """d(root)/d(wrt) by one numeric reverse sweep over stored partials."""
        self._check(root)
        for v in wrt:
            self._check(v)
        adj = [0.0] * (root.idx + 1)
        adj[root.idx] = 1.0
        ops, args, partials = self._ops, self._args, self._partials
        for idx in range(root.idx, -1, -1):
            a = adj[idx]
            if a == 0.0:
                continue
            op = ops[idx]
            if op == _CONST or op == _INPUT:
                continue
            node_args = args[idx]
            node_partials = partials[idx]
            if op == _ADD:
                adj[node_args[0]] += a
                adj[node_args[1]] += a
            elif op == _SUB:
                adj[node_args[0]] += a
                adj[node_args[1]] -= a
            elif op == _MUL or op == _DIV or op == _POW or op == _MAX:
                adj[node_args[0]] += a * node_partials[0]
                adj[node_args[1]] += a * node_partials[1]
            else:
                adj[node_args[0]] += a * node_partials[0]
        out = np.empty(len(wrt), dtype=np.float64)
        for i, v in enumerate(wrt):
            out[i] = adj[v.idx] if v.idx <= root.idx else 0.0
        return out

    def _second_partials(self, idx: int):
        """Rows h[k][m] = d2 node / d arg_k d arg_m of node idx, or None where
        all vanish (add, sub, and max with its branch frozen as recorded)."""
        op, args, out = self._ops[idx], self._args[idx], self._vals[idx]
        a = self._vals[args[0]] if args else 0.0
        if op == _MUL:
            return ((0.0, 1.0), (1.0, 0.0))
        if op == _DIV:
            b2 = self._vals[args[1]] ** 2
            return ((0.0, -1.0 / b2), (-1.0 / b2, 2.0 * out / b2))
        if op == _POW:
            b, log_a = self._vals[args[1]], math.log(a)
            cross = out * (1.0 + b * log_a) / a
            return ((out * b * (b - 1.0) / (a * a), cross),
                    (cross, out * log_a * log_a))
        if op == _POWC:
            c = self._aux[idx]
            return ((c * (c - 1.0) * a ** (c - 2.0),),)
        if op == _EXP:
            return ((out,),)
        if op == _LOG:
            return ((-1.0 / (a * a),),)
        if op == _TANH:
            return ((-2.0 * out * (1.0 - out * out),),)
        if op == _SIN:
            return ((-math.sin(a),),)
        if op == _COS:
            return ((-math.cos(a),),)
        return None

    def hessian(self, root: Var, wrt: Sequence[Var]) -> np.ndarray:
        """Dense Hessian of root by forward-over-reverse differentiation.

        One forward sweep carries tangents along all len(wrt) input
        directions at once; one reverse sweep then carries each adjoint with
        its tangent (Pearlmutter's R-op), and the adjoint tangents at the
        inputs are the Hessian rows. `wrt` must be input leaves; memory is
        two (tape length, len(wrt)) float arrays.
        """
        self._check(root)
        d = len(wrt)
        if d > HESSIAN_DIM_CAP:
            raise ResourceError(
                f"dense Hessian of dimension {d} exceeds the cap of {HESSIAN_DIM_CAP}")
        ops, args, partials = self._ops, self._args, self._partials
        dot, adj_dot = np.zeros((len(ops), d)), np.zeros((len(ops), d))
        adj = np.zeros(len(ops))
        for j, v in enumerate(wrt):
            self._check(v)
            if ops[v.idx] != _INPUT:
                raise StructuralError("Hessians are taken with respect to input leaves")
            dot[v.idx, j] = 1.0
        for idx in range(root.idx + 1):
            if ops[idx] != _CONST and ops[idx] != _INPUT:
                dot[idx] = sum(p * dot[a] for a, p in zip(args[idx], partials[idx]))
        adj[root.idx] = 1.0
        for idx in range(root.idx, -1, -1):
            a, a_dot = adj[idx], adj_dot[idx]
            if ops[idx] == _CONST or ops[idx] == _INPUT or (
                    a == 0.0 and not a_dot.any()):
                continue
            second = self._second_partials(idx)
            for k, arg in enumerate(args[idx]):
                adj[arg] += a * partials[idx][k]
                adj_dot[arg] += partials[idx][k] * a_dot
                if second is not None:
                    adj_dot[arg] += a * sum(
                        h * dot[m] for h, m in zip(second[k], args[idx]))
        return adj_dot[[v.idx for v in wrt]].reshape(d, d)


# ---- generic scalar math: works on floats and on tape variables ---------

def _dispatch(op: int, x):
    if isinstance(x, Var):
        return x.tape._unary(op, x)
    x = float(x)
    if op == _EXP:
        return math.exp(x)
    if op == _LOG:
        return math.log(x)
    if op == _TANH:
        return math.tanh(x)
    if op == _SIN:
        return math.sin(x)
    if op == _COS:
        return math.cos(x)
    raise StructuralError(f"unknown op {op}")


def exp(x):
    return _dispatch(_EXP, x)


def log(x):
    return _dispatch(_LOG, x)


def tanh(x):
    return _dispatch(_TANH, x)


def sin(x):
    return _dispatch(_SIN, x)


def cos(x):
    return _dispatch(_COS, x)


def maximum(a, b):
    """max(a, b); ties take the first argument (fixed subgradient choice)."""
    if isinstance(a, Var) or isinstance(b, Var):
        tape = a.tape if isinstance(a, Var) else b.tape
        a = a if isinstance(a, Var) else tape.const(float(a))
        b = b if isinstance(b, Var) else tape.const(float(b))
        return tape._binary(_MAX, a, b)
    return a if a >= b else b


# ---- parameter vectors ----------------------------------------------------

@dataclass(frozen=True)
class ParameterVector:
    """Flat float64 parameter vector plus a named block layout.

    Blocks are (name, start, length) triples forming a contiguous partition
    of [0, len(data)).
    """

    data: np.ndarray
    blocks: tuple[tuple[str, int, int], ...]

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise StructuralError("parameter vector must be 1-d and non-empty")
        if not np.all(np.isfinite(arr)):
            raise StructuralError("parameter vector contains non-finite values")
        object.__setattr__(self, "data", arr)
        blocks = tuple((str(n), int(s), int(l)) for n, s, l in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        names = [b[0] for b in blocks]
        if len(set(names)) != len(names):
            raise StructuralError("duplicate block names")
        cursor = 0
        for name, start, length in blocks:
            if start != cursor or length <= 0:
                raise StructuralError(
                    f"blocks must partition [0, {arr.size}) contiguously; "
                    f"block {name!r} starts at {start}, expected {cursor}")
            cursor += length
        if cursor != arr.size:
            raise StructuralError(
                f"blocks cover [0, {cursor}) but the vector has length {arr.size}")

    @property
    def dim(self) -> int:
        return self.data.size

    def replace_data(self, data) -> "ParameterVector":
        arr = np.asarray(data, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise StructuralError(
                f"replacement data has shape {arr.shape}, expected {self.data.shape}")
        return ParameterVector(arr, self.blocks)
