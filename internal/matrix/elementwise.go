package matrix

import (
	"fmt"
	"math"
)

// BinaryOp identifies an element-wise binary operation. The set mirrors the
// binary federated instructions of ExDRa Table 1.
type BinaryOp int

// Supported element-wise binary operations.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpMin
	OpMax
	OpMod
	OpIntDiv
	OpEq
	OpNe
	OpGt
	OpGe
	OpLt
	OpLe
	OpAnd
	OpOr
	OpXor
	OpLog // log_b(a): log of a with base b
)

// String returns the DML-style opcode for the operation.
func (op BinaryOp) String() string {
	names := [...]string{"+", "-", "*", "/", "^", "min", "max", "%%", "%/%",
		"==", "!=", ">", ">=", "<", "<=", "&", "|", "xor", "log"}
	if int(op) < len(names) {
		return names[op]
	}
	return fmt.Sprintf("binop(%d)", int(op))
}

func (op BinaryOp) apply(a, b float64) float64 {
	switch op {
	case OpAdd:
		return a + b
	case OpSub:
		return a - b
	case OpMul:
		return a * b
	case OpDiv:
		return a / b
	case OpPow:
		return math.Pow(a, b)
	case OpMin:
		return math.Min(a, b)
	case OpMax:
		return math.Max(a, b)
	case OpMod:
		return math.Mod(a, b)
	case OpIntDiv:
		return math.Floor(a / b)
	case OpEq:
		return b2f(a == b)
	case OpNe:
		return b2f(a != b)
	case OpGt:
		return b2f(a > b)
	case OpGe:
		return b2f(a >= b)
	case OpLt:
		return b2f(a < b)
	case OpLe:
		return b2f(a <= b)
	case OpAnd:
		return b2f(a != 0 && b != 0)
	case OpOr:
		return b2f(a != 0 || b != 0)
	case OpXor:
		return b2f((a != 0) != (b != 0))
	case OpLog:
		return math.Log(a) / math.Log(b)
	default:
		panic("matrix: unknown binary op")
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Binary applies op cell-wise with R-style broadcasting: b may have the same
// shape as m, be a column vector (rows x 1), a row vector (1 x cols), or a
// 1x1 scalar.
func (m *Dense) Binary(op BinaryOp, b *Dense) *Dense {
	out := NewDense(m.rows, m.cols)
	switch {
	case b.rows == m.rows && b.cols == m.cols:
		parallelFor(len(m.data), 1, func(lo, hi int) {
			op.applyVV(out.data[lo:hi], m.data[lo:hi], b.data[lo:hi])
		})
	case b.rows == 1 && b.cols == 1:
		return m.BinaryScalar(op, b.data[0], false)
	case b.rows == m.rows && b.cols == 1: // column-vector broadcast
		parallelFor(m.rows, m.cols, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				op.applyVS(out.Row(i), m.Row(i), b.data[i])
			}
		})
	case b.rows == 1 && b.cols == m.cols: // row-vector broadcast
		parallelFor(m.rows, m.cols, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				op.applyVV(out.Row(i), m.Row(i), b.data)
			}
		})
	default:
		panic(fmt.Sprintf("matrix: incompatible shapes %dx%d %s %dx%d",
			m.rows, m.cols, op, b.rows, b.cols))
	}
	return out
}

// BinaryScalar applies op cell-wise against scalar s. When swap is true the
// scalar is the left operand (s op m), e.g. for 1-X.
func (m *Dense) BinaryScalar(op BinaryOp, s float64, swap bool) *Dense {
	out := NewDense(m.rows, m.cols)
	parallelFor(len(m.data), 1, func(lo, hi int) {
		if swap {
			op.applySV(out.data[lo:hi], s, m.data[lo:hi])
		} else {
			op.applyVS(out.data[lo:hi], m.data[lo:hi], s)
		}
	})
	return out
}

// The apply loops below hoist the op switch out of the cell loop: each
// common op (+ - * / min max) runs as one tight loop over a contiguous
// slice, and every other op falls back to apply per cell.

// applyVV sets out[i] = a[i] op b[i].
func (op BinaryOp) applyVV(out, a, b []float64) {
	out, b = out[:len(a)], b[:len(a)]
	switch op {
	case OpAdd:
		for i, x := range a {
			out[i] = x + b[i]
		}
	case OpSub:
		for i, x := range a {
			out[i] = x - b[i]
		}
	case OpMul:
		for i, x := range a {
			out[i] = x * b[i]
		}
	case OpDiv:
		for i, x := range a {
			out[i] = x / b[i]
		}
	case OpMin:
		for i, x := range a {
			out[i] = fmin(x, b[i])
		}
	case OpMax:
		for i, x := range a {
			out[i] = fmax(x, b[i])
		}
	default:
		for i, x := range a {
			out[i] = op.apply(x, b[i])
		}
	}
}

// applyVS sets out[i] = a[i] op s.
func (op BinaryOp) applyVS(out, a []float64, s float64) {
	out = out[:len(a)]
	switch op {
	case OpAdd:
		for i, x := range a {
			out[i] = x + s
		}
	case OpSub:
		for i, x := range a {
			out[i] = x - s
		}
	case OpMul:
		for i, x := range a {
			out[i] = x * s
		}
	case OpDiv:
		for i, x := range a {
			out[i] = x / s
		}
	case OpMin:
		for i, x := range a {
			out[i] = fmin(x, s)
		}
	case OpMax:
		for i, x := range a {
			out[i] = fmax(x, s)
		}
	default:
		for i, x := range a {
			out[i] = op.apply(x, s)
		}
	}
}

// applySV sets out[i] = s op b[i].
func (op BinaryOp) applySV(out []float64, s float64, b []float64) {
	out = out[:len(b)]
	switch op {
	case OpAdd:
		for i, x := range b {
			out[i] = s + x
		}
	case OpSub:
		for i, x := range b {
			out[i] = s - x
		}
	case OpMul:
		for i, x := range b {
			out[i] = s * x
		}
	case OpDiv:
		for i, x := range b {
			out[i] = s / x
		}
	case OpMin:
		for i, x := range b {
			out[i] = fmin(s, x)
		}
	case OpMax:
		for i, x := range b {
			out[i] = fmax(s, x)
		}
	default:
		for i, x := range b {
			out[i] = op.apply(s, x)
		}
	}
}

// fmin equals math.Min but inlines the strictly ordered case. Ties (signed
// zeros) and unordered pairs (NaN) take math.Min itself, whose special
// cases differ from the builtin min: math.Min(-Inf, NaN) is -Inf.
func fmin(a, b float64) float64 {
	if a < b {
		return a
	}
	if b < a {
		return b
	}
	return math.Min(a, b)
}

// fmax equals math.Max but inlines the strictly ordered case. Ties (signed
// zeros) and unordered pairs (NaN) take math.Max itself, whose special
// cases differ from the builtin max: math.Max(+Inf, NaN) is +Inf.
func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	if b > a {
		return b
	}
	return math.Max(a, b)
}

// Convenience wrappers for the most common binary operations.

// Add returns m + b with broadcasting.
func (m *Dense) Add(b *Dense) *Dense { return m.Binary(OpAdd, b) }

// Sub returns m - b with broadcasting.
func (m *Dense) Sub(b *Dense) *Dense { return m.Binary(OpSub, b) }

// Mul returns the element-wise (Hadamard) product m * b with broadcasting.
func (m *Dense) Mul(b *Dense) *Dense { return m.Binary(OpMul, b) }

// Div returns element-wise m / b with broadcasting.
func (m *Dense) Div(b *Dense) *Dense { return m.Binary(OpDiv, b) }

// Scale returns m * s.
func (m *Dense) Scale(s float64) *Dense { return m.BinaryScalar(OpMul, s, false) }

// AddScalar returns m + s.
func (m *Dense) AddScalar(s float64) *Dense { return m.BinaryScalar(OpAdd, s, false) }

// AddInPlace adds b (same shape) into m, mutating m. Used by hot paths such
// as the parameter server where allocation matters.
func (m *Dense) AddInPlace(b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic("matrix: AddInPlace shape mismatch")
	}
	for i, v := range b.data {
		m.data[i] += v
	}
}

// ScaleInPlace multiplies every cell of m by s, mutating m.
func (m *Dense) ScaleInPlace(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AxpyInPlace computes m += alpha*b, mutating m.
func (m *Dense) AxpyInPlace(alpha float64, b *Dense) {
	if m.rows != b.rows || m.cols != b.cols {
		panic("matrix: AxpyInPlace shape mismatch")
	}
	for i, v := range b.data {
		m.data[i] += alpha * v
	}
}
