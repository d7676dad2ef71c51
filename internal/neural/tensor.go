// Package neural is the from-scratch neural substrate behind the seq2vis
// model (Section 4.1): dense 2-D tensors with reverse-mode automatic
// differentiation, the LSTM cell, embedding and linear layers, softmax and
// cross-entropy, the Adam optimizer, and gradient clipping. Only the
// standard library is used.
package neural

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// Tensor is a dense row-major matrix participating in a dynamically built
// computation graph. Calling Backward on a scalar tensor propagates
// gradients to every ancestor that requires them.
type Tensor struct {
	Rows, Cols int
	Data       []float64
	Grad       []float64
	requires   bool
	parents    []*Tensor
	backFn     func()
	// visited stamps the tensor during Backward's topological sort; a
	// per-call generation avoids allocating a visited set for every step
	// of training (graphs here are built and discarded per example).
	visited uint64
}

// NewTensor allocates a zero matrix that does not require gradients.
func NewTensor(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewParam allocates a trainable parameter initialized with Xavier-uniform
// noise from r.
func NewParam(rows, cols int, r *rand.Rand) *Tensor {
	t := NewTensor(rows, cols)
	t.requires = true
	t.Grad = make([]float64, rows*cols)
	bound := math.Sqrt(6.0 / float64(rows+cols))
	for i := range t.Data {
		t.Data[i] = (r.Float64()*2 - 1) * bound
	}
	return t
}

// NewZeroParam allocates a zero-initialized trainable parameter (bias).
func NewZeroParam(rows, cols int) *Tensor {
	t := NewTensor(rows, cols)
	t.requires = true
	t.Grad = make([]float64, rows*cols)
	return t
}

// At returns the element at (i, j).
func (t *Tensor) At(i, j int) float64 { return t.Data[i*t.Cols+j] }

// Set assigns the element at (i, j).
func (t *Tensor) Set(i, j int, v float64) { t.Data[i*t.Cols+j] = v }

// ZeroGrad clears the accumulated gradient.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

func childOf(parents ...*Tensor) (*Tensor, bool) {
	needs := false
	for _, p := range parents {
		if p.requires {
			needs = true
			break
		}
	}
	out := &Tensor{requires: needs}
	if needs {
		out.parents = parents
	}
	return out, needs
}

func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
}

// backwardGen is the global generation counter for Backward's visited
// stamps. Trainable parameters are shared across calls, so stamps must be
// unique per call; the counter is atomic so independent models may train
// concurrently (a single graph must still not be differentiated from two
// goroutines at once).
var backwardGen uint64

// Backward runs reverse-mode differentiation from t, which must be a 1×1
// scalar. The scalar's gradient seeds at 1.
func (t *Tensor) Backward() {
	if t.Rows != 1 || t.Cols != 1 {
		panic(fmt.Sprintf("neural: Backward on non-scalar %dx%d", t.Rows, t.Cols))
	}
	gen := atomic.AddUint64(&backwardGen, 1)
	// Topological order via DFS.
	var order []*Tensor
	var visit func(*Tensor)
	visit = func(n *Tensor) {
		if atomic.LoadUint64(&n.visited) == gen {
			return
		}
		atomic.StoreUint64(&n.visited, gen)
		for _, p := range n.parents {
			visit(p)
		}
		order = append(order, n)
	}
	visit(t)
	t.ensureGrad()
	t.Grad[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backFn != nil {
			order[i].backFn()
		}
	}
}

// MatMul returns a × b.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("neural: matmul shape mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out, needs := childOf(a, b)
	out.Rows, out.Cols = a.Rows, b.Cols
	out.Data = make([]float64, out.Rows*out.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			av := a.Data[i*a.Cols+k]
			if av == 0 {
				continue
			}
			bRow := b.Data[k*b.Cols:]
			oRow := out.Data[i*out.Cols:]
			for j := 0; j < b.Cols; j++ {
				oRow[j] += av * bRow[j]
			}
		}
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			if a.requires {
				a.ensureGrad()
				// dA[i,k] = Σⱼ dOut[i,j]·B[k,j]: both inner walks are
				// contiguous rows, which keeps this hot loop in cache.
				for i := 0; i < a.Rows; i++ {
					gRow := out.Grad[i*out.Cols : (i+1)*out.Cols]
					aGradRow := a.Grad[i*a.Cols : (i+1)*a.Cols]
					for k := 0; k < a.Cols; k++ {
						bRow := b.Data[k*b.Cols : (k+1)*b.Cols]
						s := 0.0
						for j := range gRow {
							s += gRow[j] * bRow[j]
						}
						aGradRow[k] += s
					}
				}
			}
			if b.requires {
				b.ensureGrad()
				// dB = Aᵀ × dOut, accumulated row-contiguously.
				for i := 0; i < a.Rows; i++ {
					gRow := out.Grad[i*out.Cols : (i+1)*out.Cols]
					for k := 0; k < a.Cols; k++ {
						av := a.Data[i*a.Cols+k]
						if av == 0 {
							continue
						}
						bGradRow := b.Grad[k*b.Cols : (k+1)*b.Cols]
						for j := range gRow {
							bGradRow[j] += av * gRow[j]
						}
					}
				}
			}
		}
	}
	return out
}

// MatMulT returns a × bᵀ.
func MatMulT(a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("neural: matmulT shape mismatch %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out, needs := childOf(a, b)
	out.Rows, out.Cols = a.Rows, b.Rows
	out.Data = make([]float64, out.Rows*out.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			s := 0.0
			aRow := a.Data[i*a.Cols : (i+1)*a.Cols]
			bRow := b.Data[j*b.Cols : (j+1)*b.Cols]
			for k := range aRow {
				s += aRow[k] * bRow[k]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				for j := 0; j < b.Rows; j++ {
					g := out.Grad[i*out.Cols+j]
					if g == 0 {
						continue
					}
					if a.requires {
						a.ensureGrad()
						for k := 0; k < a.Cols; k++ {
							a.Grad[i*a.Cols+k] += g * b.Data[j*b.Cols+k]
						}
					}
					if b.requires {
						b.ensureGrad()
						for k := 0; k < b.Cols; k++ {
							b.Grad[j*b.Cols+k] += g * a.Data[i*a.Cols+k]
						}
					}
				}
			}
		}
	}
	return out
}

// Add returns a + b. b may be a 1×n row vector broadcast over a's rows.
func Add(a, b *Tensor) *Tensor {
	broadcast := b.Rows == 1 && a.Rows > 1 && a.Cols == b.Cols
	if !broadcast && (a.Rows != b.Rows || a.Cols != b.Cols) {
		panic(fmt.Sprintf("neural: add shape mismatch %dx%d + %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out, needs := childOf(a, b)
	out.Rows, out.Cols = a.Rows, a.Cols
	out.Data = make([]float64, len(a.Data))
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			bi := i
			if broadcast {
				bi = 0
			}
			out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + b.Data[bi*b.Cols+j]
		}
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			if a.requires {
				a.ensureGrad()
				for i := range a.Grad {
					a.Grad[i] += out.Grad[i]
				}
			}
			if b.requires {
				b.ensureGrad()
				for i := 0; i < a.Rows; i++ {
					bi := i
					if broadcast {
						bi = 0
					}
					for j := 0; j < a.Cols; j++ {
						b.Grad[bi*b.Cols+j] += out.Grad[i*a.Cols+j]
					}
				}
			}
		}
	}
	return out
}

// Mul returns the elementwise product a ⊙ b.
func Mul(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("neural: mul shape mismatch")
	}
	out, needs := childOf(a, b)
	out.Rows, out.Cols = a.Rows, a.Cols
	out.Data = make([]float64, len(a.Data))
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			if a.requires {
				a.ensureGrad()
				for i := range a.Grad {
					a.Grad[i] += out.Grad[i] * b.Data[i]
				}
			}
			if b.requires {
				b.ensureGrad()
				for i := range b.Grad {
					b.Grad[i] += out.Grad[i] * a.Data[i]
				}
			}
		}
	}
	return out
}

// Scale returns s·a.
func Scale(a *Tensor, s float64) *Tensor {
	out, needs := childOf(a)
	out.Rows, out.Cols = a.Rows, a.Cols
	out.Data = make([]float64, len(a.Data))
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += out.Grad[i] * s
			}
		}
	}
	return out
}

func unary(a *Tensor, f func(float64) float64, df func(y, x float64) float64) *Tensor {
	out, needs := childOf(a)
	out.Rows, out.Cols = a.Rows, a.Cols
	out.Data = make([]float64, len(a.Data))
	for i := range a.Data {
		out.Data[i] = f(a.Data[i])
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			a.ensureGrad()
			for i := range a.Grad {
				a.Grad[i] += out.Grad[i] * df(out.Data[i], a.Data[i])
			}
		}
	}
	return out
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Tensor) *Tensor {
	return unary(a,
		func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		func(y, _ float64) float64 { return y * (1 - y) })
}

// Tanh applies tanh elementwise.
func Tanh(a *Tensor) *Tensor {
	return unary(a, math.Tanh, func(y, _ float64) float64 { return 1 - y*y })
}

// ConcatCols concatenates tensors with equal row counts along columns.
func ConcatCols(ts ...*Tensor) *Tensor {
	rows := ts[0].Rows
	cols := 0
	for _, t := range ts {
		if t.Rows != rows {
			panic("neural: concat row mismatch")
		}
		cols += t.Cols
	}
	out, needs := childOf(ts...)
	out.Rows, out.Cols = rows, cols
	out.Data = make([]float64, rows*cols)
	off := 0
	for _, t := range ts {
		for i := 0; i < rows; i++ {
			copy(out.Data[i*cols+off:i*cols+off+t.Cols], t.Data[i*t.Cols:(i+1)*t.Cols])
		}
		off += t.Cols
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			off := 0
			for _, t := range ts {
				if t.requires {
					t.ensureGrad()
					for i := 0; i < rows; i++ {
						for j := 0; j < t.Cols; j++ {
							t.Grad[i*t.Cols+j] += out.Grad[i*cols+off+j]
						}
					}
				}
				off += t.Cols
			}
		}
	}
	return out
}

// ConcatRows stacks 1-row tensors with equal column counts into a matrix.
func ConcatRows(ts ...*Tensor) *Tensor {
	cols := ts[0].Cols
	rows := 0
	for _, t := range ts {
		if t.Cols != cols {
			panic("neural: concat col mismatch")
		}
		rows += t.Rows
	}
	out, needs := childOf(ts...)
	out.Rows, out.Cols = rows, cols
	out.Data = make([]float64, rows*cols)
	off := 0
	for _, t := range ts {
		copy(out.Data[off*cols:], t.Data)
		off += t.Rows
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			off := 0
			for _, t := range ts {
				if t.requires {
					t.ensureGrad()
					for i := range t.Grad {
						t.Grad[i] += out.Grad[off*cols+i]
					}
				}
				off += t.Rows
			}
		}
	}
	return out
}

// Softmax applies a row-wise softmax.
func Softmax(a *Tensor) *Tensor {
	out, needs := childOf(a)
	out.Rows, out.Cols = a.Rows, a.Cols
	out.Data = make([]float64, len(a.Data))
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		max := row[0]
		for _, v := range row {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		oRow := out.Data[i*a.Cols : (i+1)*a.Cols]
		for j, v := range row {
			oRow[j] = math.Exp(v - max)
			sum += oRow[j]
		}
		for j := range oRow {
			oRow[j] /= sum
		}
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			a.ensureGrad()
			for i := 0; i < a.Rows; i++ {
				oRow := out.Data[i*a.Cols : (i+1)*a.Cols]
				gRow := out.Grad[i*a.Cols : (i+1)*a.Cols]
				dot := 0.0
				for j := range oRow {
					dot += oRow[j] * gRow[j]
				}
				for j := range oRow {
					a.Grad[i*a.Cols+j] += oRow[j] * (gRow[j] - dot)
				}
			}
		}
	}
	return out
}

// Lookup selects row idx of an embedding parameter as a 1×d tensor.
func Lookup(table *Tensor, idx int) *Tensor {
	if idx < 0 || idx >= table.Rows {
		panic(fmt.Sprintf("neural: lookup index %d out of %d", idx, table.Rows))
	}
	out, needs := childOf(table)
	out.Rows, out.Cols = 1, table.Cols
	out.Data = make([]float64, table.Cols)
	copy(out.Data, table.Data[idx*table.Cols:(idx+1)*table.Cols])
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			table.ensureGrad()
			for j := 0; j < table.Cols; j++ {
				table.Grad[idx*table.Cols+j] += out.Grad[j]
			}
		}
	}
	return out
}

// PickLog returns -log(p[0, idx] + eps) as a scalar — the negative
// log-likelihood of one target token under a probability row p.
func PickLog(p *Tensor, idx int) *Tensor {
	const eps = 1e-12
	out, needs := childOf(p)
	out.Rows, out.Cols = 1, 1
	out.Data = []float64{-math.Log(p.Data[idx] + eps)}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			p.ensureGrad()
			p.Grad[idx] += out.Grad[0] * (-1 / (p.Data[idx] + eps))
		}
	}
	return out
}

// Mean returns the average of scalars.
func Mean(ts []*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("neural: mean of nothing")
	}
	sum := ts[0]
	for _, t := range ts[1:] {
		sum = Add(sum, t)
	}
	return Scale(sum, 1/float64(len(ts)))
}

// MulBroadcast multiplies each row element of a (r×c) by the scalar tensor
// g (1×1); used for gated mixtures.
func MulBroadcast(a, g *Tensor) *Tensor {
	if g.Rows != 1 || g.Cols != 1 {
		panic("neural: MulBroadcast gate must be 1x1")
	}
	out, needs := childOf(a, g)
	out.Rows, out.Cols = a.Rows, a.Cols
	out.Data = make([]float64, len(a.Data))
	gv := g.Data[0]
	for i := range a.Data {
		out.Data[i] = a.Data[i] * gv
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			if a.requires {
				a.ensureGrad()
				for i := range a.Grad {
					a.Grad[i] += out.Grad[i] * gv
				}
			}
			if g.requires {
				g.ensureGrad()
				s := 0.0
				for i := range a.Data {
					s += out.Grad[i] * a.Data[i]
				}
				g.Grad[0] += s
			}
		}
	}
	return out
}

// OneMinus returns 1 - a elementwise.
func OneMinus(a *Tensor) *Tensor {
	return unary(a, func(x float64) float64 { return 1 - x }, func(_, _ float64) float64 { return -1 })
}

// ScatterRows builds a 1×n distribution by adding weight p[0,i] to column
// ids[i] for each source position — the copy distribution of the pointer
// mechanism.
func ScatterRows(p *Tensor, ids []int, n int) *Tensor {
	if p.Rows != 1 || p.Cols != len(ids) {
		panic("neural: scatter shape mismatch")
	}
	out, needs := childOf(p)
	out.Rows, out.Cols = 1, n
	out.Data = make([]float64, n)
	for i, id := range ids {
		if id >= 0 && id < n {
			out.Data[id] += p.Data[i]
		}
	}
	if needs {
		out.backFn = func() {
			out.ensureGrad()
			p.ensureGrad()
			for i, id := range ids {
				if id >= 0 && id < n {
					p.Grad[i] += out.Grad[id]
				}
			}
		}
	}
	return out
}
