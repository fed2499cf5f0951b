// Booster: the incremental-refit form of FitOn. A tuning loop refits its
// surrogate every iteration on a sample set that only grows by one
// measured batch, so the per-fit setup — pre-sorting the feature matrix,
// allocating round buffers — is almost entirely repeated work. A Booster
// retains the training matrix, the pre-sorted context (which extends
// itself via tree.Context.Append instead of rebuilding), and every
// round-loop buffer across fits. Each Fit still draws a fresh
// sampling stream from p.Seed and runs the exact FitOn round loop, so the
// returned model is bitwise identical to FitOn over the same rows.
package xgb

import (
	"fmt"
	"math/rand/v2"

	"ceal/internal/ml/tree"
	"ceal/internal/score"
)

// Booster accumulates training rows and refits on demand, reusing the
// training kernel and all per-fit scratch between fits. Not safe for
// concurrent use; each returned Model is independent and remains valid
// across later Append/Fit/Reset calls.
type Booster struct {
	p Params
	e *score.Engine

	X [][]float64
	y []float64

	ctx    *tree.Context // pre-sorted kernel state, grown by Append
	grower *tree.Grower

	pred, g, h, leaf []float64
	rowBuf, colBuf   []int
	covered          []bool
}

// NewBooster validates p once up front (the same rules FitOn applies
// per call) and returns an empty booster on the engine (nil: serial).
func NewBooster(e *score.Engine, p Params) (*Booster, error) {
	if p.Rounds <= 0 || p.LearningRate <= 0 {
		return nil, fmt.Errorf("xgb: rounds and learning rate must be positive")
	}
	return &Booster{p: p, e: e}, nil
}

// N returns the number of training rows currently held.
func (b *Booster) N() int { return len(b.y) }

// Append adds training rows. The row slices are retained, not copied —
// callers must not mutate them afterwards. The kernel state is extended
// lazily on the next Fit.
func (b *Booster) Append(X [][]float64, y []float64) error {
	if len(X) != len(y) {
		return fmt.Errorf("xgb: need matching X (%d) and y (%d)", len(X), len(y))
	}
	b.X = append(b.X, X...)
	b.y = append(b.y, y...)
	return nil
}

// Reset drops all training rows and kernel state, keeping buffer
// capacity. Use it when the target values of already-appended rows
// change (residual refits, permuted training halves) — the append paths
// only ever extend, they cannot revise a prefix.
func (b *Booster) Reset() {
	b.X = b.X[:0]
	b.y = b.y[:0]
	b.ctx, b.grower = nil, nil
}

// sync brings the pre-sorted context up to the current row set: built
// from scratch on the first fit, merge-appended on later ones.
func (b *Booster) sync() {
	if b.ctx == nil {
		b.ctx = tree.NewContext(b.e, b.X)
		b.grower = b.ctx.Grower(b.e)
	} else {
		b.ctx.Append(b.e, b.X)
	}
}

// Fit trains on every appended row. The sampling stream restarts from
// p.Seed on each call exactly as a fresh FitOn would, and the round loop
// is FitOn's, so the model matches FitOn over the same (X, y) bit for
// bit — only the setup work (kernel build, buffer allocation) is
// amortized away.
func (b *Booster) Fit() (*Model, error) {
	n := len(b.y)
	if n == 0 || len(b.X) != n {
		return nil, fmt.Errorf("xgb: need matching non-empty X (%d) and y (%d)", len(b.X), n)
	}
	p := b.p
	dim := len(b.X[0])
	rng := rand.New(rand.NewPCG(p.Seed, 0x9e3779b97f4a7c15))

	base := 0.0
	for _, v := range b.y {
		base += v
	}
	base /= float64(n)

	b.sync()

	m := &Model{base: base, eta: p.LearningRate}
	m.trees = make([]*tree.Tree, 0, p.Rounds)
	b.pred = growFloats(b.pred, n)
	for i := range b.pred {
		b.pred[i] = base
	}
	b.g = growFloats(b.g, n)
	b.h = growFloats(b.h, n)
	b.leaf = growFloats(b.leaf, n)
	b.rowBuf = growInts(b.rowBuf, n)
	b.colBuf = growInts(b.colBuf, dim)
	opt := tree.Options{MaxDepth: p.MaxDepth, MinChildWeight: p.MinChildWeight, Lambda: p.Lambda, Gamma: p.Gamma}

	subsampled := p.Subsample < 1 && p.Subsample > 0
	if subsampled && len(b.covered) < n {
		// Rounds clear every entry they set, so a grown buffer only needs
		// fresh (zeroed) storage; surviving entries are already false.
		b.covered = make([]bool, n)
	}

	pred, g, h, leaf := b.pred, b.g, b.h, b.leaf
	for round := 0; round < p.Rounds; round++ {
		for i := 0; i < n; i++ {
			g[i] = pred[i] - b.y[i] // d/dpred ½(pred−y)²
			h[i] = 1
		}
		rows := sampleIndices(b.rowBuf, p.Subsample, rng)
		cols := sampleIndices(b.colBuf, p.ColSample, rng)
		t := b.grower.Grow(g, h, rows, cols, opt, leaf)
		m.trees = append(m.trees, t)
		if len(rows) == n {
			for i := 0; i < n; i++ {
				pred[i] += p.LearningRate * leaf[i]
			}
			continue
		}
		// Subsampled round: rows in the tree carry their leaf assignment;
		// only the held-out rows walk the tree.
		for _, r := range rows {
			b.covered[r] = true
		}
		for i := 0; i < n; i++ {
			if b.covered[i] {
				pred[i] += p.LearningRate * leaf[i]
			} else {
				pred[i] += p.LearningRate * t.Predict(b.X[i])
			}
		}
		for _, r := range rows {
			b.covered[r] = false
		}
	}
	return m, nil
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
