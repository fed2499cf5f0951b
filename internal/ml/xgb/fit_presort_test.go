package xgb

import (
	"math"
	"math/rand/v2"
	"testing"

	"ceal/internal/ml/tree"
	"ceal/internal/score"
)

// referenceFit is the pre-optimization trainer kept verbatim as the test
// oracle: per-node-sorting tree.Grow, fresh index slices every round, and
// per-row Predict updates. Fit/FitOn must reproduce its models bitwise.
func referenceFit(X [][]float64, y []float64, p Params) *Model {
	n := len(y)
	dim := len(X[0])
	rng := rand.New(rand.NewPCG(p.Seed, 0x9e3779b97f4a7c15))
	base := 0.0
	for _, v := range y {
		base += v
	}
	base /= float64(n)
	m := &Model{base: base, eta: p.LearningRate}
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = base
	}
	g := make([]float64, n)
	h := make([]float64, n)
	opt := tree.Options{MaxDepth: p.MaxDepth, MinChildWeight: p.MinChildWeight, Lambda: p.Lambda, Gamma: p.Gamma}
	sample := func(n int, frac float64) []int {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		if frac >= 1 || frac <= 0 {
			return all
		}
		k := int(frac*float64(n) + 0.5)
		if k < 1 {
			k = 1
		}
		rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:k]
	}
	for round := 0; round < p.Rounds; round++ {
		for i := 0; i < n; i++ {
			g[i] = pred[i] - y[i]
			h[i] = 1
		}
		rows := sample(n, p.Subsample)
		cols := sample(dim, p.ColSample)
		t := tree.Grow(X, g, h, rows, cols, opt)
		m.trees = append(m.trees, t)
		for i := 0; i < n; i++ {
			pred[i] += p.LearningRate * t.Predict(X[i])
		}
	}
	return m
}

func trainingData(seed uint64, n, dim int) ([][]float64, []float64) {
	rng := rand.New(rand.NewPCG(seed, 99))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, dim)
		for f := range X[i] {
			if f%3 == 1 { // tie-heavy column
				X[i][f] = float64(rng.IntN(4))
			} else {
				X[i][f] = rng.NormFloat64()
			}
		}
		y[i] = X[i][0]*2 + math.Sin(X[i][dim-1]) + 0.1*rng.NormFloat64()
	}
	return X, y
}

func samePredictions(t *testing.T, label string, want, got *Model, X [][]float64) {
	t.Helper()
	w := want.PredictBatch(X)
	g := got.PredictBatch(X)
	for i := range w {
		if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
			t.Fatalf("%s: row %d predicts %v, want %v", label, i, g[i], w[i])
		}
	}
}

// TestFitMatchesReferenceTrainer pins the whole training path — sampling
// streams, pre-sorted growth, leaf-assignment prediction updates — to the
// old per-node-sort trainer, bitwise, across subsampling regimes.
func TestFitMatchesReferenceTrainer(t *testing.T) {
	X, y := trainingData(3, 50, 6)
	cases := []Params{
		{Rounds: 40, LearningRate: 0.1, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 7},
		{Rounds: 40, LearningRate: 0.3, MaxDepth: 3, Lambda: 0.5, MinChildWeight: 1, Subsample: 0.7, ColSample: 1, Seed: 11},
		{Rounds: 40, LearningRate: 0.1, MaxDepth: 5, Lambda: 1, MinChildWeight: 2, Subsample: 1, ColSample: 0.5, Seed: 13},
		{Rounds: 40, LearningRate: 0.2, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 0.6, ColSample: 0.6, Gamma: 0.01, Seed: 17},
	}
	probes, _ := trainingData(8, 30, 6)
	for ci, p := range cases {
		want := referenceFit(X, y, p)
		got, err := Fit(X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		if want.Rounds() != got.Rounds() {
			t.Fatalf("case %d: rounds %d, want %d", ci, got.Rounds(), want.Rounds())
		}
		samePredictions(t, "train", want, got, X)
		samePredictions(t, "probe", want, got, probes)
	}
}

// TestFitDeterministicAcrossWorkerCounts is the acceptance-criterion test:
// the trained model's predictions must be bitwise identical whether the fit
// ran serially or fanned split enumeration across any worker count.
func TestFitDeterministicAcrossWorkerCounts(t *testing.T) {
	// Large enough that per-node column fans actually engage.
	X, y := trainingData(5, 1200, 8)
	p := Params{Rounds: 8, LearningRate: 0.1, MaxDepth: 5, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 21}
	serial, err := Fit(X, y, p)
	if err != nil {
		t.Fatal(err)
	}
	probes, _ := trainingData(6, 64, 8)
	for _, w := range []int{1, 2, 4, 8} {
		m, err := FitOn(score.New(w), X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		samePredictions(t, "train", serial, m, X)
		samePredictions(t, "probe", serial, m, probes)
	}
}

// TestFitWithValidationMatchesPerRowScan pins the batch prefix scan: the
// early-stopping decision (kept ensemble length) and the final model must
// be bitwise identical to a per-row Predict prefix scan.
func TestFitWithValidationMatchesPerRowScan(t *testing.T) {
	X, y := trainingData(9, 60, 5)
	Xv, yv := trainingData(10, 25, 5)
	for _, patience := range []int{1, 3, 8} {
		p := Params{Rounds: 60, LearningRate: 0.2, MaxDepth: 4, Lambda: 1, MinChildWeight: 1, Subsample: 1, ColSample: 1, Seed: 31}
		m, err := FitWithValidation(X, y, Xv, yv, p, patience)
		if err != nil {
			t.Fatal(err)
		}
		// Reference scan: full refit, then per-row Predict over prefixes.
		full := referenceFit(X, y, p)
		pred := make([]float64, len(Xv))
		for i := range pred {
			pred[i] = full.base
		}
		bestRMSE := math.Inf(1)
		bestLen := 0
		since := 0
		for r, tr := range full.trees {
			var sse float64
			for i, x := range Xv {
				pred[i] += full.eta * tr.Predict(x)
				d := pred[i] - yv[i]
				sse += d * d
			}
			rms := math.Sqrt(sse / float64(len(yv)))
			if rms < bestRMSE-1e-12 {
				bestRMSE, bestLen, since = rms, r+1, 0
			} else {
				if since++; since >= patience {
					break
				}
			}
		}
		if m.Rounds() != bestLen {
			t.Fatalf("patience %d: kept %d rounds, reference kept %d", patience, m.Rounds(), bestLen)
		}
		full.trees = full.trees[:bestLen]
		samePredictions(t, "validation-truncated", full, m, Xv)
	}
}

// trainBenchData is the BENCH_train.json workload: 64 samples × 8 features.
func trainBenchData() ([][]float64, []float64, Params) {
	X, y := trainingData(1, 64, 8)
	p := DefaultParams() // 100 rounds, depth 4
	return X, y, p
}

// BenchmarkFitReference measures the old per-node-sort trainer on the
// surrogate-refit workload (64×8, 100 rounds, depth 4).
func BenchmarkFitReference(b *testing.B) {
	X, y, p := trainBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceFit(X, y, p)
	}
}

// BenchmarkFitPresorted measures the pre-sorted serial trainer on the same
// workload — the BENCH_train.json before/after pair with FitReference.
func BenchmarkFitPresorted(b *testing.B) {
	X, y, p := trainBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitPresortedParallel4 runs the same fit with a 4-worker engine
// fanning split enumeration (identical results; wall-clock scaling depends
// on available CPUs).
func BenchmarkFitPresortedParallel4(b *testing.B) {
	X, y, p := trainBenchData()
	e := score.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitOn(e, X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitPresortedWide measures the pre-sorted kernel on a wide
// workload — 2000×8 continuous rows, 100 rounds, depth 4 — where per-node
// split enumeration dominates the fit.
func BenchmarkFitPresortedWide(b *testing.B) {
	X, y := trainingData(1, 2000, 8)
	p := DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScoreFloatMatrix measures batch-scoring a 4096×8 pool against
// the 100-tree surrogate ensemble.
func BenchmarkScoreFloatMatrix(b *testing.B) {
	X, y, p := trainBenchData()
	m, err := Fit(X, y, p)
	if err != nil {
		b.Fatal(err)
	}
	pool, _ := trainingData(4, 4096, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatchOn(nil, pool)
	}
}
