package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/collector"
	"ceal/internal/emews"
	"ceal/internal/paperexp"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// runGTBuild times paperexp.BuildGroundTruth for LV, HS and GP at paper
// scale. A traced run then re-measures the same ground truths call by call
// through its own collector.RunKeyed, with a span around every
// workflow.Measure / MeasureSolo, and checks that it reproduces every value.
func runGTBuild(e *env) error {
	benches := workflow.Benchmarks(cluster.Default())
	opts := func(workers int) paperexp.BuildOptions {
		return paperexp.BuildOptions{PoolSize: e.sc.Pool, ComponentSamples: e.sc.CompSamples, Seed: e.inputSeed("gt-build"), Workers: workers}
	}

	// Set-up: warm-up builds at a quarter of the size (code paths, heap,
	// goroutine caches), repeated; setup_s is their median.
	var setups []float64
	for i := 0; i < e.sc.SetupRepeats; i++ {
		t0 := time.Now()
		for _, b := range benches {
			o := opts(width)
			o.PoolSize, o.ComponentSamples = max(o.PoolSize/4, 2), max(o.ComponentSamples/4, 1)
			if _, err := paperexp.BuildGroundTruth(b, o); err != nil {
				return fmt.Errorf("warm-up build: %w", err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.set("setup_s", median(setups), len(setups), "median of warm-up builds")

	// Untraced phase: the library call users make.
	gts := make([]*paperexp.GroundTruth, len(benches))
	digests := make([]string, len(benches))
	var roundSims []int
	_, rounds, err := e.timed(e.phaseLen(), true, func(round int) error {
		roundSims = append(roundSims, 0)
		for i, b := range benches {
			gt, err := paperexp.BuildGroundTruth(b, opts(width))
			e.attempted++
			if err != nil {
				e.failed++
				fmt.Fprintf(e.log, "build %s: %v\n", b.Name, err)
				continue
			}
			roundSims[round] += simCount(gt)
			d := gtDigest(gt)
			if round == 0 {
				gts[i], digests[i] = gt, d
			} else if d != digests[i] {
				e.failed++
				e.fail("gt-build %s round %d digest %s != round 0 digest %s", b.Name, round, d, digests[i])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Rounds repeat identical work, so their median is robust to a round
	// slowed by the host.
	var rates, lat []float64
	for r, d := range rounds {
		rates = append(rates, float64(roundSims[r])/d.Seconds())
		lat = append(lat, ms(d))
	}
	untracedRate := median(rates)
	e.set("ops_per_s", untracedRate, len(rounds), "simulations (in-situ + solo) per second, median over rounds")
	e.set("latency_p50_ms", median(lat), len(lat), "LV, HS and GP ground truths built, median over rounds")
	e.gts = gts

	if e.traced {
		tr := newTracer()
		res := &gtLayerStats{}
		sims := 0
		twall, _, err := e.timed(e.phaseLen(), false, func(int) error {
			for i, b := range benches {
				if gts[i] == nil {
					continue
				}
				n, err := decomposedBuild(e, tr, res, b, gts[i], opts(width).Seed)
				if err != nil {
					return err
				}
				sims += n
			}
			return nil
		})
		if err != nil {
			return err
		}
		e.ledger = tr.ledger(twall, width)
		e.ledger.OverheadRatio = untracedRate / (float64(sims) / twall.Seconds())
		e.set("collector.misses", float64(res.st.Misses), int(res.calls), "ground-truth RunKeyed calls")
		e.set("collector.hits", float64(res.st.Hits), int(res.calls), "")
		e.set("collector.coalesced", float64(res.st.Coalesced), int(res.calls), "")
		e.set("emews.retries", float64(res.st.Retries), int(res.calls), "")
		jobs := sumDur(tr.durations("emews.job"))
		e.set("collector.busy_ratio", jobs.Seconds()/(width*res.keyedWall.Seconds()), int(res.calls), "job time / (width x RunKeyed wall)")
	}

	// Output gate: the same inputs at width 1 give the same ground truths.
	for i, b := range benches {
		if gts[i] == nil {
			continue
		}
		gt, err := paperexp.BuildGroundTruth(b, opts(1))
		if err != nil {
			return fmt.Errorf("width-1 reference build: %w", err)
		}
		if d := gtDigest(gt); d != digests[i] {
			e.failed++
			e.fail("gt-build %s width-1 digest %s != width-%d digest %s", b.Name, d, width, digests[i])
		}
	}
	return nil
}

// simCount is the number of simulations behind a ground truth: the pool,
// the component sets, one solo run per unconfigurable component, and the
// two expert configurations.
func simCount(gt *paperexp.GroundTruth) int {
	n := len(gt.Pool) + 2
	for j, set := range gt.CompExec {
		if gt.Bench.Components[j].Space == nil {
			n++
		}
		n += len(set)
	}
	return n
}

// gtDigest hashes every value of a ground truth.
func gtDigest(gt *paperexp.GroundTruth) string {
	h := sha256.New()
	for _, c := range gt.Pool {
		hashConfig(h, c)
	}
	hashFloats(h, gt.Exec, gt.Comp, gt.Energy, gt.FixedExec, gt.FixedComp, gt.FixedEnergy,
		[]float64{gt.ExpertExec, gt.ExpertComp, gt.ExpertEnergy})
	for _, sets := range [][][]tuner.Sample{gt.CompExec, gt.CompComp, gt.CompEnergy} {
		for _, set := range sets {
			for _, s := range set {
				hashConfig(h, s.Cfg)
				hashFloats(h, []float64{s.Value})
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashConfig(h hash.Hash, c cfgspace.Config) {
	var b [8]byte
	for _, v := range c {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	h.Write([]byte{0xff})
}

func hashFloats(h hash.Hash, xss ...[]float64) {
	var b [8]byte
	for _, xs := range xss {
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write(b[:])
		}
		h.Write([]byte{0xfe})
	}
}

type gtLayerStats struct {
	st        collector.Stats
	calls     int
	keyedWall time.Duration
}

func (s *gtLayerStats) add(c *collector.Collector) {
	st := c.Stats()
	s.st.Misses += st.Misses
	s.st.Hits += st.Hits
	s.st.Coalesced += st.Coalesced
	s.st.Retries += st.Retries
	s.calls++
}

// decomposedBuild re-measures one ground truth the way BuildGroundTruth
// does — one collector over an emews runner of the benchmark's width, keys
// and noise streams per sample index — with spans around every layer call,
// and checks each value against gt. It returns the simulations it ran.
func decomposedBuild(e *env, tr *tracer, res *gtLayerStats, b *workflow.Benchmark, gt *paperexp.GroundTruth, seed uint64) (int, error) {
	ctx := context.Background()
	root := tr.begin("paperexp.groundtruth."+b.Name, -1, width)
	defer tr.end(root)
	col := collector.New(nil, &emews.Runner{Workers: width, MaxRetries: 3})
	sims := 0

	keys := make([]string, len(gt.Pool))
	for i := range keys {
		keys[i] = fmt.Sprintf("gt:wf:%d", i)
	}
	t0 := time.Now()
	kspan := tr.begin("collector.RunKeyed", root, width)
	pool, err := collector.RunKeyed(ctx, col, keys, func(i, _ int) (workflow.Measurement, error) {
		job := tr.begin("emews.job", kspan, 1)
		defer tr.end(job)
		s := tr.begin("workflow.Build", job, 1)
		w, err := b.Build(gt.Pool[i])
		tr.end(s)
		if err != nil {
			return workflow.Measurement{}, err
		}
		noise := rand.New(rand.NewPCG(seed, 0x1000000+uint64(i)))
		s = tr.begin("workflow.Measure", job, 1)
		defer tr.end(s)
		return w.Measure(noise)
	})
	tr.end(kspan)
	res.keyedWall += time.Since(t0)
	if err != nil {
		return 0, err
	}
	sims += len(pool)
	mismatch := 0
	for i, m := range pool {
		if m.ExecTime != gt.Exec[i] || m.CompTime != gt.Comp[i] || m.EnergyKJ != gt.Energy[i] {
			mismatch++
		}
	}

	for j, cs := range b.Components {
		if cs.Space == nil {
			s := tr.begin("workflow.RunSolo", root, 1)
			m, err := workflow.RunSolo(b.Machine, cs.BuildSolo(nil), cs.InBytesPerStep)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			sims++
			if m.ExecTime != gt.FixedExec[j] || m.CompTime != gt.FixedComp[j] || m.EnergyKJ != gt.FixedEnergy[j] {
				mismatch++
			}
			continue
		}
		set := gt.CompExec[j]
		soloKeys := make([]string, len(set))
		for i := range set {
			soloKeys[i] = fmt.Sprintf("gt:c%d:%d", j, i)
		}
		t0 := time.Now()
		kspan := tr.begin("collector.RunKeyed", root, width)
		solos, err := collector.RunKeyed(ctx, col, soloKeys, func(i, _ int) (workflow.Measurement, error) {
			job := tr.begin("emews.job", kspan, 1)
			defer tr.end(job)
			noise := rand.New(rand.NewPCG(seed, 0x2000000+uint64(j)<<20+uint64(i)))
			s := tr.begin("workflow.MeasureSolo", job, 1)
			defer tr.end(s)
			return workflow.MeasureSolo(b.Machine, cs.BuildSolo(set[i].Cfg), cs.InBytesPerStep, noise)
		})
		tr.end(kspan)
		res.keyedWall += time.Since(t0)
		if err != nil {
			return 0, err
		}
		sims += len(solos)
		for i, m := range solos {
			if m.ExecTime != set[i].Value || m.CompTime != gt.CompComp[j][i].Value || m.EnergyKJ != gt.CompEnergy[j][i].Value {
				mismatch++
			}
		}
	}
	res.add(col)

	for _, cfg := range []cfgspace.Config{b.ExpertExec, b.ExpertComp} {
		s := tr.begin("workflow.RunInSitu", root, 1)
		w, err := b.Build(cfg)
		if err == nil {
			_, err = w.RunInSitu()
		}
		tr.end(s)
		if err != nil {
			return 0, err
		}
		sims++
	}
	if mismatch > 0 {
		e.failed++
		e.fail("gt-build %s: call-by-call re-measurement differs from BuildGroundTruth in %d values", b.Name, mismatch)
	}
	return sims, nil
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}
