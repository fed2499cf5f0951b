package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"ceal/internal/cfgspace"
	"ceal/internal/cluster"
	"ceal/internal/collector"
	"ceal/internal/emews"
	"ceal/internal/paperexp"
	"ceal/internal/workflow"
)

// fillLayers completes a traced run's per-layer ledger. A workload reports
// the layers its timed phase exercises; every other layer is measured here
// by a small probe at fixed scale, so each traced run reports every layer.
// Probe values carry the note "probe".
func fillLayers(e *env) error {
	if err := workflowProbe(e); err != nil {
		return err
	}
	if !e.has("collector.misses") {
		if err := collectorProbe(e); err != nil {
			return err
		}
	}
	if !e.has("tuner.run_ms.rs") || !e.has("paperexp.rep_busy_ratio") {
		if err := tunerProbe(e); err != nil {
			return err
		}
	}
	if !e.has("service.submit_ms") {
		ss, err := openSession(e)
		if err != nil {
			return err
		}
		err = ss.measure(e, 0, 3*width)
		ss.dep.stop()
		if err != nil {
			return err
		}
	}
	if l := e.ledger; l != nil {
		var self float64
		for _, v := range l.SelfS {
			self += v
		}
		e.set("trace.wall_s", l.WallS, 1, "traced phase")
		e.set("trace.layer_self_s", self, len(l.SelfS), "lane-seconds")
		e.set("trace.remainder_s", l.RemainderS, 1, "lane-seconds")
		e.set("trace.overhead_ratio", l.OverheadRatio, 2, "traced / untraced time per operation")
	}
	return nil
}

// probeConfigs samples n workflow configurations of b from the workload seed.
func probeConfigs(e *env, b *workflow.Benchmark, n int) []cfgspace.Config {
	rng := rand.New(rand.NewPCG(e.inputSeed("probe/"+b.Name), 0))
	return b.Space.SampleN(rng, n)
}

// workflowProbe times workflow.Measure and MeasureSolo serially and counts
// the heap allocations of one in-situ run of each expert configuration.
func workflowProbe(e *env) error {
	var virtual, host float64
	var solo []float64
	for _, b := range workflow.Benchmarks(cluster.Default()) {
		var insitu []float64
		for i, cfg := range probeConfigs(e, b, e.sc.ProbeCalls) {
			w, err := b.Build(cfg)
			if err != nil {
				return err
			}
			t0 := time.Now()
			m, err := w.Measure(rand.New(rand.NewPCG(uint64(i), 1)))
			d := time.Since(t0)
			if err != nil {
				return err
			}
			insitu = append(insitu, us(d))
			virtual += m.ExecTime
			host += d.Seconds()
			for j, cs := range b.Components {
				if cs.Space == nil {
					continue
				}
				sub := b.Sub(cfg, j)
				t0 := time.Now()
				if _, err := workflow.MeasureSolo(b.Machine, cs.BuildSolo(sub), cs.InBytesPerStep, nil); err != nil {
					return err
				}
				solo = append(solo, us(time.Since(t0)))
			}
		}
		e.set("workflow.insitu_us."+b.Name, median(insitu), len(insitu), "serial")
		allocs, err := allocsPerInSitu(b)
		if err != nil {
			return err
		}
		e.set("workflow.allocs_per_insitu."+b.Name, allocs, 1, "expert configuration, serial")
	}
	e.set("workflow.solo_us", median(solo), len(solo), "serial, every configurable component")
	e.set("sim.virtual_per_host", virtual/host, 3*e.sc.ProbeCalls, "simulated s per host s")
	return nil
}

// allocsPerInSitu counts the heap allocations of one noiseless in-situ run
// of the benchmark's expert configuration, after two warm-up runs; the
// count is the smallest of three runs.
func allocsPerInSitu(b *workflow.Benchmark) (float64, error) {
	w, err := b.Build(b.ExpertComp)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 2; i++ {
		if _, err := w.Measure(nil); err != nil {
			return 0, err
		}
	}
	best := uint64(1<<63 - 1)
	var ms0, ms1 runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&ms0)
		if _, err := w.Measure(nil); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&ms1)
		best = min(best, ms1.Mallocs-ms0.Mallocs)
	}
	return float64(best), nil
}

// collectorProbe runs two collector.RunKeyed batches over one collector:
// the first lists every LV probe configuration twice (the repeats coalesce
// onto the in-flight measurement), the second lists them again (cache hits).
func collectorProbe(e *env) error {
	b := workflow.LV(cluster.Default())
	cfgs := probeConfigs(e, b, 2*e.sc.ProbeCalls)
	var keys []string
	var items []cfgspace.Config
	for _, c := range cfgs {
		keys = append(keys, c.Key(), c.Key())
		items = append(items, c, c)
	}
	col := collector.New(nil, &emews.Runner{Workers: width, MaxRetries: 3})
	var mu sync.Mutex
	var busy, wall time.Duration
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		_, err := collector.RunKeyed(context.Background(), col, keys, func(i, _ int) (workflow.Measurement, error) {
			j0 := time.Now()
			defer func() {
				mu.Lock()
				busy += time.Since(j0)
				mu.Unlock()
			}()
			w, err := b.Build(items[i])
			if err != nil {
				return workflow.Measurement{}, err
			}
			return w.Measure(nil)
		})
		wall += time.Since(t0)
		if err != nil {
			return fmt.Errorf("collector probe: %w", err)
		}
	}
	st := col.Stats()
	e.set("collector.misses", float64(st.Misses), 2, "probe")
	e.set("collector.hits", float64(st.Hits), 2, "probe")
	e.set("collector.coalesced", float64(st.Coalesced), 2, "probe")
	e.set("emews.retries", float64(st.Retries), 2, "probe")
	e.set("collector.busy_ratio", busy.Seconds()/(width*wall.Seconds()), 2, "probe")
	return nil
}

// tunerProbe runs one small battery cell — RS, AL, GEIST and CEAL on an LV
// ground truth — with every run's events observed.
func tunerProbe(e *env) error {
	var gt *paperexp.GroundTruth
	if len(e.gts) > 0 && e.gts[0] != nil {
		gt = e.gts[0]
	} else {
		var err error
		gt, err = paperexp.BuildGroundTruth(workflow.LV(cluster.Default()), paperexp.BuildOptions{
			PoolSize: e.sc.ServePool, ComponentSamples: max(e.sc.ServePool/5, 1), Seed: e.inputSeed("probe-gt"), Workers: width})
		if err != nil {
			return err
		}
	}
	ts := &tunerStats{}
	log := &runLog{}
	t0 := time.Now()
	_, err := paperexp.RunBattery(paperexp.RunSpec{GT: gt, Obj: paperexp.CompTime, Budget: 25, Algorithms: batteryAlgorithms(),
		Reps: width, Seed: e.inputSeed("probe-battery"), Workers: width, Observe: log.observe})
	wall := time.Since(t0)
	if err != nil {
		return fmt.Errorf("tuner probe: %w", err)
	}
	for _, o := range log.obs {
		ts.add(nil, -1, o.alg, o.evs)
	}
	ts.report(e, "probe")
	e.set("paperexp.rep_busy_ratio", ts.busy.Seconds()/(width*wall.Seconds()), ts.runs, "probe")
	return nil
}
