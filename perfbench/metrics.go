package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef describes one metric the harness can report.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
	Layer  bool    // per-layer metric, reported by the traced run
	// Listed metrics appear in BENCHMARK.json and on the last output line.
	// Unlisted ones are printed, written to the report file and compared,
	// but are not emitted by every workload or can legitimately read 0.
	Listed bool
}

// metricDefs is the harness's metric table. Every workload emits every
// listed end-to-end metric from its untraced run and every listed per-layer
// metric from its traced run.
var metricDefs = []metricDef{
	// End-to-end, every workload.
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Listed: true},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Listed: true},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Listed: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2, Listed: true},
	// End-to-end, one workload only or possibly 0.
	{Name: "error_rate", Unit: "ratio", Better: "lower", Bound: 0},
	{Name: "tuned_norm_perf", Unit: "ratio", Better: "lower", Bound: 0.01},
	{Name: "run_latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "dedup_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},

	// Per-layer: sim / workflow (serial probe on every workload).
	{Name: "workflow.insitu_us.LV", Unit: "us", Better: "lower", Layer: true, Listed: true},
	{Name: "workflow.insitu_us.HS", Unit: "us", Better: "lower", Layer: true, Listed: true},
	{Name: "workflow.insitu_us.GP", Unit: "us", Better: "lower", Layer: true, Listed: true},
	{Name: "workflow.solo_us", Unit: "us", Better: "lower", Layer: true, Listed: true},
	{Name: "workflow.allocs_per_insitu.LV", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "workflow.allocs_per_insitu.HS", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "workflow.allocs_per_insitu.GP", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "sim.virtual_per_host", Unit: "s/s", Better: "higher", Layer: true, Listed: true},
	// collector / emews.
	{Name: "collector.misses", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "collector.busy_ratio", Unit: "ratio", Better: "higher", Layer: true, Listed: true},
	{Name: "collector.hits", Unit: "count", Better: "higher", Layer: true},
	{Name: "collector.coalesced", Unit: "count", Better: "higher", Layer: true},
	{Name: "emews.retries", Unit: "count", Better: "lower", Layer: true},
	// tuner / xgb / acm, per Tune run.
	{Name: "tuner.bootstrap_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "tuner.measure_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "tuner.select_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "tuner.other_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "xgb.fit_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "xgb.fits", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "tuner.run_ms.rs", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "tuner.run_ms.al", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "tuner.run_ms.geist", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "tuner.run_ms.ceal", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	// paperexp.
	{Name: "paperexp.rep_busy_ratio", Unit: "ratio", Better: "higher", Layer: true, Listed: true},
	// service / dispatch / worker.
	{Name: "service.submit_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "service.queue_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "service.refused", Unit: "count", Better: "lower", Layer: true},
	{Name: "dispatch.remote_batch_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "dispatch.local_batch_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "dispatch.transport_ratio", Unit: "ratio", Better: "lower", Layer: true, Listed: true},
	{Name: "dispatch.retries", Unit: "count", Better: "lower", Layer: true},
	{Name: "worker.requests", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "worker.items", Unit: "count", Better: "lower", Layer: true, Listed: true},
	{Name: "worker.errors", Unit: "count", Better: "lower", Layer: true},
	// histdb.
	{Name: "histdb.replay_ms", Unit: "ms", Better: "lower", Layer: true, Listed: true},
	{Name: "histdb.by_spec_us", Unit: "us", Better: "lower", Layer: true, Listed: true},
	{Name: "histdb.bytes_per_run", Unit: "B", Better: "lower", Layer: true, Listed: true},
	// The traced phase's own account (see ledger).
	{Name: "trace.wall_s", Unit: "s", Better: "lower", Layer: true},
	{Name: "trace.layer_self_s", Unit: "s", Better: "lower", Layer: true},
	{Name: "trace.remainder_s", Unit: "s", Better: "lower", Layer: true},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Layer: true, Listed: true},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`              // samples behind the value
	Note  string  `json:"note,omitempty"` // e.g. which percentile, or "probe"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method,
// which extrapolates beyond the extreme samples for small n).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 0 {
			return math.NaN(), math.NaN()
		}
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail returns the highest of a fixed percentile ladder that has at least
// ten samples beyond it, with the percentile's name; ok is false when even
// the median has fewer than ten samples beyond it.
func tail(xs []float64) (v float64, name string, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if n*(1-p/100) >= 10 {
			k := int(math.Ceil(p/100*n)) - 1
			return s[k], fmt.Sprintf("p%g", p), true
		}
	}
	return 0, "", false
}
