package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare mode reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func readReports(path string) ([]*record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []*record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, &r)
	}
	return recs, sc.Err()
}

// compareReports prints, per workload and metric, the new median's change
// as a share of the base median, with the base value. An end-to-end metric
// is "regressed" when its median is worse than the base by more than its
// bound, and "unresolved" when either side's quartile spread is wider than
// the bound and the runs do not separate cleanly. Bounds come from
// BENCHMARK.json, or from the harness table for metrics it does not list;
// per-layer metrics have no bound and are reported as "info".
func compareReports(w io.Writer, benchPath, basePath, newPath string) error {
	bounds := map[string]float64{}
	for _, d := range metricDefs {
		if !d.Layer {
			bounds[d.Name] = d.Bound
		}
	}
	if bf, err := readBenchmarkFile(benchPath); err == nil {
		for _, m := range bf.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	base, err := readReports(basePath)
	if err != nil {
		return err
	}
	cur, err := readReports(newPath)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	collect := func(recs []*record) map[key][]float64 {
		out := map[key][]float64{}
		for _, r := range recs {
			for n, v := range r.Metrics {
				d, ok := lookupMetric(n)
				if !ok || d.Layer != r.Trace {
					continue
				}
				k := key{r.Workload, n}
				out[k] = append(out[k], v.Value)
			}
		}
		return out
	}
	bv, nv := collect(base), collect(cur)
	keys := make([]key, 0, len(bv))
	for k := range bv {
		if _, ok := nv[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Fprintf(w, "%-13s %-32s %12s %12s %9s  %s\n", "workload", "metric", "base", "new", "change", "verdict")
	for _, k := range keys {
		d, _ := lookupMetric(k.metric)
		b, n := bv[k], nv[k]
		bm, nm := median(b), median(n)
		change := (nm - bm) / math.Abs(bm)
		if bm == 0 {
			change = nm - bm
		}
		verdict := "info"
		if !d.Layer {
			verdict = judge(d.Better, bounds[k.metric], b, n)
		}
		fmt.Fprintf(w, "%-13s %-32s %12.5g %12.5g %+8.2f%%  %s (n=%d/%d)\n", k.workload, k.metric, bm, nm, 100*change, verdict, len(b), len(n))
	}
	return nil
}

// judge classifies an end-to-end metric's change from base to new runs.
func judge(better string, bound float64, base, cur []float64) string {
	bm, nm := median(base), median(cur)
	worse := func(a, b float64) bool { // a worse than b
		if better == "higher" {
			return a < b
		}
		return a > b
	}
	// Every new run better than every base run: a clean separation.
	sep := true
	for _, x := range cur {
		for _, y := range base {
			if !worse(y, x) {
				sep = false
			}
		}
	}
	spread := func(xs []float64) float64 {
		q1, q3 := quartiles(xs)
		m := median(xs)
		if m == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(m)
	}
	degrade := (nm - bm) / math.Abs(bm)
	if bm == 0 {
		degrade = nm - bm
	}
	if better == "higher" {
		degrade = -degrade
	}
	switch {
	case sep && degrade < 0:
		return "improved"
	case spread(base) > bound || spread(cur) > bound:
		return "unresolved"
	case degrade > bound:
		return "REGRESSED"
	case degrade < -bound:
		return "improved"
	}
	return "within bound"
}
