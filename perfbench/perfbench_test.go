package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"testing"
	"time"
)

// tinyScale runs every workload in about a second.
var tinyScale = scale{
	Pool: 40, CompSamples: 12, Reps: 1, Budgets: []int{10},
	ServePool: 60, ServeBudget: 10, Prefinished: 2,
	SetupRepeats: 1, ProbeCalls: 2, DispatchBatch: 8,
}

func TestInputsDependOnSeedAlone(t *testing.T) {
	for _, w := range workloads {
		a, err := workloadInputs(w.Name, 1, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := workloadInputs(w.Name, 1, tinyScale)
		c, _ := workloadInputs(w.Name, 2, tinyScale)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: inputs differ for the same seed", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: inputs identical for seeds 1 and 2", w.Name)
		}
	}
}

// TestHarnessMatchesBenchmarkFile runs every workload at tiny scale, traced
// and untraced, and checks the names it emits against BENCHMARK.json.
func TestHarnessMatchesBenchmarkFile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemons and runs every workload")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "ceal/cmd/ceal-serve", "ceal/cmd/ceal-worker")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}

	var fileWorkloads, harnessWorkloads []string
	for _, w := range bf.Workloads {
		fileWorkloads = append(fileWorkloads, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		harnessWorkloads = append(harnessWorkloads, w.Name+": "+w.Why)
	}
	sameSet(t, "workloads", fileWorkloads, harnessWorkloads)

	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		d, ok := lookupMetric(m.Name)
		if !ok || d.Layer || d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end %s in BENCHMARK.json does not match the harness table (%+v)", m.Name, d)
		}
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		d, ok := lookupMetric(m.Name)
		if !ok || !d.Layer || d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("per_layer %s in BENCHMARK.json does not match the harness table (%+v)", m.Name, d)
		}
		layer = append(layer, m.Name)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q", w.Name)
		}
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(w, 1, 200*time.Millisecond, traced, tinyScale, "..", bin, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !rec.Correct {
				t.Errorf("%s traced=%v: outputs incorrect: %v (failed %d of %d)", w.Name, traced, rec.Gates, rec.Failed, rec.Attempted)
			}
			for n := range rec.Metrics {
				if !nameRE.MatchString(n) {
					t.Errorf("%s: metric name %q", w.Name, n)
				}
			}
			var got []string
			for n := range emitted(rec) {
				got = append(got, n)
			}
			want := e2e
			if traced {
				want = layer
			}
			sameSet(t, w.Name+" emitted metrics", got, want)
		}
	}
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Errorf("%s: got %v, want %v", what, g, w)
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: got %v, want %v", what, g, w)
			return
		}
	}
}
