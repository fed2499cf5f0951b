// Command perfbench is the CEAL reproduction's benchmark harness. It drives
// the library and the ceal-serve / ceal-worker daemons from outside, times
// calls into each layer's public functions, checks every output, and prints
// one report per run.
//
//	perfbench --workload gt-build --seed 1 --seconds 10 --trace 0
//	perfbench --workload all --seed 1 --seconds 10 --trace 0
//	perfbench --compare base.jsonl --against new.jsonl
//
// Normally started through run.sh, which builds this program and the
// daemons first. With --trace 0 it measures the end-to-end metrics; with
// --trace 1 it measures the same work once untraced and once traced, and
// reports the per-layer metrics, the per-layer time ledger and the tracing
// overhead. The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"ceal/internal/paperexp"
)

// workload is one benchmark input set.
type workload struct {
	Name string
	Why  string
	run  func(e *env) error
}

var workloads = []workload{
	{Name: "gt-build", Why: "ground-truth builds of LV, HS and GP: almost all simulator and workflow time, no ML", run: runGTBuild},
	{Name: "battery", Why: "Fig. 5 tuning battery on prebuilt ground truths: the tuner, xgb and selection stack, no simulation", run: runBattery},
	{Name: "serve-remote", Why: "closed-loop clients against ceal-serve with two ceal-workers: service, dispatch, worker and histdb, fresh and dedup", run: runServeRemote},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes every workload; tests shrink it.
type scale struct {
	Pool, CompSamples int   // gt-build and battery ground truths
	Reps              int   // battery replications per cell
	Budgets           []int // battery budgets
	ServePool         int   // serve-remote spec pool size
	ServeBudget       int   // serve-remote spec budget
	Prefinished       int   // serve-remote specs finished during set-up
	SetupRepeats      int   // set-ups behind each setup_s median
	ProbeCalls        int   // serial workflow probe calls per benchmark
	DispatchBatch     int   // configurations in the dispatch transport probe
}

var fullScale = scale{
	Pool: 2000, CompSamples: 500, Reps: 2, Budgets: []int{25, 50, 100},
	ServePool: 2000, ServeBudget: 50, Prefinished: 8,
	SetupRepeats: 3, ProbeCalls: 12, DispatchBatch: 64,
}

// width is the parallel width of every workload: collector runner width,
// battery Workers, closed-loop clients, ceal-serve -workers.
const width = 2

// env is one run's state.
type env struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	sc      scale
	bin     string // directory holding ceal-serve and ceal-worker
	work    string // scratch directory inside the checkout
	log     io.Writer

	metrics   map[string]value
	attempted int
	failed    int
	gates     []string // failed output checks
	ledger    *ledger
	// daemons are the process IDs of the started daemons being measured;
	// peaks are the peak resident sets of the timed rounds or windows.
	daemons []int
	peaks   []float64
	// gts are the ground truths the workload built, reused by the
	// tuner probe.
	gts []*paperexp.GroundTruth
}

// set records a metric; a metric measured by the workload itself wins over
// one filled in later by a probe.
func (e *env) set(name string, v float64, n int, note string) {
	if _, ok := e.metrics[name]; ok {
		return
	}
	d, ok := lookupMetric(name)
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	e.metrics[name] = value{Value: v, Unit: d.Unit, N: n, Note: note}
}

func (e *env) has(name string) bool { _, ok := e.metrics[name]; return ok }

// fail records a failed output check.
func (e *env) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.gates = append(e.gates, msg)
	fmt.Fprintln(e.log, "GATE FAILED:", msg)
}

// inputSeed derives a per-purpose seed from the workload seed, so every
// generated input depends on --seed alone.
func (e *env) inputSeed(purpose string) uint64 { return deriveSeed(e.seed, purpose) }

func deriveSeed(seed uint64, purpose string) uint64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	var s uint64
	for _, b := range h[:8] {
		s = s<<8 | uint64(b)
	}
	return s | 1
}

// phases returns the timed phases of a run: one untraced phase of the full
// length, or in a traced run an untraced and a traced phase of half length
// each (their ratio is the tracing overhead).
func (e *env) phases() []*tracer {
	if !e.traced {
		return []*tracer{nil}
	}
	return []*tracer{nil, newTracer()}
}

func (e *env) phaseLen() time.Duration {
	if e.traced {
		return e.seconds / 2
	}
	return e.seconds
}

// stamp identifies the code and host a report was measured on.
type stamp struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Seed       uint64 `json:"seed"`
}

func makeStamp(root string, seed uint64) stamp {
	st := stamp{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Seed: seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Commit = s.Value
			}
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	st.SourceHash = sourceHash(root)
	return st
}

// sourceHash digests the Go sources and module files of the checkout — the
// code identity when the checkout carries no version-control metadata.
func sourceHash(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// record is one run's report, as written to --report files.
type record struct {
	Workload  string           `json:"workload"`
	Trace     bool             `json:"trace"`
	Seconds   float64          `json:"seconds"`
	Stamp     stamp            `json:"stamp"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Gates     []string         `json:"failed_gates,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	Ledger    *ledger          `json:"ledger,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		name    = fl.String("workload", "", "workload: gt-build, battery, serve-remote, or all of them in turn")
		seed    = fl.Uint64("seed", 1, "workload seed")
		seconds = fl.Float64("seconds", 10, "measured seconds per run")
		trace   = fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
		root    = fl.String("root", ".", "checkout root")
		bin     = fl.String("bin", ".bench_build/bin", "directory holding ceal-serve and ceal-worker")
		report  = fl.String("report", "", "append this run's full report as one JSON line to this file")
		base    = fl.String("compare", "", "compare mode: base report file")
		against = fl.String("against", "", "compare mode: new report file")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *base != "" {
		if err := compareReports(stdout, filepath.Join(*root, "BENCHMARK.json"), *base, *against); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (want gt-build, battery, serve-remote or all)\n", *name)
			return 2
		}
		selected = []workload{w}
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	for _, w := range selected {
		rec, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullScale, *root, *bin, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if *report != "" {
			if err := appendReport(*report, rec); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
		}
		printResult(stdout, rec)
	}
	return 0
}

// runWorkload runs one workload and assembles its report.
func runWorkload(w workload, seed uint64, seconds time.Duration, traced bool, sc scale, root, bin string, log io.Writer) (*record, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(absRoot, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(work)
	e := &env{
		seed: seed, seconds: seconds, traced: traced, sc: sc,
		bin: bin, work: work, log: log,
		metrics: map[string]value{},
	}
	if !filepath.IsAbs(e.bin) {
		e.bin = filepath.Join(absRoot, e.bin)
	}
	st := makeStamp(absRoot, seed)
	fmt.Fprintf(log, "perfbench %s seed=%d seconds=%g trace=%v commit=%s source=%s go=%s nproc=%d gomaxprocs=%d cpu=%q\n",
		w.Name, seed, seconds.Seconds(), traced, st.Commit, st.SourceHash, st.GoVersion, st.NProc, st.GOMAXPROCS, st.CPUModel)
	if err := w.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if traced {
		if err := fillLayers(e); err != nil {
			return nil, fmt.Errorf("%s: layer probes: %w", w.Name, err)
		}
	}
	e.set("peak_rss_mb", median(e.peaks), len(e.peaks), "VmHWM of the harness and its daemons per timed round or window, median")
	errRate := 0.0
	if e.attempted > 0 {
		errRate = float64(e.failed) / float64(e.attempted)
	}
	e.set("error_rate", errRate, e.attempted, "")
	return &record{
		Workload: w.Name, Trace: traced, Seconds: seconds.Seconds(), Stamp: st,
		Correct: len(e.gates) == 0 && e.failed == 0 && e.attempted > 0, Attempted: e.attempted, Failed: e.failed,
		Gates: e.gates, Metrics: e.metrics, Ledger: e.ledger,
	}, nil
}

// roundPeak returns the peak resident set in MB, summed over the harness
// and e.daemons, since the previous call, and resets each process's peak to
// its current resident set. A median of per-round peaks is steady where one
// peak over the whole run depends on when a garbage collection happened to
// run.
func (e *env) roundPeak() float64 {
	pids := append([]int{os.Getpid()}, e.daemons...)
	mb := 0.0
	for _, pid := range pids {
		mb += procRSS(pid)
		_ = os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
	}
	return mb
}

// procRSS reads a process's VmHWM (peak resident set) in MB.
func procRSS(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// emitted returns the metrics of the last output line: the listed
// end-to-end metrics of an untraced run, or the listed per-layer metrics of
// a traced one.
func emitted(rec *record) map[string]value {
	out := map[string]value{}
	for _, d := range metricDefs {
		if !d.Listed || d.Layer != rec.Trace {
			continue
		}
		if v, ok := rec.Metrics[d.Name]; ok {
			out[d.Name] = v
		}
	}
	return out
}

func printResult(w io.Writer, rec *record) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rec.Metrics[n]
		note := ""
		if v.Note != "" {
			note = " (" + v.Note + ")"
		}
		fmt.Fprintf(w, "metric %s %s = %.6g %s n=%d%s\n", rec.Workload, n, v.Value, v.Unit, v.N, note)
	}
	if rec.Ledger != nil {
		rec.Ledger.print(w, rec.Workload)
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]out{}
	for n, v := range emitted(rec) {
		ms[n] = out{v.Value, v.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, ms})
	fmt.Fprintln(w, string(line))
}

func appendReport(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs f in rounds until the phase length has elapsed (always at
// least one round) and returns the phase wall time and each round's time.
// With peaks, each round's peak resident set is appended to e.peaks.
func (e *env) timed(length time.Duration, peaks bool, f func(round int) error) (time.Duration, []time.Duration, error) {
	if peaks {
		e.roundPeak()
	}
	start := time.Now()
	var rounds []time.Duration
	for round := 0; round == 0 || time.Since(start) < length; round++ {
		r0 := time.Now()
		if err := f(round); err != nil {
			return 0, nil, err
		}
		rounds = append(rounds, time.Since(r0))
		if peaks {
			e.peaks = append(e.peaks, e.roundPeak())
		}
	}
	return time.Since(start), rounds, nil
}

// workloadInputs returns the generated inputs of a workload for a seed, as
// JSON: what the program under test receives, and nothing else.
func workloadInputs(name string, seed uint64, sc scale) ([]byte, error) {
	pools := func(gtSeed uint64) (map[string]any, error) {
		gts, err := buildGTs(sc.Pool, sc.CompSamples, gtSeed)
		if err != nil {
			return nil, err
		}
		out := map[string]any{}
		for _, gt := range gts {
			out[gt.Bench.Name] = gt.Pool
		}
		return out, nil
	}
	var in []any
	switch name {
	case "gt-build":
		p, err := pools(deriveSeed(seed, "gt-build"))
		if err != nil {
			return nil, err
		}
		in = append(in, p)
	case "battery":
		p, err := pools(deriveSeed(seed, "battery-gt"))
		if err != nil {
			return nil, err
		}
		in = append(in, p)
		for _, c := range batteryCells(seed, sc.Budgets) {
			in = append(in, c.seed)
		}
	case "serve-remote":
		for i := 0; i < sc.Prefinished; i++ {
			in = append(in, serveSpec(seed, "pre", i, sc))
		}
		for i := 0; i < 8; i++ {
			in = append(in, serveSpec(seed, "fresh", i, sc))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return json.Marshal(in)
}
