package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ceal/internal/cluster"
	"ceal/internal/dispatch"
	"ceal/internal/emews"
	"ceal/internal/histdb"
	"ceal/internal/live"
	"ceal/internal/paperexp"
	"ceal/internal/service"
	"ceal/internal/tuner/events"
	"ceal/internal/workflow"
)

// daemon is one started ceal-serve or ceal-worker process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been waited for
}

// startDaemon starts bin with args (which must include -addr
// 127.0.0.1:0) and returns once it prints its listening address.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the harness even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				host, _, _ := strings.Cut(rest, " ")
				select {
				case addr <- host:
				default:
				}
			}
		}
		_ = cmd.Wait()
		close(d.done)
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("%s exited before listening", filepath.Base(bin))
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not start listening", filepath.Base(bin))
	}
}

// stop interrupts the daemon (drain) and waits for it, killing it after a
// grace period.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGINT)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// deployment is ceal-serve with its remote workers.
type deployment struct {
	serve   *daemon
	workers []*daemon
	store   string
}

func deploy(e *env) (*deployment, error) {
	store, err := os.MkdirTemp(e.work, "store-")
	if err != nil {
		return nil, err
	}
	dep := &deployment{store: store}
	var urls []string
	for i := 0; i < width; i++ {
		w, err := startDaemon(filepath.Join(e.bin, "ceal-worker"), "-addr", "127.0.0.1:0", "-workers", "1")
		if err != nil {
			dep.stop()
			return nil, err
		}
		dep.workers = append(dep.workers, w)
		urls = append(urls, w.url)
	}
	s, err := startDaemon(filepath.Join(e.bin, "ceal-serve"), "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(width),
		"-store", dep.store, "-workers-remote", strings.Join(urls, ","))
	if err != nil {
		dep.stop()
		return nil, err
	}
	dep.serve = s
	return dep, nil
}

func (dep *deployment) workerURLs() []string {
	var urls []string
	for _, w := range dep.workers {
		urls = append(urls, w.url)
	}
	return urls
}

// pids returns the process IDs of the daemons.
func (dep *deployment) pids() []int {
	var pids []int
	for _, d := range append([]*daemon{dep.serve}, dep.workers...) {
		pids = append(pids, d.cmd.Process.Pid)
	}
	return pids
}

// stop stops the daemons.
func (dep *deployment) stop() {
	for _, d := range append([]*daemon{dep.serve}, dep.workers...) {
		if d != nil {
			d.stop()
		}
	}
}

var httpClient = &http.Client{Timeout: 2 * time.Minute}

// serveSpec returns the i-th generated spec of a stream: CEAL on LV, HS and
// GP in turn, alternating objectives, each with its own seed.
func serveSpec(seed uint64, stream string, i int, sc scale) histdb.Spec {
	return histdb.Spec{
		Benchmark: []string{"LV", "HS", "GP"}[i%3],
		Algorithm: "ceal",
		Objective: []string{"comp", "exec"}[(i/3)%2],
		Budget:    sc.ServeBudget,
		Pool:      sc.ServePool,
		Seed:      deriveSeed(seed, fmt.Sprintf("%s/%d", stream, i)) % (1 << 40),
	}
}

// submitted is the part of a POST /v1/runs reply the harness reads.
type submitted struct {
	ID      string `json:"id"`
	Deduped bool   `json:"deduped"`
}

// opResult is one closed-loop operation.
type opResult struct {
	spec     histdb.Spec
	dedup    bool
	id       string
	status   int
	err      error
	post     time.Time // POST sent
	posted   time.Time // POST answered
	started  time.Time // run_started seen on the event stream
	finished time.Time // run_finished seen (dedup: = posted)
	evs      []stampedEvent
}

func (o *opResult) latency() time.Duration { return o.finished.Sub(o.post) }

// submit POSTs a spec; for a fresh run it then follows the run's event
// stream to run_finished.
func submit(ctx context.Context, base string, spec histdb.Spec, follow bool) *opResult {
	o := &opResult{spec: spec, dedup: !follow}
	body, _ := json.Marshal(spec)
	o.post = time.Now()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/runs", bytes.NewReader(body))
	resp, err := httpClient.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.posted = time.Now()
	o.status = resp.StatusCode
	if err != nil {
		o.err = err
		return o
	}
	var sub submitted
	if err := json.Unmarshal(raw, &sub); err != nil {
		o.err = fmt.Errorf("decode submit reply: %w", err)
		return o
	}
	o.id = sub.ID
	if !follow {
		o.finished = o.posted
		if !sub.Deduped || resp.StatusCode != http.StatusOK {
			o.err = fmt.Errorf("resubmission answered %d deduped=%v", resp.StatusCode, sub.Deduped)
		}
		return o
	}
	if resp.StatusCode != http.StatusCreated {
		o.err = fmt.Errorf("fresh submission answered %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return o
	}
	o.err = followEvents(ctx, base, o)
	return o
}

// followEvents reads the run's SSE stream, stamping each event on arrival.
func followEvents(ctx context.Context, base string, o *opResult) error {
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/runs/"+o.id+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		at := time.Now()
		var ev struct {
			Event      events.Kind `json:"event"`
			DurationNS int64       `json:"duration_ns"`
		}
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("decode event: %w", err)
		}
		o.evs = append(o.evs, stampedEvent{Kind: ev.Event, At: at, FitNS: ev.DurationNS})
		switch ev.Event {
		case events.KindRunStarted:
			o.started = at
		case events.KindRunFinished:
			o.finished = at
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("run %s: event stream ended without run_finished", o.id)
}

// serveSession is a deployment with runs finished during set-up.
type serveSession struct {
	dep    *deployment
	pre    []histdb.Spec
	preIDs []string
	next   atomic.Int64 // next operation index
}

// runServeRemote measures closed-loop clients against ceal-serve backed by
// two ceal-workers: three in four operations submit a fresh CEAL spec and
// follow its event stream to run_finished; one in four resubmits a spec
// finished during set-up and must be answered from the history database.
func runServeRemote(e *env) error {
	// Set-up starts the daemons and finishes the resubmitted specs into a
	// fresh store, repeated; setup_s is the median, and the last
	// deployment is the one measured.
	var ss *serveSession
	var setups []float64
	for i := 0; i < e.sc.SetupRepeats; i++ {
		if ss != nil {
			ss.dep.stop()
		}
		t0 := time.Now()
		var err error
		if ss, err = openSession(e); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer ss.dep.stop()
	e.daemons = ss.dep.pids()
	e.set("setup_s", median(setups), len(setups), "median of deployments with runs finished into the store")
	return ss.measure(e, e.phaseLen(), 0)
}

func openSession(e *env) (*serveSession, error) {
	dep, err := deploy(e)
	if err != nil {
		return nil, err
	}
	ss := &serveSession{dep: dep}
	ctx := context.Background()
	var wg sync.WaitGroup
	res := make([]*opResult, e.sc.Prefinished)
	for k := range res {
		ss.pre = append(ss.pre, serveSpec(e.seed, "pre", k, e.sc))
	}
	sem := make(chan struct{}, width)
	for k := range res {
		wg.Add(1)
		sem <- struct{}{}
		go func(k int) {
			defer wg.Done()
			defer func() { <-sem }()
			res[k] = submit(ctx, dep.serve.url, ss.pre[k], true)
		}(k)
	}
	wg.Wait()
	for k, o := range res {
		if o.err != nil {
			dep.stop()
			return nil, fmt.Errorf("set-up run %d: %w", k, o.err)
		}
		ss.preIDs = append(ss.preIDs, o.id)
	}
	return ss, nil
}

// measure runs the closed loop for each phase (or, when ops > 0, exactly
// ops operations in one traced phase — the layer probe), then checks the
// outputs and takes the layer measurements.
func (ss *serveSession) measure(e *env, length time.Duration, ops int) error {
	ctx := context.Background()
	phases := e.phases()
	if ops > 0 {
		phases = []*tracer{newTracer()}
	}
	var all []*opResult
	var rates []float64
	for _, tr := range phases {
		before := scrapeAll(ss.dep)
		var mu sync.Mutex
		var results []*opResult
		var peaksDone <-chan struct{}
		if tr == nil && ops == 0 {
			peaksDone = e.windowPeaks(length, 5)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < width; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if ops == 0 && time.Since(start) >= length {
						return
					}
					i := int(ss.next.Add(1) - 1)
					if ops > 0 && i >= ops {
						return
					}
					var o *opResult
					if i%4 == 3 {
						k := (i / 4) % len(ss.pre)
						o = submit(ctx, ss.dep.serve.url, ss.pre[k], false)
						if o.err == nil && o.id != ss.preIDs[k] {
							o.err = fmt.Errorf("resubmission answered with run %s, stored run is %s", o.id, ss.preIDs[k])
						}
					} else {
						o = submit(ctx, ss.dep.serve.url, serveSpec(e.seed, "fresh", i, e.sc), true)
					}
					mu.Lock()
					results = append(results, o)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		if peaksDone != nil {
			<-peaksDone
		}
		after := scrapeAll(ss.dep)

		var fresh, dedup, submitMS, queueMS []float64
		done := 0
		refused := 0
		ts := &tunerStats{}
		for _, o := range results {
			e.attempted++
			if o.status == http.StatusTooManyRequests || o.status >= 500 {
				refused++
			}
			if o.err != nil {
				e.failed++
				fmt.Fprintf(e.log, "serve op %s: %v\n", o.spec.Key(), o.err)
				continue
			}
			done++
			if o.dedup {
				dedup = append(dedup, ms(o.latency()))
				tr.record("histdb.dedup", -1, 1, o.post, o.finished)
				continue
			}
			fresh = append(fresh, ms(o.latency()))
			submitMS = append(submitMS, ms(o.posted.Sub(o.post)))
			queueMS = append(queueMS, ms(o.started.Sub(o.post)))
			root := tr.record("client.run", -1, 1, o.post, o.finished)
			tr.record("service.submit", root, 1, o.post, o.posted)
			tr.record("service.queue", root, 1, o.posted, o.started)
			ts.add(tr, root, "ceal", o.evs)
		}
		all = append(all, results...)
		rates = append(rates, float64(done)/wall.Seconds())
		if tr == nil {
			e.set("ops_per_s", windowRate(results, start, wall, 5), done, "Tune runs (fresh and deduplicated) per second, median over 5 windows")
			e.set("latency_p50_ms", median(fresh), len(fresh), "fresh spec: POST to run_finished")
			if v, p, ok := tail(fresh); ok {
				e.set("run_latency_tail_ms", v, len(fresh), p)
			}
			e.set("dedup_latency_p50_ms", median(dedup), len(dedup), "resubmitted spec: POST to result")
			continue
		}
		if ops == 0 {
			e.ledger = tr.ledger(wall, width)
			e.ledger.OverheadRatio = rates[0] / rates[1]
		}
		note := ""
		if ops > 0 {
			note = "probe"
		}
		ts.report(e, note)
		e.set("service.submit_ms", median(submitMS), len(submitMS), note)
		e.set("service.queue_ms", median(queueMS), len(queueMS), note)
		e.set("service.refused", float64(refused), len(results), note)
		e.set("worker.requests", after["ceal_worker_requests_total"]-before["ceal_worker_requests_total"], len(results), note)
		e.set("worker.items", after["ceal_worker_items_total"]-before["ceal_worker_items_total"], len(results), note)
		e.set("worker.errors", after["ceal_worker_errors_total"]-before["ceal_worker_errors_total"], len(results), note)
		e.set("dispatch.retries", after["ceal_dispatch_retries_total"]-before["ceal_dispatch_retries_total"], len(results), note)
	}

	checkServeResults(e, ss.dep, all)
	if e.traced || ops > 0 {
		note := ""
		if ops > 0 {
			note = "probe"
		}
		if err := dispatchProbe(e, ss.dep, note); err != nil {
			return err
		}
		if err := histdbProbe(e, ss, note); err != nil {
			return err
		}
	}
	return nil
}

// windowRate splits a phase into n equal windows and returns the median
// over them of the operations completed per second. Each successful
// operation counts once, spread evenly over its POST-to-result interval,
// so a window's rate is not quantised to whole operations. A stall of a
// few seconds on a shared host then moves one window, not the run's rate.
func windowRate(ops []*opResult, start time.Time, wall time.Duration, n int) float64 {
	win := wall / time.Duration(n)
	credit := make([]float64, n)
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		a, b := o.post.Sub(start), max(o.finished.Sub(start), o.post.Sub(start)+1)
		for w := range credit {
			lo, hi := max(a, time.Duration(w)*win), min(b, time.Duration(w+1)*win)
			if hi > lo {
				credit[w] += float64(hi-lo) / float64(b-a)
			}
		}
	}
	rates := make([]float64, n)
	for w, c := range credit {
		rates[w] = c / win.Seconds()
	}
	return median(rates)
}

// windowPeaks appends the peak resident set of each of n equal windows of
// length, starting now, to e.peaks; the returned channel is closed after the
// last window.
func (e *env) windowPeaks(length time.Duration, n int) <-chan struct{} {
	e.roundPeak()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for w := 1; w <= n; w++ {
			time.Sleep(time.Until(start.Add(length * time.Duration(w) / time.Duration(n))))
			e.peaks = append(e.peaks, e.roundPeak())
		}
	}()
	return done
}

// scrapeAll sums the /metrics counters of ceal-serve and the workers.
func scrapeAll(dep *deployment) map[string]float64 {
	sum := map[string]float64{}
	for _, u := range append([]string{dep.serve.url}, dep.workerURLs()...) {
		resp, err := httpClient.Get(u + "/metrics")
		if err != nil {
			continue
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) == 2 {
				v, _ := strconv.ParseFloat(f[1], 64)
				sum[f[0]] += v
			}
		}
		resp.Body.Close()
	}
	return sum
}

// checkServeResults compares every fresh result byte for byte with the
// same spec tuned in-process.
func checkServeResults(e *env, dep *deployment, ops []*opResult) {
	var fresh []*opResult
	for _, o := range ops {
		if o.err == nil && !o.dedup {
			fresh = append(fresh, o)
		}
	}
	bad := make([]string, len(fresh))
	var wg sync.WaitGroup
	sem := make(chan struct{}, width)
	for i, o := range fresh {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, o *opResult) {
			defer wg.Done()
			defer func() { <-sem }()
			bad[i] = compareResult(dep.serve.url, o)
		}(i, o)
	}
	wg.Wait()
	for _, b := range bad {
		if b != "" {
			e.failed++
			e.fail("%s", b)
		}
	}
}

func compareResult(base string, o *opResult) string {
	resp, err := httpClient.Get(base + "/v1/runs/" + o.id)
	if err != nil {
		return fmt.Sprintf("fetch run %s: %v", o.id, err)
	}
	defer resp.Body.Close()
	var rec struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		return fmt.Sprintf("decode run %s: %v", o.id, err)
	}
	p, alg, err := service.BuildSpec(o.spec)
	if err != nil {
		return fmt.Sprintf("build spec %s: %v", o.spec.Key(), err)
	}
	res, err := alg.Tune(p, o.spec.Normalize().Budget)
	if err != nil {
		return fmt.Sprintf("in-process tune %s: %v", o.spec.Key(), err)
	}
	want, _ := json.Marshal(res)
	if !bytes.Equal(want, rec.Result) {
		return fmt.Sprintf("run %s (%s, state %s): served result differs from the in-process result", o.id, o.spec.Key(), rec.State)
	}
	return ""
}

// dispatchProbe sends one fixed LV batch through dispatch.NewRemote to the
// running workers and through dispatch.NewLocal, and checks they agree.
func dispatchProbe(e *env, dep *deployment, note string) error {
	b := workflow.LV(cluster.Default())
	seed := e.inputSeed("dispatch")
	p := live.NewProblem(b, paperexp.CompTime, e.sc.DispatchBatch, seed)
	batch := make([]dispatch.Item, len(p.Pool))
	for i, c := range p.Pool {
		batch[i] = dispatch.Item{Seq: i, Kind: dispatch.KindWorkflow, Cfg: c}
	}
	remote := dispatch.NewRemote(dep.workerURLs(), dispatch.Job{Benchmark: "LV", Objective: "comp", Seed: seed})
	local := dispatch.NewLocal(&live.Evaluator{Bench: b, Obj: paperexp.CompTime, Seed: seed}, &emews.Runner{Workers: width, MaxRetries: 3})
	var rt, lt []float64
	var rv, lv []float64
	for rep := 0; rep < 3; rep++ {
		for _, side := range []struct {
			d    dispatch.Dispatcher
			into *[]float64
			vals *[]float64
		}{{remote, &rt, &rv}, {local, &lt, &lv}} {
			t0 := time.Now()
			ms_, err := side.d.Dispatch(context.Background(), batch)
			*side.into = append(*side.into, ms(time.Since(t0)))
			if err != nil {
				return fmt.Errorf("dispatch probe: %w", err)
			}
			vals, _, err := dispatch.ByIndex(batch, ms_)
			if err != nil {
				return fmt.Errorf("dispatch probe: %w", err)
			}
			*side.vals = vals
		}
	}
	for i := range rv {
		if rv[i] != lv[i] {
			e.failed++
			e.fail("dispatch probe: remote value %d = %g, local %g", i, rv[i], lv[i])
			break
		}
	}
	what := fmt.Sprintf("%d-config LV batch %s", len(batch), note)
	e.set("dispatch.remote_batch_ms", median(rt), len(rt), what)
	e.set("dispatch.local_batch_ms", median(lt), len(lt), what)
	e.set("dispatch.transport_ratio", median(rt)/median(lt), len(rt), "remote / local "+note)
	return nil
}

// histdbProbe replays a copy of the store the workload wrote and times
// BySpec lookups of the resubmitted specs.
func histdbProbe(e *env, ss *serveSession, note string) error {
	cp := ss.dep.store + "-copy"
	var bytesTotal int64
	if err := filepath.Walk(ss.dep.store, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(ss.dep.store, p)
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		bytesTotal += int64(len(b))
		if err := os.MkdirAll(filepath.Dir(filepath.Join(cp, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(cp, rel), b, 0o644)
	}); err != nil {
		return fmt.Errorf("copy store: %w", err)
	}
	var replay []float64
	var st *histdb.FileStore
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		s, err := histdb.OpenFileStore(cp)
		replay = append(replay, ms(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("replay store: %w", err)
		}
		if st != nil {
			st.Close()
		}
		st = s
	}
	defer st.Close()
	runs := len(st.List())
	const lookups = 2000
	t0 := time.Now()
	for n := 0; n < lookups; n++ {
		k := n % len(ss.pre)
		rec, ok := st.BySpec(ss.pre[k].Key())
		if !ok || rec.ID != ss.preIDs[k] {
			e.failed++
			e.fail("histdb: BySpec(%s) on the replayed store did not return run %s", ss.pre[k].Key(), ss.preIDs[k])
			break
		}
	}
	e.set("histdb.replay_ms", median(replay), len(replay), fmt.Sprintf("%d runs %s", runs, note))
	e.set("histdb.by_spec_us", us(time.Since(t0))/lookups, lookups, note)
	e.set("histdb.bytes_per_run", float64(bytesTotal)/float64(max(runs, 1)), runs, note)
	return nil
}
