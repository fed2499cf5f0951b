package main

import (
	"strings"
	"sync"
	"time"

	"ceal/internal/tuner/events"
)

// stampedEvent is one run event with the harness time it was observed at.
type stampedEvent struct {
	Kind  events.Kind
	At    time.Time
	FitNS int64 // ModelTrained.DurationNS
}

// runObserver stamps every event of one Tune run as it arrives.
type runObserver struct {
	alg string
	evs []stampedEvent
}

func (o *runObserver) OnEvent(ev events.Event) {
	se := stampedEvent{Kind: ev.Kind(), At: time.Now()}
	if mt, ok := ev.(*events.ModelTrained); ok {
		se.FitNS = mt.DurationNS
	}
	o.evs = append(o.evs, se)
}

// runLog hands out one runObserver per Tune run (the RunSpec.Observe
// hook) and keeps them for reading once the battery returns.
type runLog struct {
	mu  sync.Mutex
	obs []*runObserver
}

func (l *runLog) observe(_ int, alg string) events.Observer {
	o := &runObserver{alg: alg}
	l.mu.Lock()
	l.obs = append(l.obs, o)
	l.mu.Unlock()
	return o
}

// tunerStats accumulates the phases of many Tune runs.
type tunerStats struct {
	runs, fits                     int
	bootstrap, measure, sel, other time.Duration
	fitReported                    time.Duration        // summed ModelTrained.DurationNS
	busy                           time.Duration        // summed run time
	runMS                          map[string][]float64 // by lower-case algorithm name
}

// add splits one run's event stream into its phases and, when tr is
// non-nil, records them as spans under a tuner.Tune span on one lane:
//
//	bootstrap  run_started → first batch_selected
//	measure    batch_selected → batch_measured (a collector.batch span:
//	           the collector and its dispatcher measure the batch)
//	xgb.fit    the DurationNS ending at each model_trained
//	select     model_trained → next batch_selected
//	other      the rest of run_started → run_finished
func (s *tunerStats) add(tr *tracer, parent int, alg string, evs []stampedEvent) {
	if len(evs) < 2 || evs[0].Kind != events.KindRunStarted || evs[len(evs)-1].Kind != events.KindRunFinished {
		return
	}
	start, end := evs[0].At, evs[len(evs)-1].At
	run := tr.record("tuner.Tune", parent, 1, start, end)
	var boot, meas, fit, sel, fitInBoot time.Duration
	seenBatch := false
	bootSpan := -1
	var lastSelected, lastTrained time.Time
	prev := start
	for _, ev := range evs[1:] {
		switch ev.Kind {
		case events.KindBatchSelected:
			if !seenBatch {
				seenBatch = true
				boot = ev.At.Sub(start)
				bootSpan = tr.record("tuner.bootstrap", run, 1, start, ev.At)
			}
			if !lastTrained.IsZero() {
				sel += ev.At.Sub(lastTrained)
				tr.record("tuner.select", run, 1, lastTrained, ev.At)
				lastTrained = time.Time{}
			}
			lastSelected = ev.At
		case events.KindBatchMeasured:
			if !lastSelected.IsZero() {
				meas += ev.At.Sub(lastSelected)
				tr.record("collector.batch", run, 1, lastSelected, ev.At)
				lastSelected = time.Time{}
			}
		case events.KindModelTrained:
			// Events observed over a stream can arrive bunched, so the fit
			// is clamped to the gap since the previous event.
			d := min(time.Duration(ev.FitNS), ev.At.Sub(prev))
			s.fits++
			s.fitReported += time.Duration(ev.FitNS)
			if seenBatch {
				fit += d
				tr.record("xgb.fit", run, 1, ev.At.Add(-d), ev.At)
			} else {
				fitInBoot += d
			}
			lastTrained = ev.At
		}
		prev = ev.At
	}
	if bootSpan >= 0 && fitInBoot > 0 {
		tr.record("xgb.fit", bootSpan, 1, start, start.Add(fitInBoot))
	}
	total := end.Sub(start)
	s.runs++
	s.bootstrap += boot
	s.measure += meas
	s.sel += sel
	s.other += total - boot - meas - sel - fit
	s.busy += total
	if s.runMS == nil {
		s.runMS = map[string][]float64{}
	}
	name := strings.ToLower(alg)
	s.runMS[name] = append(s.runMS[name], ms(total))
}

// report sets the tuner metrics as per-run means and per-algorithm medians.
func (s *tunerStats) report(e *env, note string) {
	if s.runs == 0 {
		return
	}
	n := float64(s.runs)
	e.set("tuner.bootstrap_ms", ms(s.bootstrap)/n, s.runs, note)
	e.set("tuner.measure_ms", ms(s.measure)/n, s.runs, note)
	e.set("tuner.select_ms", ms(s.sel)/n, s.runs, note)
	e.set("tuner.other_ms", ms(s.other)/n, s.runs, note)
	e.set("xgb.fit_ms", ms(s.fitReported)/n, s.runs, note)
	e.set("xgb.fits", float64(s.fits)/n, s.runs, note)
	for _, alg := range []string{"rs", "al", "geist", "ceal"} {
		if xs := s.runMS[alg]; len(xs) > 0 {
			e.set("tuner.run_ms."+alg, median(xs), len(xs), note)
		}
	}
}
