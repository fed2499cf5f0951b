package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"ceal/internal/cluster"
	"ceal/internal/paperexp"
	"ceal/internal/tuner"
	"ceal/internal/workflow"
)

// batteryCell is one Fig. 5 cell: a workflow, an objective, a budget and
// the base seed of its replications.
type batteryCell struct {
	gt     int // index into the ground truths (LV, HS, GP)
	obj    paperexp.Objective
	budget int
	seed   uint64
}

// batteryCells lists the cells for a workload seed. Every cell draws its
// own replication seeds: a run's cost depends on its problem seed (GEIST's
// by up to 2x), so seeds shared by all cells would let two draws set the
// cost of the whole battery.
func batteryCells(seed uint64, budgets []int) []batteryCell {
	var cells []batteryCell
	for gt := 0; gt < 3; gt++ {
		for _, obj := range []paperexp.Objective{paperexp.ExecTime, paperexp.CompTime} {
			for _, b := range budgets {
				cells = append(cells, batteryCell{gt, obj, b, deriveSeed(seed, fmt.Sprintf("battery-reps/%d", len(cells)))})
			}
		}
	}
	return cells
}

func batteryAlgorithms() []tuner.Algorithm {
	return []tuner.Algorithm{tuner.RS{}, tuner.NewAL(), tuner.NewGEIST(), tuner.NewCEAL()}
}

// runBattery times paperexp.RunBattery over the Fig. 5 cells on ground
// truths built during set-up. No simulation runs while it is timed.
func runBattery(e *env) error {
	// Set-up builds the three ground truths, repeated; setup_s is the
	// median, and the last build is the one tuned on.
	var gts []*paperexp.GroundTruth
	var setups []float64
	for i := 0; i < e.sc.SetupRepeats; i++ {
		t0 := time.Now()
		var err error
		if gts, err = buildGTs(e.sc.Pool, e.sc.CompSamples, e.inputSeed("battery-gt")); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	e.set("setup_s", median(setups), len(setups), "median of ground-truth builds")
	cells := batteryCells(e.seed, e.sc.Budgets)

	var ref []string // round-0 digest per cell
	var normPerf []float64
	var rates []float64
	for pi, tr := range e.phases() {
		ts := &tunerStats{}
		runs := 0
		var batteryWall time.Duration
		wall, rounds, err := e.timed(e.phaseLen(), tr == nil, func(round int) error {
			for ci, c := range cells {
				spec := paperexp.RunSpec{GT: gts[c.gt], Obj: c.obj, Budget: c.budget, Algorithms: batteryAlgorithms(),
					Reps: e.sc.Reps, Seed: c.seed, Workers: width}
				root := tr.begin("paperexp.RunBattery", -1, width)
				log := &runLog{}
				if tr != nil {
					spec.Observe = log.observe
				}
				c0 := time.Now()
				stats, err := paperexp.RunBattery(spec)
				d := time.Since(c0)
				tr.end(root)
				for _, o := range log.obs {
					ts.add(tr, root, o.alg, o.evs)
				}
				batteryWall += d
				n := e.sc.Reps * len(spec.Algorithms)
				e.attempted += n
				if err != nil {
					e.failed += n
					fmt.Fprintf(e.log, "battery cell %d: %v\n", ci, err)
					continue
				}
				runs += n
				dg := statsDigest(stats)
				switch {
				case pi == 0 && round == 0:
					ref = append(ref, dg)
					normPerf = append(normPerf, stats[len(stats)-1].MeanNormPerf())
				case ci < len(ref) && dg != ref[ci]:
					e.failed += n
					e.fail("battery cell %d: AlgStats digest %s != first round %s", ci, dg, ref[ci])
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		rates = append(rates, float64(runs)/wall.Seconds())
		if tr == nil {
			// Rounds repeat identical work, so their median is robust to
			// a round slowed by the host. The first round warms the
			// tuners' caches and ran 10-25% slower than the rest, so it is
			// checked but not timed when later rounds exist.
			if len(rounds) > 2 {
				rounds = rounds[1:]
			}
			perRound := len(cells) * e.sc.Reps * len(batteryAlgorithms())
			var rr, lat []float64
			for _, d := range rounds {
				rr = append(rr, float64(perRound)/d.Seconds())
				lat = append(lat, ms(d))
			}
			e.set("ops_per_s", median(rr), len(rounds), "Tune runs per second, median over rounds after the first")
			e.set("latency_p50_ms", median(lat), len(lat), "whole battery (every cell), median over rounds after the first")
			continue
		}
		e.ledger = tr.ledger(wall, width)
		e.ledger.OverheadRatio = rates[0] / rates[1]
		ts.report(e, "")
		e.set("paperexp.rep_busy_ratio", ts.busy.Seconds()/(width*batteryWall.Seconds()), ts.runs, "Tune run time / (Workers x RunBattery wall)")
	}
	e.set("tuned_norm_perf", mean(normPerf), len(normPerf), "mean CEAL best / pool best over the cells")
	e.gts = gts

	// Output gate: the first round again at width 1.
	for ci, c := range cells {
		if ci >= len(ref) {
			break
		}
		stats, err := paperexp.RunBattery(paperexp.RunSpec{GT: gts[c.gt], Obj: c.obj, Budget: c.budget,
			Algorithms: batteryAlgorithms(), Reps: e.sc.Reps, Seed: c.seed, Workers: 1})
		if err != nil {
			return fmt.Errorf("width-1 reference cell %d: %w", ci, err)
		}
		if dg := statsDigest(stats); dg != ref[ci] {
			e.failed++
			e.fail("battery cell %d: width-1 AlgStats digest %s != width-%d %s", ci, dg, width, ref[ci])
		}
	}
	return nil
}

// buildGTs builds the LV, HS and GP ground truths.
func buildGTs(pool, comp int, seed uint64) ([]*paperexp.GroundTruth, error) {
	var gts []*paperexp.GroundTruth
	for _, b := range workflow.Benchmarks(cluster.Default()) {
		gt, err := paperexp.BuildGroundTruth(b, paperexp.BuildOptions{PoolSize: pool, ComponentSamples: comp, Seed: seed, Workers: width})
		if err != nil {
			return nil, fmt.Errorf("build %s ground truth: %w", b.Name, err)
		}
		gts = append(gts, gt)
	}
	return gts, nil
}

// statsDigest hashes every field of every AlgStats.
func statsDigest(stats []*paperexp.AlgStats) string {
	h := sha256.New()
	for _, s := range stats {
		h.Write([]byte(s.Name))
		hashFloats(h, s.NormPerf, s.MdAPEAll, s.MdAPETop2, s.Spearman, s.LNU, s.Cost)
		for _, r := range s.Recall {
			hashFloats(h, r)
		}
		sw := make([]float64, len(s.SwitchIter))
		for i, v := range s.SwitchIter {
			sw[i] = float64(v)
		}
		hashFloats(h, sw)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
