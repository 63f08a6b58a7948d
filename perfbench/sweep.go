package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"linkpred/internal/experiments"
	"linkpred/internal/obs"
	"linkpred/internal/predict"
)

// paper-sweep: the paper's own offline pipeline — experiments.LoadNetwork
// and MetricSweep of the Figure 5 set (12 algorithms, among them PPR, LP,
// LRW, Katz, KatzSC and Rescal) over a fixed set of renren transitions at
// reduced scale. The walk and latent families and the experiments fan-out
// do all the work; there is no HTTP, queue, WAL or cluster. Without it the
// experiments layer and the walk family would go unmeasured.

const (
	swScale          = 0.3
	swMaxTransitions = 3
	swMinSweeps      = 3
	swSampleCells    = 3 // cells recomputed directly after the run
)

func sweepConfig(cfg runConfig) experiments.Config {
	c := experiments.TestConfig()
	c.Seed = cfg.seed
	c.Scale = swScale * cfg.scale
	c.MaxTransitions = swMaxTransitions
	return c
}

func runPaperSweep(cfg runConfig) (*report, error) {
	// cmd/experiments ships with telemetry off; the traced run turns it on
	// for every other sweep and reads the program's own span tree.
	obs.Enable(false)
	c := sweepConfig(cfg)
	net, setups, err := timedSetups(cfg, func() (*experiments.Network, error) {
		n := experiments.LoadNetwork(c, "renren")
		if n == nil {
			return nil, errors.New("paper-sweep: no renren preset")
		}
		return n, nil
	}, func(*experiments.Network) {})
	if err != nil {
		return nil, err
	}
	rep := &report{}
	var first []experiments.SweepCell
	var badCell []bool // cells that differed in some sweep
	var untraced, traced []float64
	var layer []map[string]float64
	cpu0 := readCPU()
	start := time.Now()
	for i := 0; ; i++ {
		tracing := cfg.traced && i%2 == 0
		obs.Enable(tracing)
		obs.Reset()
		fresh := &experiments.Network{Cfg: net.Cfg, Trace: net.Trace, Cuts: net.Cuts, Delta: net.Delta}
		t0 := time.Now()
		cells := fresh.MetricSweep(c)
		d := time.Since(t0)
		if tracing {
			traced = append(traced, d.Seconds())
			layer = append(layer, sweepLayers(obs.Snapshot()))
		} else {
			untraced = append(untraced, d.Seconds())
		}
		rep.attempted += len(cells)
		if first == nil {
			first = cells
			badCell = make([]bool, len(cells))
		} else {
			for j := range cells {
				if j >= len(first) || cells[j] != first[j] {
					rep.failed++
					if j < len(badCell) && !badCell[j] {
						badCell[j] = true
						rep.failf("sweep %d: cell %d differs from the first sweep", i, j)
					}
				}
			}
			if len(cells) != len(first) {
				rep.failed++
				rep.failf("sweep %d has %d cells, the first %d", i, len(cells), len(first))
			}
		}
		elapsed := time.Since(start)
		if i+1 >= swMinSweeps && (!cfg.traced || len(untraced) > 0) && elapsed+d > cfg.seconds {
			break
		}
	}
	cpu1 := readCPU()
	obs.Enable(false)
	rss := peakRSSMB()
	sampleFailed := checkCells(cfg, rep, net, c, first)
	if cfg.traced {
		for _, name := range []string{"predict.walk_s", "predict.latent_s", "predict.local_s", "predict.path_s",
			"graph.cut_build_s", "experiments.fanout_efficiency", "trace.unaccounted_share"} {
			var xs []float64
			for _, m := range layer {
				xs = append(xs, m[name])
			}
			unit := "s"
			if name == "experiments.fanout_efficiency" || name == "trace.unaccounted_share" {
				unit = "ratio"
			}
			rep.set(name, unit, median(xs))
		}
		rep.set("runtime.gc_cpu_share", "ratio", gcShare(cpu0, cpu1))
		rep.set("trace.overhead_ratio", "ratio", ratio(median(traced), median(untraced)))
		if s := rep.metrics["trace.unaccounted_share"].Value; s > tolerance {
			cfg.info("stage check: unaccounted share %.4f exceeds the %.2f tolerance", s, tolerance)
		}
		return rep, nil
	}
	cfg.info("sweeps %d: %v s", len(untraced), untraced)
	cfg.info("setup_s runs=%v", setups)
	// The headline latency is one whole sweep's, the rate the cells the
	// sweep completes per second of its wall time: it runs flat out.
	rep.set("setup_s", "s", median(setups))
	rep.set("latency_p50_ms", "ms", 1e3*median(untraced))
	rep.set("max_rate_rps", "1/s", float64(len(first))/median(untraced))
	rep.set("peak_rss_mb", "MiB", rss)
	// Per cell of the sweep plus the recomputed sample, so that the ratio
	// does not depend on how many sweeps fit in the run.
	bad := sampleFailed
	for _, b := range badCell {
		if b {
			bad++
		}
	}
	rep.set("failed_ratio", "ratio", failedRatio(bad, len(first)+swSampleCells))
	return rep, nil
}

// sweepLayers reads one traced sweep's span tree: sweep/<net> with one
// cut<i>/<alg> child per cell, whose "score" child is the prediction.
func sweepLayers(d *obs.Dump) map[string]float64 {
	out := map[string]float64{}
	for _, root := range d.Spans {
		if !strings.HasPrefix(root.Name, "sweep/") {
			continue
		}
		rs, err := time.Parse(time.RFC3339Nano, root.Start)
		if err != nil {
			continue
		}
		wall := time.Duration(root.DurNs)
		var cells []span
		var cellSum time.Duration
		firstCell := rs.Add(wall)
		for _, cell := range root.Children {
			cs, err := time.Parse(time.RFC3339Nano, cell.Start)
			if err != nil {
				continue
			}
			_, alg, _ := strings.Cut(cell.Name, "/")
			cells = append(cells, span{Start: cs, End: cs.Add(time.Duration(cell.DurNs))})
			cellSum += time.Duration(cell.DurNs)
			if cs.Before(firstCell) {
				firstCell = cs
			}
			for _, ch := range cell.Children {
				if ch.Name == "score" {
					out["predict."+familyOf[alg]+"_s"] += float64(ch.DurNs) / 1e9
				}
			}
		}
		build := firstCell.Sub(rs)
		in, _ := union(cells, rs, rs.Add(wall))
		out["graph.cut_build_s"] += build.Seconds()
		out["experiments.fanout_efficiency"] = ratio(float64(cellSum), float64(wall)*float64(runtime.GOMAXPROCS(0)))
		// Wall time neither building cuts nor running a cell: scheduling
		// gaps of the fan-out.
		out["trace.unaccounted_share"] = ratio(float64(wall-build-in), float64(wall))
	}
	return out
}

// checkCells recomputes a seed-chosen sample of cells directly: the
// snapshot at the cut, the truth set of the next cut's new edges, the
// algorithm's top-k and the scores derived from it.
func checkCells(cfg runConfig, rep *report, net *experiments.Network, c experiments.Config, cells []experiments.SweepCell) (failed int) {
	if len(cells) == 0 {
		rep.failf("sweep produced no cells")
		return 0
	}
	algs := map[string]predict.Algorithm{}
	for _, a := range predict.Figure5Set() {
		algs[a.Name()] = a
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	idx := rng.Perm(len(cells))[:min(swSampleCells, len(cells))]
	sort.Ints(idx)
	for _, i := range idx {
		want := cells[i]
		rep.attempted++
		ci := -1
		for j, cut := range net.Cuts {
			if cut.EdgeCount == want.EdgeCount && j+1 < len(net.Cuts) && j == want.CutIdx {
				ci = j
			}
		}
		if ci < 0 {
			rep.failed++
			failed++
			rep.failf("cell %d: cut %d not found", i, want.CutIdx)
			continue
		}
		prev := net.Trace.SnapshotAtEdge(net.Cuts[ci].EdgeCount)
		truth := predict.TruthSet(prev, net.Trace.NewEdgesBetween(net.Cuts[ci], net.Cuts[ci+1]))
		two := 0
		for key := range truth {
			u, v := predict.KeyPair(key)
			if prev.CountCommonNeighbors(u, v) > 0 {
				two++
			}
		}
		k := len(truth)
		opt := c.Opt
		opt.Workers = 0
		correct := predict.CountCorrect(algs[want.Alg].Predict(prev, k, opt), truth)
		got := experiments.SweepCell{
			Alg: want.Alg, CutIdx: ci, EdgeCount: net.Cuts[ci].EdgeCount, K: k, Correct: correct,
			Ratio:    predict.AccuracyRatio(correct, k, prev),
			Accuracy: float64(correct) / float64(k),
			Lambda2:  float64(two) / float64(len(truth)),
		}
		if got != want {
			rep.failed++
			failed++
			rep.failf("cell %d (%s, cut %d): recomputed %+v, swept %+v", i, want.Alg, ci, got, want)
		}
	}
	return failed
}
