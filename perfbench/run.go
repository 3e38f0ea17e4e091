package main

import (
	"fmt"
	"time"

	"minkowski/perfbench/layers"
)

// checkRepeat fails op when an earlier operation on the same world
// produced different digests.
func checkRepeat(seen map[int64]string, op *opResult) {
	ref, ok := seen[op.world]
	if !ok {
		seen[op.world] = op.digest
		return
	}
	if ref != op.digest && op.problem == "" {
		op.problem = "digest differs from an earlier run of the same world: " + ref
	}
}

// runUntraced measures the end-to-end metrics. Operation i runs world
// i of the seed, untraced, for as long as the budget allows; the rates
// pool every operation's simulated time, wall time, CPU and allocation,
// so a run averages over several worlds. Workloads with a reference run
// world 0 once first, unmeasured: it warms the process, and the
// measured run of world 0 must repeat its digests.
func runUntraced(w workload, seed int64, budget time.Duration) result {
	start := time.Now()
	t := tally{workload: w.name}
	seen := map[int64]string{}
	var setups, heaps []float64
	var simH, wall, cpu, alloc float64
	if w.setup != nil {
		for i := 0; i < setupProbes; i++ {
			setups = append(setups, w.setup(seed).Seconds())
		}
	}
	if w.reference {
		ref := w.op(seed, 0, false)
		checkRepeat(seen, &ref)
		t.record(&ref)
	}
	var last time.Duration
	for i := 0; i < w.minOps || time.Since(start)+last <= budget; i++ {
		op := w.op(seed, i, false)
		checkRepeat(seen, &op)
		t.record(&op)
		last = op.total
		setups = append(setups, op.setup.Seconds())
		heaps = append(heaps, float64(op.peak)/1e6)
		simH += op.simH()
		wall += op.wall.Seconds()
		cpu += op.use.cpu.Seconds()
		alloc += float64(op.use.alloc) / 1e6
	}
	return t.result(map[string]metric{
		"sim_s_per_wall_s":   {simH * 3600 / wall, "sim_s/s"},
		"cpu_s_per_sim_h":    {cpu / simH, "s/sim_h"},
		"alloc_mb_per_sim_h": {alloc / simH, "MB/sim_h"},
		"peak_heap_mb":       {median(heaps), "MB"},
		"setup_s":            {median(setups), "s"},
	})
}

// runTraced measures the per-layer metrics. Each operation runs twice
// on the same world, untraced then traced; the two must agree, which
// shows the decorators and the stepped engine leave the simulation
// unchanged. Layer numbers come from the traced runs, normalised per
// simulated hour they cover.
func runTraced(w workload, seed int64, budget time.Duration) result {
	start := time.Now()
	t := tally{workload: w.name}
	seen := map[int64]string{}
	var (
		plainWall, tracedWall time.Duration
		plainSimH, profSimH   float64
		plainEvents           uint64
		plainEventWall        time.Duration
		gc                    usage
		tot                   = layers.Totals{Busy: map[string]int64{}, Self: map[string]int64{}}
		sm                    seams
		counts                = map[string]float64{}
		steps                 []float64
	)
	var last time.Duration
	for i := 0; i == 0 || time.Since(start)+last <= budget; i++ {
		plain := w.op(seed, i, false)
		checkRepeat(seen, &plain)
		t.record(&plain)
		traced := w.op(seed, i, true)
		checkRepeat(seen, &traced)
		t.record(&traced)
		last = plain.total + traced.total

		plainWall += plain.total
		tracedWall += traced.total
		plainSimH += plain.simH()
		if plain.events > 0 {
			plainEvents += plain.events
			plainEventWall += plain.wall
		}
		gc.gcs += plain.use.gcs
		gc.pauseNs += plain.use.pauseNs

		profSimH += traced.simH()
		tot.Add(traced.layers)
		if traced.seams != nil {
			sm.add(traced.seams)
		}
		for k, v := range traced.counters {
			counts[k] += v
		}
		// Trials are counted whether traced or not.
		counts["chaos.trials"] += plain.counters["chaos.trials"]
		counts["chaos.violations"] += plain.counters["chaos.violations"]
		steps = append(steps, traced.steps...)
	}

	m := map[string]metric{}
	perH := func(x float64) float64 { return ratio(x, profSimH) }
	for _, l := range busyLayers {
		m[l+".busy_ms_per_sim_h"] = metric{perH(float64(tot.Busy[l]) / 1e6), "ms/sim_h"}
	}
	for _, l := range selfLayers {
		m[l+".self_ms_per_sim_h"] = metric{perH(float64(tot.Self[l]) / 1e6), "ms/sim_h"}
	}
	for _, s := range []struct {
		name string
		s    *seam
	}{
		{"manet.next_hop", &sm.nextHop}, {"flight.predict", &sm.predict},
		{"core.link_up", &sm.linkUp}, {"core.link_down", &sm.linkDown},
	} {
		calls := float64(s.s.calls.Load())
		m[s.name+".calls_per_sim_h"] = metric{perH(calls), "1/sim_h"}
		m[s.name+".ns_per_call"] = metric{ratio(float64(s.s.ns.Load()), calls), "ns"}
	}
	m["cdpi.enactment.calls_per_sim_h"] = metric{perH(float64(sm.enactment.calls.Load())), "1/sim_h"}

	m["sim.events_per_sim_h"] = metric{perH(counts["sim.events"]), "1/sim_h"}
	m["sim.ns_per_event"] = metric{ratio(float64(plainEventWall), float64(plainEvents)), "ns"}
	m["sim.minute_wall_ms.p50"] = metric{quantile(steps, 0.5), "ms"}
	m["sim.minute_wall_ms.p95"] = metric{quantile(steps, 0.95), "ms"}
	m["linkeval.pairs_per_sim_h"] = metric{perH(counts["linkeval.pairs"]), "1/sim_h"}
	m["linkeval.pruned_frac"] = metric{ratio(counts["linkeval.pruned"], counts["linkeval.possible"]), "frac"}
	m["linkeval.cache_hit_rate"] = metric{ratio(counts["linkeval.hits"], counts["linkeval.hits"]+counts["linkeval.reevals"]), "frac"}
	m["linkeval.reevals_per_sim_h"] = metric{perH(counts["linkeval.reevals"]), "1/sim_h"}
	m["solver.cycles_per_sim_h"] = metric{perH(counts["solver.cycles"]), "1/sim_h"}
	m["solver.ms_per_cycle"] = metric{ratio(float64(tot.Busy["solver"])/1e6, counts["solver.cycles"]), "ms"}
	m["radio.links_per_sim_h"] = metric{perH(counts["radio.links"]), "1/sim_h"}
	m["cdpi.inband_bytes_per_sim_h"] = metric{perH(counts["cdpi.inband_bytes"]), "B/sim_h"}
	m["cdpi.retries_per_sim_h"] = metric{perH(counts["cdpi.retries"]), "1/sim_h"}
	m["cdpi.timeouts_per_sim_h"] = metric{perH(counts["cdpi.timeouts"]), "1/sim_h"}
	m["runtime_gc.cycles_per_sim_h"] = metric{ratio(float64(gc.gcs), plainSimH), "1/sim_h"}
	m["runtime_gc.pause_ms_per_sim_h"] = metric{ratio(float64(gc.pauseNs)/1e6, plainSimH), "ms/sim_h"}
	m["chaos_search.trials"] = metric{counts["chaos.trials"], "count"}
	m["chaos_search.violations"] = metric{counts["chaos.violations"], "count"}
	m["trace.overhead_frac"] = metric{ratio(float64(tracedWall), float64(plainWall)) - 1, "frac"}
	fmt.Printf("traced %s: %d pairs, %.1f simulated hours profiled\n", w.name, t.attempted/2, profSimH)
	return t.result(m)
}

// busyLayers and selfLayers are the layers reported with inclusive and
// self CPU time.
var (
	busyLayers = []string{
		"radio", "manet", "cdpi", "satcom", "linkeval", "solver", "weather", "nbi",
		"dataplane", "intent", "platform", "telemetry", "obs", "explain",
		"core", "sim", "chaos_search", layers.GC,
	}
	selfLayers = []string{
		"radio", "manet", "cdpi", "linkeval", "solver", "weather", "geo", "itu",
		"rf", "nbi", "platform", "core",
	}
)
