package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"minkowski/internal/chaos/search"
	"minkowski/internal/core"
	"minkowski/internal/itu"
	"minkowski/perfbench/layers"
)

// A workload is a sequence of operations. An operation is one
// simulated run: a whole scenario run, or one chaos trial.
type workload struct {
	name string
	// op runs operation i of a run seeded with seed. traced installs
	// the seam decorators, steps the engine one simulated minute at a
	// time and profiles the CPU.
	op func(seed int64, i int, traced bool) opResult
	// setup, when set, builds the operation's world and runs simulated
	// t=0 without running on; the untraced run repeats it setupProbes
	// times so setup_s is a median over several set-ups.
	setup func(seed int64) time.Duration
	// minOps is the fewest distinct worlds an untraced run measures.
	minOps int
	// reference runs world 0 once, unmeasured, before an untraced run
	// measures, so every run checks that a repeat gives identical
	// digests.
	reference bool
}

// setupProbes is the number of extra set-ups per untraced run.
const setupProbes = 4

var workloads = map[string]workload{
	// fleet-steady is the figure scenario at scale 2, fault-free: the
	// paper-reproduction path, dominated by in-band control path
	// queries (cdpi → manet → radio) and truth link measurement. A
	// world runs 4 simulated hours from 09:00, with the whole fleet
	// powered. Worlds differ in cost by about 15%, and a 30 s run
	// pools eleven to fifteen of them.
	"fleet-steady": {
		name:      "fleet-steady",
		op:        scenarioOp(fleetSteady, 4),
		setup:     scenarioSetup(fleetSteady),
		minOps:    2,
		reference: true,
	},
	// solve-storm is planning-heavy: a Kenya-sized fleet in the long
	// rains with heavy convection and one-minute solves, dominated by
	// the link evaluator and the solver, with more link churn per
	// simulated hour than fleet-steady. A world runs 2 simulated hours.
	"solve-storm": {
		name:      "solve-storm",
		op:        scenarioOp(solveStorm, 2),
		setup:     scenarioSetup(solveStorm),
		minOps:    2,
		reference: true,
	},
	// chaos-trials is the chaosearch path: generated scale-1 fault
	// scripts run one at a time with the determinism re-run, the
	// only workload with replication, restarts and invariant checks.
	"chaos-trials": {
		name:   "chaos-trials",
		op:     chaosOp,
		minOps: 1,
	},
}

// fleetSteady is the figure scenario at scale 2 (experiments'
// baseScenario): 16 balloons, 3 ground stations, 120 s solves, 10 s
// agent checks, diurnal power on.
func fleetSteady(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.FleetSize = 16
	cfg.SolveIntervalS = 120
	cfg.AgentConnCheckS = 10
	return cfg
}

// solveStorm is 30 balloons with power always on, the long rains, 24
// convective cells per hour and 60 s solves.
func solveStorm(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.FleetSize = 30
	cfg.DisablePower = true
	cfg.Season = itu.LongRains
	cfg.WeatherCellsPerHour = 24
	cfg.SolveIntervalS = 60
	return cfg
}

// Chaos trials are scale 1, the chaosearch default, and 2 simulated
// hours (chaosearch -hours 2). Trial costs vary widely with their
// faults, so trials shorter than the 3 h default let a run pool about
// twice as many. search.Run runs each trial twice (the determinism
// check).
const (
	chaosScale = 1
	chaosHours = 2.0
)

// opResult is one operation's measurements and verdict.
type opResult struct {
	world   int64  // seed of the simulated world; equal worlds must give equal digests
	digest  string // printed so two commits can be compared for byte identity
	problem string // why the correctness check failed ("" = passed)

	setup time.Duration // start of the operation to the end of simulated t=0
	total time.Duration // whole operation
	wall  time.Duration // after set-up
	simS  float64       // simulated seconds after set-up
	use   usage         // resources used after set-up
	peak  uint64        // highest HeapInuse after set-up (untraced only)

	events   uint64             // engine events after set-up (0 where unobservable)
	counters map[string]float64 // public counters at the end of the run

	// Traced runs only.
	layers layers.Totals
	seams  *seams
	steps  []float64 // wall ms per simulated minute
}

func (op *opResult) simH() float64 { return op.simS / 3600 }

// scenarioSetup measures building a scenario's controller and running
// its t=0 events.
func scenarioSetup(cfg func(int64) core.Config) func(int64) time.Duration {
	return func(seed int64) time.Duration {
		runtime.GC()
		start := time.Now()
		core.New(cfg(mixSeed(seed, 0))).Run(0)
		return time.Since(start)
	}
}

// scenarioOp runs one fault-free scenario for the given simulated
// hours. Untraced, the engine runs in one Run call; traced, in
// one-minute Run steps with the seams decorated. Both must produce the
// same digests.
func scenarioOp(cfg func(int64) core.Config, hours float64) func(int64, int, bool) opResult {
	return func(seed int64, i int, traced bool) opResult {
		world := mixSeed(seed, i)
		op := opResult{world: world}
		runtime.GC()
		var prof *profile
		if traced {
			prof = startProfile()
		}
		start := time.Now()
		c := core.New(cfg(world))
		if traced {
			op.seams = installSeams(c)
		}
		c.Run(0)
		op.setup = time.Since(start)
		mid, midWall, ev0 := readUsage(), time.Now(), c.Eng.Processed

		end := hours * 3600
		if traced {
			for m := 1; m <= int(end/60); m++ {
				s := time.Now()
				c.Run(float64(m) * 60)
				op.steps = append(op.steps, float64(time.Since(s))/1e6)
			}
		} else {
			hp := startHeapPeak()
			c.Run(end)
			op.peak = hp.Stop()
		}
		op.wall = time.Since(midWall)
		op.total = time.Since(start)
		op.use = readUsage().sub(mid)
		op.simS = end
		if traced {
			op.layers = prof.Stop()
		}
		op.events = c.Eng.Processed - ev0

		ls := c.Evaluator.Stats()
		op.counters = map[string]float64{
			"sim.events":        float64(c.Eng.Processed),
			"linkeval.pairs":    float64(ls.PairsEnumerated),
			"linkeval.possible": float64(ls.PairsPossible),
			"linkeval.pruned":   float64(ls.PairsPruned),
			"linkeval.hits":     float64(ls.CacheHits),
			"linkeval.reevals":  float64(ls.ReEvals),
			"solver.cycles":     float64(c.SolveRuns),
			"radio.links":       float64(len(c.Fabric.History())),
			"cdpi.inband_bytes": float64(c.InBand.Bytes),
			"cdpi.retries":      float64(c.Frontend.Retries),
			"cdpi.timeouts":     float64(c.Frontend.Timeouts),
		}

		snap, err := c.ObsSnapshot().Encode()
		if err != nil {
			op.problem = fmt.Sprintf("encoding obs snapshot: %v", err)
		}
		h := fnv.New64a()
		h.Write(snap)
		op.digest = fmt.Sprintf("world=%d telemetry=%016x journal=%016x obs=%016x",
			world, c.TelemetryDigest(), c.Journal.Digest(), h.Sum64())
		switch mm := c.JournalIntentMismatches(); {
		case c.DuplicateEstablishes != 0:
			op.problem = fmt.Sprintf("%d duplicate establishes", c.DuplicateEstablishes)
		case len(mm) > 0:
			op.problem = fmt.Sprintf("journal/intent mismatch: %s", strings.Join(mm, "; "))
		}
		return op
	}
}

// chaosOp runs trial i: a scale-1 script from search.Generate, run by
// search.Run with the determinism check. Any violation fails it.
// Set-up is script generation plus a fault-free one-second run of the
// trial's world (every generated fault starts after 900 s), which
// covers building the replicated controller and its t=0 events.
func chaosOp(seed int64, i int, traced bool) opResult {
	trial := mixSeed(seed, i)
	op := opResult{world: trial}
	runtime.GC()
	var prof *profile
	if traced {
		prof = startProfile()
	}
	start := time.Now()
	script := search.Generate(rand.New(rand.NewSource(trial)), trial, chaosScale, chaosHours)
	probe := script.Clone()
	probe.Faults, probe.Hours = nil, 1.0/3600
	if _, err := search.Run(probe, search.Options{}); err != nil {
		op.problem = fmt.Sprintf("set-up run: %v", err)
	}
	op.setup = time.Since(start)
	mid, midWall := readUsage(), time.Now()

	var hp *heapPeak
	if !traced {
		hp = startHeapPeak()
	}
	res, err := search.Run(script, search.Options{CheckDeterminism: true})
	if hp != nil {
		op.peak = hp.Stop()
	}
	op.wall = time.Since(midWall)
	op.total = time.Since(start)
	op.use = readUsage().sub(mid)
	op.simS = 2 * chaosHours * 3600 // the trial and its determinism re-run
	if traced {
		op.layers = prof.Stop()
	}

	op.digest = fmt.Sprintf("world=%d script=%s faults=%d digest=%016x",
		trial, script.Name, len(script.Faults), res.Digest)
	switch {
	case err != nil:
		op.problem = err.Error()
	case len(res.Violations) > 0:
		op.problem = "violated " + strings.Join(res.ViolatedNames(), ",")
	}
	op.counters = map[string]float64{
		"chaos.trials":     1,
		"chaos.violations": float64(len(res.Violations)),
	}
	return op
}

// mixSeed derives world i's seed from the run seed (splitmix64
// finalizer), so neighbouring seeds give unrelated worlds.
func mixSeed(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}
