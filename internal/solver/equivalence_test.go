package solver

// Equivalence property tests: the optimized engine (Solve/SolveWarm,
// at any worker count, warm or cold) must produce byte-identical
// plans to SolveReference — the retained seed implementation — on
// evolving multi-cycle scenarios with drifting positions, churning
// existing-link sets, penalties, and drains. Run in CI at
// GOMAXPROCS=1,2,8 under -race.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/linkeval"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
	"minkowski/internal/rf"
)

// eqWorld is a drifting fleet scenario: a grid of balloons over a few
// gateways, with a deterministic LCG nudging positions each cycle so
// consecutive candidate graphs overlap heavily but never exactly (the
// production regime warm solves exploit).
type eqWorld struct {
	nodes    []*platform.Node
	balloons []*flight.Balloon
	eval     *linkeval.Evaluator
	rng      uint64
	cycle    int
}

func (w *eqWorld) rand() float64 { // xorshift64*, deterministic
	w.rng ^= w.rng >> 12
	w.rng ^= w.rng << 25
	w.rng ^= w.rng >> 27
	return float64(w.rng*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

func newEqWorld(nBalloons int, seed uint64) *eqWorld {
	w := &eqWorld{rng: seed | 1}
	gws := []struct {
		id       string
		lat, lon float64
	}{
		{"gs-alpha", -1.3, 36.6},
		{"gs-beta", -0.4, 37.4},
	}
	for _, g := range gws {
		w.nodes = append(w.nodes, platform.NewGroundStation(g.id, geo.LLADeg(g.lat, g.lon, 1600), nil))
	}
	side := 1
	for side*side < nBalloons {
		side++
	}
	for i := 0; i < nBalloons; i++ {
		id := fmt.Sprintf("hbal-%03d", i)
		lat := -1.2 + 1.1*float64(i/side)
		lon := 36.5 + 1.1*float64(i%side)
		b := &flight.Balloon{ID: id, Pos: geo.LLADeg(lat, lon, 18000)}
		n := platform.NewBalloonNode(b)
		n.Power.CommsOn = true
		w.nodes = append(w.nodes, n)
		w.balloons = append(w.balloons, b)
	}
	w.eval = linkeval.New(linkeval.DefaultConfig(), clearSky{}, nil)
	return w
}

func (w *eqWorld) gateways() []string { return []string{"gs-alpha", "gs-beta"} }

// drift nudges every balloon a few km — small enough that most links
// survive, large enough that some appear/vanish and bitrates change.
func (w *eqWorld) drift() {
	for _, b := range w.balloons {
		b.Pos.Lat += geo.Deg(0.05 * (w.rand() - 0.5))
		b.Pos.Lon += geo.Deg(0.05 * (w.rand() - 0.5))
	}
	w.cycle++
}

// input builds one solve cycle's Input. existing carries the previous
// plan's links (hysteresis); every few cycles a drain or a penalty
// appears to exercise invalidation paths.
func (w *eqWorld) input(existing map[radio.LinkID]bool) Input {
	var xs []*platform.Transceiver
	for _, n := range w.nodes {
		xs = append(xs, n.Xcvrs...)
	}
	in := Input{
		Candidates: w.eval.CandidateGraph(xs, 0),
		Existing:   existing,
		Gateways:   w.gateways(),
	}
	for _, n := range w.nodes {
		if n.Kind == platform.KindBalloon {
			in.Requests = append(in.Requests, Request{
				ID: "backhaul/" + n.ID, Src: n.ID, MinBitrateBps: 50e6,
			})
		}
	}
	if w.cycle%4 == 3 && len(w.balloons) > 2 {
		in.Drained = map[string]bool{w.balloons[1].ID: true}
	}
	if w.cycle%3 == 2 && len(in.Candidates) > 0 {
		in.Penalties = map[radio.LinkID]float64{
			in.Candidates[len(in.Candidates)/2].ID: 1.7,
		}
	}
	return in
}

func existingFrom(p *Plan) map[radio.LinkID]bool {
	out := make(map[radio.LinkID]bool, len(p.Links))
	for _, c := range p.Links {
		out[c.Report.ID] = true
	}
	return out
}

// TestEngineMatchesReferenceCold: cold Solve == SolveReference on
// every cycle of a drifting scenario, at several worker counts.
func TestEngineMatchesReferenceCold(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			w := newEqWorld(9, 0xC0FFEE)
			cfg := DefaultConfig()
			cfg.Workers = workers
			s := New(cfg)
			ref := New(DefaultConfig())
			existing := map[radio.LinkID]bool{}
			for cyc := 0; cyc < 6; cyc++ {
				in := w.input(existing)
				want := ref.SolveReference(in).Fingerprint()
				got := s.Solve(in).Fingerprint()
				if got != want {
					t.Fatalf("cycle %d: cold engine diverged from reference\nengine:\n%s\nreference:\n%s", cyc, got, want)
				}
				existing = existingFrom(ref.SolveReference(in))
				w.drift()
			}
		})
	}
}

// TestWarmMatchesReferenceAcrossCycles: a warm chain (state carried
// cycle to cycle) stays byte-identical to per-cycle cold reference
// solves, and actually reuses paths (non-vacuous).
func TestWarmMatchesReferenceAcrossCycles(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			w := newEqWorld(9, 0xBEEF)
			cfg := DefaultConfig()
			cfg.Workers = workers
			s := New(cfg)
			ref := New(DefaultConfig())
			warm := NewWarm()
			existing := map[radio.LinkID]bool{}
			for cyc := 0; cyc < 8; cyc++ {
				in := w.input(existing)
				want := ref.SolveReference(in).Fingerprint()
				got := s.SolveWarm(in, warm).Fingerprint()
				if got != want {
					t.Fatalf("cycle %d: warm solve diverged from reference\nwarm:\n%s\nreference:\n%s", cyc, got, want)
				}
				existing = existingFrom(ref.SolveReference(in))
				w.drift()
			}
			st := warm.Stats()
			if st.Cycles != 8 || st.ColdStarts < 1 {
				t.Fatalf("warm stats off: %+v", st)
			}
			if st.PathsReused == 0 {
				t.Fatalf("vacuous test: warm chain never reused a path: %+v", st)
			}
		})
	}
}

// TestWarmIdenticalInputsFullReuse: re-solving the exact same input
// must reuse every request's path and still match the reference.
func TestWarmIdenticalInputsFullReuse(t *testing.T) {
	w := newEqWorld(6, 0x5EED)
	s := New(DefaultConfig())
	ref := New(DefaultConfig())
	warm := NewWarm()
	in := w.input(map[radio.LinkID]bool{})
	want := ref.SolveReference(in).Fingerprint()
	if got := s.SolveWarm(in, warm).Fingerprint(); got != want {
		t.Fatalf("first warm solve diverged")
	}
	if got := s.SolveWarm(in, warm).Fingerprint(); got != want {
		t.Fatalf("second warm solve diverged")
	}
	st := warm.Stats()
	if st.LastRecomputed != 0 || st.LastReused != len(in.Requests) {
		t.Fatalf("identical input should reuse all paths: %+v", st)
	}
	if st.LastDirtyEdges != 0 {
		t.Fatalf("identical input should dirty no edges: %+v", st)
	}
}

// TestWarmInvalidatesOnPolicyAndGatewayChange: warm state must fall
// back to a recorded cold start when the solve policy or gateway set
// changes, and stay correct.
func TestWarmInvalidatesOnPolicyAndGatewayChange(t *testing.T) {
	w := newEqWorld(6, 0xFACE)
	warm := NewWarm()
	in := w.input(map[radio.LinkID]bool{})

	s := New(DefaultConfig())
	s.SolveWarm(in, warm)
	cold0 := warm.Stats().ColdStarts

	// Policy change: new Solver with different hysteresis.
	cfg2 := DefaultConfig()
	cfg2.HysteresisBonus = 0.25
	s2 := New(cfg2)
	ref2 := New(cfg2)
	if got, want := s2.SolveWarm(in, warm).Fingerprint(), ref2.SolveReference(in).Fingerprint(); got != want {
		t.Fatalf("post-policy-change warm solve diverged")
	}
	if warm.Stats().ColdStarts != cold0+1 {
		t.Fatalf("policy change should force a cold start: %+v", warm.Stats())
	}

	// Gateway change.
	in2 := in
	in2.Gateways = []string{"gs-alpha"}
	if got, want := s2.SolveWarm(in2, warm).Fingerprint(), ref2.SolveReference(in2).Fingerprint(); got != want {
		t.Fatalf("post-gateway-change warm solve diverged")
	}
	if warm.Stats().ColdStarts != cold0+2 {
		t.Fatalf("gateway change should force a cold start: %+v", warm.Stats())
	}

	// Worker-count change must NOT invalidate (normalized out).
	cfg3 := cfg2
	cfg3.Workers = 7
	s3 := New(cfg3)
	if got, want := s3.SolveWarm(in2, warm).Fingerprint(), ref2.SolveReference(in2).Fingerprint(); got != want {
		t.Fatalf("worker-count change diverged")
	}
	if warm.Stats().ColdStarts != cold0+2 {
		t.Fatalf("worker-count change must not force a cold start: %+v", warm.Stats())
	}
}

// TestWarmDuplicateRequestIDsFallCold: duplicate request IDs are out
// of the warm contract — the solve must fall cold (and never reuse),
// not corrupt state.
func TestWarmDuplicateRequestIDsFallCold(t *testing.T) {
	w := newEqWorld(4, 0xD00D)
	s := New(DefaultConfig())
	warm := NewWarm()
	in := w.input(map[radio.LinkID]bool{})
	in.Requests = append(in.Requests, in.Requests[0]) // duplicate ID
	s.SolveWarm(in, warm)
	s.SolveWarm(in, warm)
	st := warm.Stats()
	if st.PathsReused != 0 || st.ColdStarts != 2 {
		t.Fatalf("duplicate request IDs must disable reuse: %+v", st)
	}
	if warm.Ready() {
		t.Fatalf("warm state must not be recorded from a non-recordable cycle")
	}
}

// TestWarmCloneIsolation: a cloned warm state (the replication-stream
// snapshot) must keep working independently of the original's
// continued mutation.
func TestWarmCloneIsolation(t *testing.T) {
	w := newEqWorld(6, 0xAB1E)
	s := New(DefaultConfig())
	ref := New(DefaultConfig())
	warm := NewWarm()
	existing := map[radio.LinkID]bool{}
	in := w.input(existing)
	s.SolveWarm(in, warm)
	snap := warm.Clone()

	// The original keeps solving across drifts...
	for i := 0; i < 3; i++ {
		w.drift()
		in = w.input(existing)
		s.SolveWarm(in, warm)
	}
	// ...then a "promoted" solver adopts the old snapshot and must
	// still match the reference on the newest input.
	s2 := New(DefaultConfig())
	if got, want := s2.SolveWarm(in, snap).Fingerprint(), ref.SolveReference(in).Fingerprint(); got != want {
		t.Fatalf("adopted warm snapshot diverged from reference")
	}
}

// TestEngineMatchesReferenceTightHopCap pins the hop-cap
// non-monotonicity case: with a binding MaxPathLen, a request that
// starts out unreachable can BECOME routable mid-greedy (conflict
// elimination and chosen-edge cost drops reorder Dijkstra pops, so a
// node can finalize with fewer hops and un-cap a path). The reference
// re-runs every nil request each iteration and final-routes everyone;
// the engine must match byte for byte — it may only memoize nils
// whose search never hit the cap. Runs cold and warm-chained, across
// tight caps, seeds, and worker counts.
func TestEngineMatchesReferenceTightHopCap(t *testing.T) {
	for _, maxLen := range []int{1, 2, 3, 4} {
		for _, seed := range []uint64{0x7C4A, 0xA11CE} {
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("cap=%d/seed=%x/workers=%d", maxLen, seed, workers), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.MaxPathLen = maxLen
					cfg.Workers = workers
					s := New(cfg)
					ref := New(cfg)
					warmS := New(cfg)
					warm := NewWarm()
					w := newEqWorld(12, seed)
					existing := map[radio.LinkID]bool{}
					sawUnsat := false
					for cyc := 0; cyc < 6; cyc++ {
						in := w.input(existing)
						refPlan := ref.SolveReference(in)
						want := refPlan.Fingerprint()
						if got := s.Solve(in).Fingerprint(); got != want {
							t.Fatalf("cycle %d: cold engine diverged under cap %d\nengine:\n%s\nreference:\n%s", cyc, maxLen, got, want)
						}
						if got := warmS.SolveWarm(in, warm).Fingerprint(); got != want {
							t.Fatalf("cycle %d: warm engine diverged under cap %d\nengine:\n%s\nreference:\n%s", cyc, maxLen, got, want)
						}
						sawUnsat = sawUnsat || len(refPlan.Unsatisfied) > 0
						existing = existingFrom(refPlan)
						w.drift()
					}
					if maxLen <= 2 && !sawUnsat {
						t.Fatalf("vacuous scenario: cap %d never left a request unsatisfied", maxLen)
					}
				})
			}
		}
	}
}

// TestHopCapUnreachableBecomesRoutable is the deterministic
// construction of the nil→routable flip. World (MaxPathLen = 2):
//
//	s ──eSX── x          x has ONE transceiver, shared by eSX and eXM
//	│          │
//	eSM       eXM
//	(penalty)  │
//	└─────── m ──eMD── d
//
// Request r1 (s→d) initially fails: Dijkstra finalizes m via the
// cheap 2-hop s-x-m route (4.4) before the penalized direct s-m edge
// (5.2), and at 2 hops the cap stops expansion — d is never reached,
// but ONLY because of the cap. Request r2 (s→x) then makes the greedy
// commit eSX, whose conflict elimination kills eXM (shared x
// transceiver). Now m finalizes via s-m at 1 hop and d is reachable
// within the cap: the reference's per-iteration re-run of nil
// requests finds s-m-d and routes r1. An engine that memoizes the
// initial nil as permanent never retries and strands r1.
func TestHopCapUnreachableBecomesRoutable(t *testing.T) {
	mkNode := func(id string, nx int) *platform.Node {
		n := &platform.Node{ID: id, Kind: platform.KindBalloon}
		for i := 0; i < nx; i++ {
			n.Xcvrs = append(n.Xcvrs, &platform.Transceiver{
				ID: fmt.Sprintf("%s/x%d", id, i), Node: n,
			})
		}
		return n
	}
	s := mkNode("s", 2)
	x := mkNode("x", 1)
	m := mkNode("m", 3)
	d := mkNode("d", 1)
	mkRep := func(xa, xb *platform.Transceiver) *linkeval.Report {
		return &linkeval.Report{
			ID: radio.MakeLinkID(xa.ID, xb.ID), XA: xa, XB: xb,
			Budget: rf.Budget{BitrateBps: 100e6, MarginDB: 10},
		}
	}
	eMD := mkRep(m.Xcvrs[2], d.Xcvrs[0])
	eXM := mkRep(x.Xcvrs[0], m.Xcvrs[0])
	eSM := mkRep(s.Xcvrs[1], m.Xcvrs[1])
	eSX := mkRep(s.Xcvrs[0], x.Xcvrs[0])
	in := Input{
		// Strictly ID-sorted (the warm ordering contract).
		Candidates: []*linkeval.Report{eMD, eXM, eSM, eSX},
		Requests: []Request{
			{ID: "r1", Src: "s", Dst: "d", MinBitrateBps: 10e6},
			{ID: "r2", Src: "s", Dst: "x", MinBitrateBps: 10e6},
		},
		Penalties: map[radio.LinkID]float64{eSM.ID: 3.0},
	}
	cfg := DefaultConfig()
	cfg.MaxPathLen = 2

	ref := New(cfg).SolveReference(in)
	route, ok := ref.Routes["r1"]
	if !ok || len(route) != 3 || route[0] != "s" || route[1] != "m" || route[2] != "d" {
		t.Fatalf("scenario must flip r1 from unreachable to routed s-m-d; reference gave %v (unsat %v)", route, ref.Unsatisfied)
	}
	want := ref.Fingerprint()
	for _, workers := range []int{1, 4} {
		cfgW := cfg
		cfgW.Workers = workers
		if got := New(cfgW).Solve(in).Fingerprint(); got != want {
			t.Errorf("cold engine (workers=%d) stranded the un-capped request:\nengine:\n%s\nreference:\n%s", workers, got, want)
		}
		sw := New(cfgW)
		warm := NewWarm()
		for cyc := 0; cyc < 3; cyc++ {
			if got := sw.SolveWarm(in, warm).Fingerprint(); got != want {
				t.Errorf("warm cycle %d (workers=%d) diverged:\nengine:\n%s\nreference:\n%s", cyc, workers, got, want)
			}
		}
		if st := warm.Stats(); st.PathsReused == 0 {
			t.Errorf("warm chain never reused a path (vacuous permNil coverage): %+v", st)
		}
	}
}

// TestSolveAndReferenceMatchLegacyScenarios reruns the seed test
// worlds through both implementations (belt and braces next to the
// drifting-scenario property tests).
func TestSolveAndReferenceMatchLegacyScenarios(t *testing.T) {
	nodes, cands := world(4)
	in := Input{
		Candidates: cands,
		Requests:   backhaulRequests(nodes),
		Gateways:   []string{"gs-0"},
	}
	s := New(DefaultConfig())
	if got, want := s.Solve(in).Fingerprint(), s.SolveReference(in).Fingerprint(); got != want {
		t.Fatalf("legacy line-world diverged:\n%s\nvs\n%s", got, want)
	}
	// Explicit destination + drain.
	in.Requests[0].Dst = nodes[2].ID
	in.Drained = map[string]bool{nodes[3].ID: true}
	if got, want := s.Solve(in).Fingerprint(), s.SolveReference(in).Fingerprint(); got != want {
		t.Fatalf("legacy drained-world diverged")
	}
}

// --- Bitrate classes and the pruned adjacency ------------------------

// classNode makes a node with nx transceivers named "<id>/x<k>".
func classNode(id string, nx int) *platform.Node {
	n := &platform.Node{ID: id, Kind: platform.KindBalloon}
	for i := 0; i < nx; i++ {
		n.Xcvrs = append(n.Xcvrs, &platform.Transceiver{ID: fmt.Sprintf("%s/x%d", id, i), Node: n})
	}
	return n
}

// classRep makes a candidate between two transceivers.
func classRep(xa, xb *platform.Transceiver, bitrate float64, marginal bool) *linkeval.Report {
	r := &linkeval.Report{
		ID: radio.MakeLinkID(xa.ID, xb.ID), XA: xa, XB: xb,
		Budget: rf.Budget{BitrateBps: bitrate, MarginDB: 4 + bitrate/50e6},
	}
	if marginal {
		r.Class = rf.Marginal
	}
	return r
}

// sortByID puts candidates in the evaluator's output order.
func sortByID(reps []*linkeval.Report) {
	sort.Slice(reps, func(i, j int) bool { return ltID(reps[i].ID, reps[j].ID) })
}

// randomClassWorld draws a solve Input built to stress the pruned
// adjacency: nodes with 1–4 transceivers, parallel transceiver-pair
// groups whose costs repeat, fall and rise in adjacency order
// (bitrates on both sides of the request thresholds, marginal flags,
// existing links, finite and +Inf penalties), the odd self-loop, a
// drained node, a random hop cap, and requests over two to three
// MinBitrateBps classes, one of which equals a candidate bitrate.
func randomClassWorld(rng *rand.Rand, nNodes int) (Input, Config) {
	bitrates := []float64{30e6, 50e6, 70e6, 120e6}
	thresholds := []float64{50e6, 60e6, 100e6}
	penalties := []float64{0.5, 1.2, 2.2, math.Inf(1)}
	nodes := make([]*platform.Node, nNodes)
	for i := range nodes {
		nodes[i] = classNode(fmt.Sprintf("n%02d", i), 1+rng.Intn(4))
	}
	var reps []*linkeval.Report
	for i := range nodes {
		for j := i; j < nNodes; j++ {
			xi, xj := nodes[i].Xcvrs, nodes[j].Xcvrs
			if i == j {
				if len(xi) >= 2 && rng.Intn(12) == 0 {
					reps = append(reps, classRep(xi[0], xi[1], bitrates[rng.Intn(len(bitrates))], false))
				}
				continue
			}
			if rng.Intn(2) == 0 {
				continue
			}
			pairs := rng.Perm(len(xi) * len(xj))
			for _, p := range pairs[:1+rng.Intn(min(len(pairs), 6))] {
				reps = append(reps, classRep(xi[p/len(xj)], xj[p%len(xj)],
					bitrates[rng.Intn(len(bitrates))], rng.Intn(4) == 0))
			}
		}
	}
	sortByID(reps)
	in := Input{
		Candidates: reps,
		Existing:   map[radio.LinkID]bool{},
		Penalties:  map[radio.LinkID]float64{},
		Gateways:   []string{nodes[0].ID},
	}
	if nNodes > 4 {
		in.Gateways = append(in.Gateways, nodes[1].ID)
	}
	for _, r := range reps {
		if rng.Intn(3) == 0 {
			in.Existing[r.ID] = true
		}
		if rng.Intn(3) == 0 {
			in.Penalties[r.ID] = penalties[rng.Intn(len(penalties))]
		}
	}
	if rng.Intn(6) == 0 {
		in.Drained = map[string]bool{nodes[len(nodes)-1].ID: true}
	}
	for i := len(in.Gateways); i < nNodes; i++ {
		r := Request{ID: "req/" + nodes[i].ID, Src: nodes[i].ID,
			MinBitrateBps: thresholds[(i+rng.Intn(2))%len(thresholds)]}
		if rng.Intn(4) == 0 {
			r.Dst = nodes[rng.Intn(nNodes)].ID
		}
		in.Requests = append(in.Requests, r)
	}
	cfg := DefaultConfig()
	cfg.MaxPathLen = []int{2, 3, 12}[rng.Intn(3)]
	return in, cfg
}

// checkEngineMatchesReference solves in cold at several worker counts
// and through a two-cycle warm chain, and compares every plan with
// SolveReference.
func checkEngineMatchesReference(t *testing.T, label string, in Input, cfg Config) {
	t.Helper()
	want := New(cfg).SolveReference(in).Fingerprint()
	for _, workers := range []int{1, 2, 8} {
		cw := cfg
		cw.Workers = workers
		if got := New(cw).Solve(in).Fingerprint(); got != want {
			t.Fatalf("%s: cold engine (workers=%d) diverged\nengine:\n%s\nreference:\n%s", label, workers, got, want)
		}
		s, warm := New(cw), NewWarm()
		for cyc := 0; cyc < 2; cyc++ {
			if got := s.SolveWarm(in, warm).Fingerprint(); got != want {
				t.Fatalf("%s: warm cycle %d (workers=%d) diverged\nengine:\n%s\nreference:\n%s", label, cyc, workers, got, want)
			}
		}
	}
}

// prunedOracle is rebuildPruned's specification written out
// directly: the usable, non-self-loop edges of adj[n] in order, each
// kept unless an earlier usable edge to the same neighbour costs no
// more.
func prunedOracle(c *ctx, n int32, minBr float64) []adjEntry {
	far := func(e *edge) int32 {
		if e.a == n {
			return e.b
		}
		return e.a
	}
	var out []adjEntry
	adj := c.adj[n]
	for i, ei := range adj {
		e := &c.edges[ei]
		if (!e.viable && !e.chosen) || far(e) == n {
			continue
		}
		cost := c.edgeCost(e, minBr)
		keep := true
		for _, fi := range adj[:i] {
			f := &c.edges[fi]
			if (f.viable || f.chosen) && far(f) == far(e) && c.edgeCost(f, minBr) <= cost {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, adjEntry{next: far(e), edge: ei, cost: cost})
		}
	}
	return out
}

// checkPruned compares every class's pruned rows with the oracle and
// returns how many usable edge slots the rows dropped and how many
// neighbour groups kept more than one edge.
func checkPruned(t *testing.T, label string, c *ctx) (dropped, multi int) {
	t.Helper()
	for k, minBr := range c.classMin {
		for n := range c.adj {
			got, want := c.pruned[k][n], prunedOracle(c, int32(n), minBr)
			if len(got) != len(want) {
				t.Fatalf("%s: class %v node %s: %d pruned entries, oracle keeps %d\ngot  %v\nwant %v",
					label, minBr, c.nodes[n], len(got), len(want), got, want)
			}
			for i := range got {
				if got[i].next != want[i].next || got[i].edge != want[i].edge ||
					math.Float64bits(got[i].cost) != math.Float64bits(want[i].cost) {
					t.Fatalf("%s: class %v node %s entry %d: %+v, oracle %+v", label, minBr, c.nodes[n], i, got[i], want[i])
				}
			}
			usable := 0
			for _, ei := range c.adj[n] {
				if e := &c.edges[ei]; (e.viable || e.chosen) && e.a != e.b {
					usable++
				}
			}
			dropped += usable - len(got)
			per := map[int32]int{}
			for _, pe := range got {
				per[pe.next]++
				if per[pe.next] == 2 {
					multi++
				}
			}
		}
	}
	return dropped, multi
}

// TestPrunedAdjacencyMatchesOracle holds the pruned rows to their
// specification after the initial build and after every greedy step
// (commits that re-cost an edge and make its transceiver conflicts
// inviable, failed channel picks), refreshed over two workers so the
// race detector sees the parallel rebuild. Non-vacuous: rows must
// both drop edges and keep several edges to one neighbour.
func TestPrunedAdjacencyMatchesOracle(t *testing.T) {
	dropped, multi, steps := 0, 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in, cfg := randomClassWorld(rng, 5+int(seed%6))
		s := New(cfg)
		c := &s.c
		c.reset(cfg, &in, 2)
		if len(c.classMin) < 2 {
			t.Fatalf("seed %d: %d bitrate classes, want at least 2", seed, len(c.classMin))
		}
		s.refreshPruned()
		d, m := checkPruned(t, fmt.Sprintf("seed %d initial", seed), c)
		dropped, multi = dropped+d, multi+m
		plan := &Plan{}
		for step := 0; ; step++ {
			var open []int32
			for i := range c.edges {
				if e := &c.edges[i]; e.viable && !e.chosen {
					open = append(open, int32(i))
				}
			}
			if len(open) == 0 {
				break
			}
			idx := open[rng.Intn(len(open))]
			if !c.choose(plan, idx, false) {
				c.drop(idx)
			}
			if rng.Intn(3) == 0 {
				continue // let changes pile up across steps
			}
			s.refreshPruned()
			d, m := checkPruned(t, fmt.Sprintf("seed %d step %d", seed, step), c)
			dropped, multi, steps = dropped+d, multi+m, steps+1
		}
	}
	if dropped == 0 || multi == 0 || steps == 0 {
		t.Fatalf("vacuous: dropped=%d multi-edge groups=%d checked steps=%d", dropped, multi, steps)
	}
}

// TestEngineMatchesReferenceBitrateClasses is the named case for the
// pruned adjacency: one world whose parallel groups are equal-cost,
// falling and rising in adjacency order, straddle a request threshold,
// and carry +Inf penalties, solved for requests in three bitrate
// classes. The rows must have the expected shape, and the engine
// must match the reference cold, warm and at every worker count,
// also across cycles whose existing-link set follows the plan.
func TestEngineMatchesReferenceBitrateClasses(t *testing.T) {
	g, a, b := classNode("g", 4), classNode("a", 4), classNode("b", 4)
	cc, d := classNode("c", 4), classNode("d", 2)
	type group struct {
		name      string
		u, v      *platform.Node
		penalties []float64 // by position in adjacency order
		bitrates  []float64 // likewise; nil = 120e6 for all
	}
	inf := math.Inf(1)
	groups := []group{
		{"equal", g, a, []float64{0, 0, 0}, nil},
		{"falling", a, b, []float64{2, 1, 0}, nil},
		{"rising", b, g, []float64{0, 1, 2}, nil},
		{"threshold", a, cc, []float64{0, 0}, []float64{40e6, 80e6}},
		{"inf", cc, g, []float64{inf, 1, inf}, nil},
		{"all-inf", cc, d, []float64{inf, inf}, nil},
	}
	in := Input{Penalties: map[radio.LinkID]float64{}, Gateways: []string{"g"}}
	members := make([][]*linkeval.Report, len(groups))
	for gi, gr := range groups {
		for i := range gr.penalties {
			r := classRep(gr.u.Xcvrs[i], gr.v.Xcvrs[i], 120e6, false)
			members[gi] = append(members[gi], r)
			in.Candidates = append(in.Candidates, r)
		}
		sortByID(members[gi])
		for i, r := range members[gi] {
			if p := gr.penalties[i]; p != 0 {
				in.Penalties[r.ID] = p
			}
			if gr.bitrates != nil {
				r.Budget.BitrateBps = gr.bitrates[i]
			}
		}
	}
	sortByID(in.Candidates)
	in.Requests = []Request{
		{ID: "a", Src: "a", MinBitrateBps: 10e6},
		{ID: "b", Src: "b", MinBitrateBps: 60e6},
		{ID: "c", Src: "c", MinBitrateBps: 100e6},
		{ID: "d", Src: "d", MinBitrateBps: 60e6},
		{ID: "b-c", Src: "b", Dst: "c", MinBitrateBps: 10e6},
	}

	// Row shape: edges kept from u toward v, per class threshold.
	s := New(DefaultConfig())
	c := &s.c
	c.reset(s.cfg, &in, 1)
	s.refreshPruned()
	checkPruned(t, "named world", c)
	kept := func(u, v *platform.Node, minBr float64) int {
		k := c.classOf(minBr)
		n := 0
		for _, pe := range c.pruned[k][c.nodeOf[u.ID]] {
			if pe.next == c.nodeOf[v.ID] {
				n++
			}
		}
		return n
	}
	for _, want := range []struct {
		name  string
		u, v  *platform.Node
		minBr float64
		n     int
	}{
		{"equal", g, a, 10e6, 1},
		{"falling", a, b, 10e6, 3},
		{"falling, reverse direction", b, a, 60e6, 3},
		{"rising", b, g, 60e6, 1},
		{"threshold below both", a, cc, 10e6, 1},
		{"threshold between", a, cc, 60e6, 2},
		{"threshold above both", a, cc, 100e6, 1},
		{"inf then finite", cc, g, 100e6, 2},
		{"all inf", cc, d, 60e6, 1},
	} {
		if got := kept(want.u, want.v, want.minBr); got != want.n {
			t.Errorf("%s: %s->%s class %v keeps %d edges, want %d", want.name, want.u.ID, want.v.ID, want.minBr, got, want.n)
		}
	}
	if len(c.classMin) != 3 {
		t.Fatalf("%d bitrate classes, want 3", len(c.classMin))
	}

	cfg := DefaultConfig()
	existing := map[radio.LinkID]bool{}
	for cyc := 0; cyc < 3; cyc++ {
		in.Existing = existing
		checkEngineMatchesReference(t, fmt.Sprintf("cycle %d", cyc), in, cfg)
		existing = existingFrom(New(cfg).SolveReference(in))
	}
}

// TestEngineMatchesReferenceRandomClasses runs random multi-class
// worlds (randomClassWorld) as multi-cycle chains: each cycle's
// existing links are the previous plan's and the penalties shift, and
// the engine must match the reference on every cycle.
func TestEngineMatchesReferenceRandomClasses(t *testing.T) {
	routed, multiHop, unsat := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in, cfg := randomClassWorld(rng, 4+int(seed%9))
		for cyc := 0; cyc < 3; cyc++ {
			checkEngineMatchesReference(t, fmt.Sprintf("seed %d cycle %d", seed, cyc), in, cfg)
			ref := New(cfg).SolveReference(in)
			for _, r := range ref.Routes {
				routed++
				if len(r) > 2 {
					multiHop++
				}
			}
			unsat += len(ref.Unsatisfied)
			in.Existing = existingFrom(ref)
			if len(in.Candidates) > 0 {
				id := in.Candidates[rng.Intn(len(in.Candidates))].ID
				in.Penalties[id] = float64(rng.Intn(4))
			}
		}
	}
	if routed == 0 || multiHop == 0 || unsat == 0 {
		t.Fatalf("vacuous: routed=%d multi-hop=%d unsatisfied=%d", routed, multiHop, unsat)
	}
}

// FuzzEngineMatchesReference: any random multi-class world must
// solve to the reference's plan, cold and warm, at every worker count.
func FuzzEngineMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1 << 40} {
		f.Add(seed, uint8(6))
		f.Add(seed, uint8(11))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8) {
		rng := rand.New(rand.NewSource(seed))
		in, cfg := randomClassWorld(rng, 3+int(nodes%12))
		checkEngineMatchesReference(t, fmt.Sprintf("seed %d nodes %d", seed, 3+nodes%12), in, cfg)
	})
}
