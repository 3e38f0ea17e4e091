package radio

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"minkowski/internal/flight"
	"minkowski/internal/geo"
	"minkowski/internal/platform"
	"minkowski/internal/rf"
	"minkowski/internal/sim"
	"minkowski/internal/weather"
)

// testWorld builds two balloons 300 km apart and a ground station,
// all operational, over a quiet weather field.
func testWorld(t *testing.T, cfg Config) (*sim.Engine, *Fabric, []*platform.Node) {
	t.Helper()
	eng := sim.New(1)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0 // clear skies unless a test wants rain
	wx := weather.NewField(wcfg)
	fab := NewFabric(eng, wx, cfg)

	mkBalloon := func(id string, lonDeg float64) *platform.Node {
		b := &flight.Balloon{ID: id, Pos: geo.LLADeg(-1, lonDeg, 18000)}
		n := platform.NewBalloonNode(b)
		n.Power.CommsOn = true // force daytime
		n.Power.BatteryWh = platform.BatteryCapacityWh
		return n
	}
	n1 := mkBalloon("hbal-001", 36.5)
	n2 := mkBalloon("hbal-002", 39.2) // ~300 km east
	gs := platform.NewGroundStation("gs-0", geo.LLADeg(-1, 36.3, 1600), nil)
	return eng, fab, []*platform.Node{n1, n2, gs}
}

// reliable returns a config with no random failures for deterministic
// establishment tests.
func reliable() Config {
	cfg := DefaultConfig()
	cfg.FlakeProb = 0
	cfg.PersistentFailProb = 0
	cfg.SideLobeProb = 0
	cfg.GlitchProbPerCheck = 0
	cfg.TrackingNoiseDB = 0
	cfg.B2GUnstableBase = 0
	cfg.B2GStableHazard = 0
	return cfg
}

func TestEstablishSucceeds(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	var ups, downs int
	fab.OnUp = func(*Link) { ups++ }
	fab.OnDown = func(*Link, Reason) { downs++ }
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	if l == nil {
		t.Fatal("establish returned nil")
	}
	if l.State != StateSlewing {
		t.Errorf("initial state = %v", l.State)
	}
	eng.Run(300)
	if !l.Up() {
		t.Fatalf("link not up after 5 min: %v (reason %v)", l.State, l.EndReason)
	}
	if ups != 1 || downs != 0 {
		t.Errorf("callbacks: ups=%d downs=%d", ups, downs)
	}
	if !l.Measured.Closes() {
		t.Error("up link must have a closing budget")
	}
	if l.EstablishedAt <= l.CommandedAt {
		t.Error("establishment must take time (slew + search)")
	}
}

func TestEstablishMarksBusy(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	xa, xb := nodes[0].Xcvrs[0], nodes[1].Xcvrs[0]
	if fab.Establish(xa, xb, rf.EBandChannels()[0], 1) == nil {
		t.Fatal("first establish failed")
	}
	if !xa.Busy || !xb.Busy {
		t.Error("transceivers must be busy during establishment")
	}
	// Tasking a busy transceiver must fail.
	if fab.Establish(xa, nodes[2].Xcvrs[0], rf.EBandChannels()[1], 1) != nil {
		t.Error("establish on busy transceiver should return nil")
	}
	eng.Run(300)
	// Same-platform pairing must fail.
	if fab.Establish(nodes[0].Xcvrs[1], nodes[0].Xcvrs[2], rf.EBandChannels()[1], 1) != nil {
		t.Error("same-platform link should be rejected")
	}
}

func TestWithdrawFreesTransceivers(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	var downReason Reason
	fab.OnDown = func(_ *Link, r Reason) { downReason = r }
	xa, xb := nodes[0].Xcvrs[0], nodes[1].Xcvrs[0]
	l := fab.Establish(xa, xb, rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatal("precondition: link up")
	}
	if !fab.Withdraw(l.ID) {
		t.Fatal("withdraw failed")
	}
	if xa.Busy || xb.Busy {
		t.Error("withdraw must free the transceivers")
	}
	if downReason != ReasonWithdrawn {
		t.Errorf("reason = %v, want withdrawn", downReason)
	}
	if downReason.Unexpected() {
		t.Error("withdrawal must be a planned termination")
	}
	if len(fab.History()) != 1 {
		t.Errorf("history length = %d", len(fab.History()))
	}
	if l.Lifetime() <= 0 {
		t.Error("completed link must report a lifetime")
	}
}

func TestOutOfRangeFails(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	// Move balloon 2 out to 1000 km: beyond LOS/budget.
	nodes[1].Balloon.Pos = geo.Offset(geo.LLADeg(-1, 36.5, 18000), geo.Deg(90), 1000e3)
	nodes[1].Balloon.Pos.Alt = 18000
	var reason Reason
	fab.OnDown = func(_ *Link, r Reason) { reason = r }
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(600)
	if l.Up() {
		t.Fatal("1000 km link should not establish")
	}
	if reason != ReasonGeometry && reason != ReasonAcquireFailed {
		t.Errorf("reason = %v, want geometry or acquire-failed", reason)
	}
}

func TestPowerLossKillsLink(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	var reason Reason
	fab.OnDown = func(_ *Link, r Reason) { reason = r }
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatal("precondition: link up")
	}
	// Kill node 2's payload.
	nodes[1].Power.CommsOn = false
	eng.Run(400)
	if l.Up() {
		t.Fatal("link must drop when an endpoint loses power")
	}
	if reason != ReasonPowerLoss {
		t.Errorf("reason = %v, want power-loss", reason)
	}
	if !reason.Unexpected() {
		t.Error("power loss is an unexpected termination")
	}
}

func TestRainFadeKillsB2GLink(t *testing.T) {
	eng := sim.New(1)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	wx := weather.NewField(wcfg)
	fab := NewFabric(eng, wx, reliable())

	b := &flight.Balloon{ID: "hbal-001", Pos: geo.LLADeg(-1, 37.5, 18000)}
	bn := platform.NewBalloonNode(b)
	bn.Power.CommsOn = true
	gsPos := geo.LLADeg(-1, 36.3, 1600)
	gs := platform.NewGroundStation("gs-0", gsPos, nil)

	var reason Reason
	fab.OnDown = func(_ *Link, r Reason) { reason = r }
	l := fab.Establish(gs.Xcvrs[0], bn.Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatalf("precondition: B2G link up, state=%v", l.State)
	}
	// Park a violent storm cell over the ground station.
	wx.InjectCell(gsPos, 15e3, 120, 9000, 7200)
	eng.Run(600)
	if l.Up() {
		t.Fatal("B2G link must fade out under a 120 mm/h storm")
	}
	if reason != ReasonRFFade {
		t.Errorf("reason = %v, want rf-fade", reason)
	}
}

func TestB2BLinkSurvivesStorm(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatal("precondition: B2B link up")
	}
	// The same storm at ground level doesn't touch an 18 km B2B path.
	fabWx(fab).InjectCell(geo.LLADeg(-1, 37.8, 0), 15e3, 120, 9000, 7200)
	eng.Run(600)
	if !l.Up() {
		t.Error("B2B link at 18 km must fly above the storm")
	}
}

// fabWx exposes the fabric's weather field for test injection.
func fabWx(f *Fabric) *weather.Field { return f.wx }

func TestCursedPairNeverSucceeds(t *testing.T) {
	cfg := reliable()
	cfg.PersistentFailProb = 1.0 // every pair cursed
	eng, fab, nodes := testWorld(t, cfg)
	for attempt := 1; attempt <= 5; attempt++ {
		l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], attempt)
		if l == nil {
			t.Fatal("establish rejected")
		}
		eng.Run(eng.Now() + 300)
		if l.Up() {
			t.Fatal("cursed pair must never come up")
		}
		if l.EndReason != ReasonAcquireFailed {
			t.Fatalf("reason = %v", l.EndReason)
		}
	}
}

func TestFirstAttemptSuccessRate(t *testing.T) {
	// With the default config the first-attempt success rate across
	// many fresh pairs should be in the paper's ballpark (51% B2G /
	// 40% B2B → overall roughly 0.35–0.65 given our flake+curse
	// model).
	cfg := DefaultConfig()
	eng := sim.New(7)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	wx := weather.NewField(wcfg)
	fab := NewFabric(eng, wx, cfg)
	success, total := 0, 0
	for i := 0; i < 60; i++ {
		b1 := &flight.Balloon{ID: "a", Pos: geo.LLADeg(-1, 36.5, 18000)}
		b2 := &flight.Balloon{ID: "b", Pos: geo.LLADeg(-1, 38.0, 18000)}
		n1, n2 := platform.NewBalloonNode(b1), platform.NewBalloonNode(b2)
		n1.Power.CommsOn, n2.Power.CommsOn = true, true
		// Unique IDs per round so each pair is "fresh".
		n1.Xcvrs[0].ID = n1.Xcvrs[0].ID + string(rune('A'+i%26)) + string(rune('a'+i/26))
		l := fab.Establish(n1.Xcvrs[0], n2.Xcvrs[0], rf.EBandChannels()[0], 1)
		eng.Run(eng.Now() + 300)
		total++
		if l.Up() {
			success++
			fab.Withdraw(l.ID)
		}
	}
	rate := float64(success) / float64(total)
	if rate < 0.30 || rate > 0.75 {
		t.Errorf("first-attempt success rate = %.2f, want ~0.35–0.65", rate)
	}
}

func TestNeighborsAndNodeUp(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	fab.Establish(nodes[0].Xcvrs[1], nodes[2].Xcvrs[0], rf.EBandChannels()[1], 1)
	eng.Run(300)
	nb := fab.Neighbors("hbal-001")
	if len(nb) != 2 {
		t.Fatalf("neighbors of hbal-001 = %v", nb)
	}
	if nb[0] != "gs-0" || nb[1] != "hbal-002" {
		t.Errorf("neighbors = %v, want sorted [gs-0 hbal-002]", nb)
	}
	if !fab.NodeUp("hbal-002") {
		t.Error("hbal-002 should have an installed link")
	}
	if _, ok := fab.LinkBetween("hbal-001", "gs-0"); !ok {
		t.Error("LinkBetween should find the B2G link")
	}
	if _, ok := fab.LinkBetween("hbal-002", "gs-0"); ok {
		t.Error("no link exists between hbal-002 and gs-0")
	}
}

func TestTransmitDelay(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatal("precondition")
	}
	start := eng.Now()
	var deliveredAt float64 = -1
	var ok bool
	fab.Transmit(l, 1500, func(success bool) {
		ok = success
		deliveredAt = eng.Now()
	})
	eng.Run(start + 10)
	if !ok {
		t.Fatal("transmit failed on an up link")
	}
	delay := deliveredAt - start
	// ~300 km: 1 ms propagation + tiny serialization + 2 ms floor.
	if delay < 0.001 || delay > 0.1 {
		t.Errorf("delivery delay = %v s, want milliseconds", delay)
	}
}

func TestTransmitOnDeadLink(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	fab.Withdraw(l.ID)
	delivered := false
	var ok bool
	fab.Transmit(l, 100, func(success bool) { delivered = true; ok = success })
	eng.Run(eng.Now() + 10)
	if !delivered || ok {
		t.Error("transmit on a dead link must complete with failure")
	}
}

func TestSideLobeLockDegradesSignal(t *testing.T) {
	cfg := reliable()
	cfg.SideLobeProb = 1.0 // always lock the side lobe
	eng, fab, nodes := testWorld(t, cfg)
	// Move the balloons closer so even -14 dB closes.
	nodes[1].Balloon.Pos = geo.LLADeg(-1, 37.4, 18000) // ~100 km
	l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !l.Up() {
		t.Fatalf("side-lobe link at 100 km should still close, state=%v reason=%v", l.State, l.EndReason)
	}
	if !l.SideLobe {
		t.Fatal("link must be marked side-lobe locked")
	}
	// Compare with a main-lobe link on the other mounts.
	cfg2 := reliable()
	eng2, fab2, nodes2 := testWorld(t, cfg2)
	nodes2[1].Balloon.Pos = geo.LLADeg(-1, 37.4, 18000)
	l2 := fab2.Establish(nodes2[0].Xcvrs[0], nodes2[1].Xcvrs[0], rf.EBandChannels()[0], 1)
	eng2.Run(300)
	diff := l2.Measured.RxPowerDBm - l.Measured.RxPowerDBm
	if diff < 12 || diff > 16 {
		t.Errorf("side-lobe penalty = %v dB, want ~14", diff)
	}
}

func TestLinkIDCanonical(t *testing.T) {
	a := MakeLinkID("x/1", "a/2")
	b := MakeLinkID("a/2", "x/1")
	if a != b {
		t.Error("link IDs must be order-independent")
	}
	if a.A != "a/2" || a.B != "x/1" {
		t.Error("link ID must be lexicographically ordered")
	}
}

func BenchmarkEstablishTeardown(b *testing.B) {
	eng, fab, nodes := testWorld(&testing.T{}, reliable())
	ch := rf.EBandChannels()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := fab.Establish(nodes[0].Xcvrs[0], nodes[1].Xcvrs[0], ch, 1)
		eng.Run(eng.Now() + 200)
		if l != nil && l.Up() {
			fab.Withdraw(l.ID)
		}
	}
}

func TestLinkBetweenParallelLinks(t *testing.T) {
	eng, fab, nodes := testWorld(t, reliable())
	a, b := nodes[0], nodes[1]
	// Two transceiver pairings between the same two balloons; the
	// higher LinkID is established first so insertion order cannot
	// stand in for ID order.
	hi := fab.Establish(a.Xcvrs[1], b.Xcvrs[2], rf.EBandChannels()[1], 1)
	lo := fab.Establish(a.Xcvrs[0], b.Xcvrs[0], rf.EBandChannels()[0], 1)
	eng.Run(300)
	if !hi.Up() || !lo.Up() {
		t.Fatalf("precondition: both links up (hi %v/%v, lo %v/%v)", hi.State, hi.EndReason, lo.State, lo.EndReason)
	}
	if cmpLinkID(lo, hi) >= 0 {
		t.Fatalf("precondition: %v must sort before %v", lo.ID, hi.ID)
	}
	for _, ends := range [][2]string{{a.ID, b.ID}, {b.ID, a.ID}} {
		if l, ok := fab.LinkBetween(ends[0], ends[1]); !ok || l != lo {
			t.Errorf("LinkBetween(%s, %s) = %v, want the lower-ID %v", ends[0], ends[1], l, lo.ID)
		}
	}
	if nb := fab.Neighbors(a.ID); len(nb) != 1 || nb[0] != b.ID {
		t.Errorf("Neighbors(%s) = %v, want the peer once", a.ID, nb)
	}
	fab.Withdraw(lo.ID)
	if l, ok := fab.LinkBetween(b.ID, a.ID); !ok || l != hi {
		t.Errorf("after withdrawing %v: LinkBetween = %v, want %v", lo.ID, l, hi.ID)
	}
	if !fab.NodeUp(a.ID) || !fab.NodeUp(b.ID) {
		t.Error("NodeUp must hold while one parallel link remains")
	}
	fab.Withdraw(hi.ID)
	if fab.NodeUp(a.ID) || fab.NodeUp(b.ID) {
		t.Error("NodeUp must be false once both links are down")
	}
	if _, ok := fab.LinkBetween(a.ID, b.ID); ok {
		t.Error("LinkBetween must fail once both links are down")
	}
}

// The scan bodies Neighbors, NodeUp and LinkBetween had before the
// up-link index, kept as oracles for it. scanLinkBetween walks the
// sorted Links, so its first match is the lowest LinkID.

func scanNodeUp(f *Fabric, nodeID string) bool {
	for _, l := range f.links {
		if !l.Up() {
			continue
		}
		a, b := l.Nodes()
		if a == nodeID || b == nodeID {
			return true
		}
	}
	return false
}

func scanNeighbors(f *Fabric, nodeID string) []string {
	seen := map[string]bool{}
	for _, l := range f.links {
		if !l.Up() {
			continue
		}
		a, b := l.Nodes()
		if a == nodeID {
			seen[b] = true
		} else if b == nodeID {
			seen[a] = true
		}
	}
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

func scanLinkBetween(f *Fabric, nodeA, nodeB string) (*Link, bool) {
	for _, l := range f.Links() {
		if !l.Up() {
			continue
		}
		a, b := l.Nodes()
		if (a == nodeA && b == nodeB) || (a == nodeB && b == nodeA) {
			return l, true
		}
	}
	return nil, false
}

// indexStats counts what one driver run exercised.
type indexStats struct {
	parallel, fades, withdrawals, failures int
}

// driveFabricIndex decodes ops into a sequence of Establish calls
// (parallel transceiver pairings included), engine advances through
// slewing, acquisition and fade checks, Withdraw and FailNode on a
// five-node world, and checks the up-link index against the scan
// oracles after every step and inside every OnUp/OnDown callback.
func driveFabricIndex(t *testing.T, ops []byte) indexStats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.GlitchProbPerCheck = 0.05 // enough checkAll fades to matter
	cfg.ReacquireProb = 0.3
	cfg.PersistentFailProb = 0.1 // and enough ups for parallel pairs
	cfg.FlakeProb = 0.1
	eng := sim.New(1)
	wcfg := weather.DefaultConfig()
	wcfg.CellSpawnPerHour = 0
	fab := NewFabric(eng, weather.NewField(wcfg), cfg)
	var nodes []*platform.Node
	for i, lon := range []float64{36.5, 37.4, 38.3, 39.2} {
		b := &flight.Balloon{ID: fmt.Sprintf("hbal-%03d", i), Pos: geo.LLADeg(-1, lon, 18000)}
		n := platform.NewBalloonNode(b)
		n.Power.CommsOn = true
		n.Power.BatteryWh = platform.BatteryCapacityWh
		nodes = append(nodes, n)
	}
	nodes = append(nodes, platform.NewGroundStation("gs-0", geo.LLADeg(-1, 37.8, 1600), nil))
	var xcvrs []*platform.Transceiver
	for _, n := range nodes {
		xcvrs = append(xcvrs, n.Xcvrs...)
	}
	chans := rf.EBandChannels()

	var st indexStats
	check := func(when string) {
		t.Helper()
		if got, want := fab.NumUp(), len(fab.UpLinks()); got != want {
			t.Fatalf("%s: NumUp = %d, len(UpLinks) = %d", when, got, want)
		}
		for _, n := range nodes {
			if got, want := fab.NodeUp(n.ID), scanNodeUp(fab, n.ID); got != want {
				t.Fatalf("%s: NodeUp(%s) = %v, scan says %v", when, n.ID, got, want)
			}
			if got, want := fab.Neighbors(n.ID), scanNeighbors(fab, n.ID); !slices.Equal(got, want) {
				t.Fatalf("%s: Neighbors(%s) = %v, scan says %v", when, n.ID, got, want)
			}
			for _, m := range nodes {
				got, gok := fab.LinkBetween(n.ID, m.ID)
				want, wok := scanLinkBetween(fab, n.ID, m.ID)
				if got != want || gok != wok {
					t.Fatalf("%s: LinkBetween(%s, %s) = %v %v, scan says %v %v", when, n.ID, m.ID, got, gok, want, wok)
				}
			}
		}
	}
	fab.OnUp = func(l *Link) {
		check("OnUp " + l.ID.String())
		a, b := l.Nodes()
		if len(fab.up.byPair[makeNodePair(a, b)]) > 1 {
			st.parallel++
		}
	}
	fab.OnDown = func(l *Link, r Reason) {
		check("OnDown " + l.ID.String())
		if r == ReasonRFFade {
			st.fades++
		}
	}
	for i := 0; i+2 < len(ops); i += 3 {
		op, x, y := ops[i], int(ops[i+1]), int(ops[i+2])
		switch op % 5 {
		case 0, 1:
			fab.Establish(xcvrs[x%len(xcvrs)], xcvrs[y%len(xcvrs)], chans[(x+y)%len(chans)], 1+y%3)
		case 2:
			eng.Run(eng.Now() + float64(5*(1+x%60)))
		case 3:
			if ls := fab.Links(); len(ls) > 0 {
				fab.Withdraw(ls[x%len(ls)].ID)
				st.withdrawals++
			}
		case 4:
			if y%4 == 0 {
				fab.FailNode(nodes[x%len(nodes)].ID, ReasonPowerLoss)
				st.failures++
			}
		}
		check(fmt.Sprintf("op %d", i/3))
	}
	return st
}

func TestFabricIndexMatchesScan(t *testing.T) {
	var total indexStats
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(ops)
		st := driveFabricIndex(t, ops)
		total.parallel += st.parallel
		total.fades += st.fades
		total.withdrawals += st.withdrawals
		total.failures += st.failures
	}
	t.Logf("driver coverage: %+v", total)
	// The driver is only a check if it reached the interesting cases.
	if total.parallel == 0 || total.fades == 0 || total.withdrawals == 0 || total.failures == 0 {
		t.Errorf("driver coverage too thin: %+v", total)
	}
}

func FuzzFabricIndex(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 300)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 900 {
			ops = ops[:900] // 300 steps keep one exec to milliseconds
		}
		driveFabricIndex(t, ops)
	})
}
