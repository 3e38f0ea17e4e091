package manet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"minkowski/internal/sim"
)

// hiddenRouter forwards to a Router without exposing its concrete
// type, so PathFrom takes the plain walk even over a *Fast.
type hiddenRouter struct{ Router }

// memoCoverage counts what one decoded op sequence exercised.
type memoCoverage struct {
	changes, recomputes, routed, failed int
}

// driveFastPathMemo decodes ops into a random topology history over a
// small directed mesh: each op connects or disconnects a pair in one
// or both directions (calling TopologyChanged after it, as the
// controller does) or advances sim time by up to twice the convergence
// delay. After every op it asserts, for every ordered pair, that
// PathFrom on a Fast equals the plain walk on the same router and the
// plain walk on a twin Fast that saw the same history but is reached
// only through a decorator, so it never memoises.
func driveFastPathMemo(t *testing.T, ops []byte) memoCoverage {
	t.Helper()
	const nodes = 7
	eng := sim.New(1)
	net := NewStaticNetwork()
	ids := make([]string, nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
		net.AddNode(ids[i])
	}
	f := NewFast(eng, net, 2.0)
	twin := hiddenRouter{NewFast(eng, net, 2.0)}
	var cov memoCoverage
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		a, b := ids[int(arg)%nodes], ids[int(arg/nodes)%nodes]
		if op%6 != 5 && a == b {
			continue
		}
		switch op % 6 {
		case 0, 1:
			net.Connect(a, b)
		case 2:
			net.ConnectOneWay(a, b)
		case 3:
			net.Disconnect(a, b)
		case 4:
			net.DisconnectOneWay(a, b)
		case 5:
			eng.Run(eng.Now() + float64(arg)/255*2*f.ConvergenceS)
		}
		if op%6 != 5 {
			f.TopologyChanged()
			twin.Router.(*Fast).TopologyChanged()
			cov.changes++
		}
		// Query every pair through the memo first, then compare: a
		// stale memo hit cannot be masked by a rebuild that a
		// comparison walk triggered earlier in the sweep.
		type result struct {
			path []string
			ok   bool
		}
		var got []result
		for _, src := range ids {
			for _, dst := range ids {
				p, ok := PathFrom(f, src, dst)
				got = append(got, result{p, ok})
			}
		}
		for si, src := range ids {
			for di, dst := range ids {
				g := got[si*nodes+di]
				want, wantOK := walk(f, src, dst)
				if src == dst {
					want, wantOK = []string{src}, true
				}
				if g.ok != wantOK || !slices.Equal(g.path, want) {
					t.Fatalf("op %d at t=%v: PathFrom(%s→%s) = %v,%v; walk on the same router = %v,%v",
						i/2, eng.Now(), src, dst, g.path, g.ok, want, wantOK)
				}
				tw, twOK := PathFrom(twin, src, dst)
				if g.ok != twOK || !slices.Equal(g.path, tw) {
					t.Fatalf("op %d at t=%v: PathFrom(%s→%s) = %v,%v; unmemoised twin = %v,%v",
						i/2, eng.Now(), src, dst, g.path, g.ok, tw, twOK)
				}
				if src != dst {
					if g.ok {
						cov.routed++
					} else {
						cov.failed++
					}
				}
			}
		}
	}
	cov.recomputes = f.Recomputes
	return cov
}

func TestFastPathMemoMatchesWalk(t *testing.T) {
	var total memoCoverage
	for seed := int64(1); seed <= 8; seed++ {
		ops := make([]byte, 400)
		rand.New(rand.NewSource(seed)).Read(ops)
		cov := driveFastPathMemo(t, ops)
		total.changes += cov.changes
		total.recomputes += cov.recomputes
		total.routed += cov.routed
		total.failed += cov.failed
	}
	if total.changes == 0 || total.recomputes < 20 || total.routed == 0 || total.failed == 0 {
		t.Errorf("op sequences covered too little: %+v", total)
	}
}

// TestFastPathMemoSeesConvergence is the lazy-rebuild case: a query
// inside the convergence window fills the memo with the old route,
// and the first query after the window must see the rebuilt tables
// even though no topology change came in between.
func TestFastPathMemoSeesConvergence(t *testing.T) {
	eng := sim.New(1)
	net := lineTopology(2) // gs - b01 - b02
	f := NewFast(eng, net, 2.0)
	if p, ok := PathFrom(f, "b02", "gs"); !ok || len(p) != 3 {
		t.Fatalf("initial path = %v,%v, want b02→b01→gs", p, ok)
	}
	net.Connect("b02", "gs")
	f.TopologyChanged()
	eng.Run(eng.Now() + 1)
	if p, ok := PathFrom(f, "b02", "gs"); !ok || len(p) != 3 {
		t.Fatalf("inside the convergence window path = %v,%v, want the old 3-hop route", p, ok)
	}
	eng.Run(eng.Now() + 2)
	if p, ok := PathFrom(f, "b02", "gs"); !ok || !slices.Equal(p, []string{"b02", "gs"}) {
		t.Fatalf("after convergence path = %v,%v, want the direct link", p, ok)
	}
}

func FuzzFastPathMemo(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 200)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			ops = ops[:600] // 300 steps keep one exec to milliseconds
		}
		driveFastPathMemo(t, ops)
	})
}
