package linkeval

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/platform"
)

// gradientRain is a deterministic, spatially varying weather estimate:
// attenuation differs along a path depending on where it runs, which
// exercises the direction-dependent sample integration the incremental
// pipeline must reproduce bit-for-bit. phase shifts the whole pattern,
// standing in for weather evolution.
type gradientRain struct{ phase float64 }

func (g *gradientRain) EstimateRain(p geo.LLA) (float64, bool) {
	lat, lon := geo.ToDeg(p.Lat), geo.ToDeg(p.Lon)
	r := 12*math.Sin(lat*3+g.phase) + 10*math.Cos(lon*2-g.phase)
	if r < 0 {
		r = 0
	}
	return r, true
}
func (g *gradientRain) AgeSeconds() float64 { return 0 }
func (g *gradientRain) Name() string        { return "gradient" }

// randomFleet builds a reproducible fleet: ground stations plus
// balloons scattered over an area wider than MaxRangeM, so the cell
// index has real pruning to do and real neighbors to keep.
func randomFleet(rng *rand.Rand, nBalloons int) ([]*platform.Node, []*platform.Transceiver) {
	var nodes []*platform.Node
	var xs []*platform.Transceiver
	gsPos := []geo.LLA{
		geo.LLADeg(-1.32, 36.83, 1700),
		geo.LLADeg(-0.09, 34.77, 1200),
		geo.LLADeg(-0.28, 36.07, 1850),
	}
	for i, p := range gsPos {
		gs := platform.NewGroundStation(fmt.Sprintf("gs-%02d", i), p, nil)
		xs = append(xs, gs.Xcvrs...)
	}
	for i := 0; i < nBalloons; i++ {
		lat := -6 + 12*rng.Float64()
		lon := 30 + 14*rng.Float64()
		alt := 17000 + 3000*rng.Float64()
		n := mkBalloon(fmt.Sprintf("hbal-%03d", i), lat, lon, alt)
		nodes = append(nodes, n)
		xs = append(xs, n.Xcvrs...)
	}
	return nodes, xs
}

func compareGraphs(t *testing.T, label string, inc, brute []*Report) {
	t.Helper()
	if len(inc) != len(brute) {
		t.Fatalf("%s: incremental %d candidates vs brute-force %d", label, len(inc), len(brute))
	}
	for i := range inc {
		a, b := inc[i], brute[i]
		if a.ID != b.ID {
			t.Fatalf("%s[%d]: ID %v vs %v (ordering broken)", label, i, a.ID, b.ID)
		}
		if a.XA != b.XA || a.XB != b.XB {
			t.Fatalf("%s[%d] %v: transceiver assignment differs", label, i, a.ID)
		}
		if *a != *b {
			t.Fatalf("%s[%d] %v: reports differ bitwise:\n inc   %+v\n brute %+v", label, i, a.ID, *a, *b)
		}
	}
}

// TestIncrementalMatchesBruteForce is the central equivalence
// property: across randomized fleets, wind-driven drift, weather-epoch
// bumps, and cache-serving repeat calls, the incremental pipeline's
// candidate graph is bit-identical to the brute-force reference.
func TestIncrementalMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nodes, xs := randomFleet(rng, 24)
			src := &gradientRain{}
			cfgInc := DefaultConfig()
			cfgInc.Parallelism = 4
			cfgBrute := cfgInc
			cfgBrute.Incremental = false
			inc := New(cfgInc, src, nil)
			brute := New(cfgBrute, src, nil)
			for step := 0; step < 6; step++ {
				label := fmt.Sprintf("step%d", step)
				gb := brute.CandidateGraph(xs, 0)
				gi := inc.CandidateGraph(xs, 0)
				compareGraphs(t, label, gi, gb)
				// Same instant again: served largely from cache, must
				// still match bitwise.
				pre := inc.Stats()
				gi2 := inc.CandidateGraph(xs, 0)
				compareGraphs(t, label+"-cached", gi2, gb)
				if d := inc.Stats().Sub(pre); d.CacheHits == 0 {
					t.Fatalf("%s: repeat call produced no cache hits", label)
				}
				if step%2 == 0 {
					// Wind: drift every balloon a few km in a random
					// direction (positions change → cache must miss).
					for _, n := range nodes {
						alt := n.Balloon.Pos.Alt
						n.Balloon.Pos = geo.Offset(n.Balloon.Pos, geo.Deg(rng.Float64()*360), 2000+6000*rng.Float64())
						n.Balloon.Pos.Alt = alt
					}
				} else {
					// Weather evolves: shift the pattern and advance
					// the incremental evaluator's epoch (brute force
					// has no cache to invalidate).
					src.phase += 0.7
					inc.BumpWeatherEpoch()
				}
			}
			// Horizon with a drifting predictor: per-lead graphs must
			// also agree.
			pred := func(n *platform.Node, lead float64) geo.LLA {
				p := n.Position()
				if n.Kind == platform.KindBalloon {
					alt := p.Alt
					p = geo.Offset(p, geo.Deg(90), lead*8)
					p.Alt = alt
				}
				return p
			}
			inc.Predict = pred
			brute.Predict = pred
			leads := []float64{0, 180, 360}
			hi := inc.Horizon(xs, leads)
			hb := brute.Horizon(xs, leads)
			for i := range leads {
				compareGraphs(t, fmt.Sprintf("horizon-lead%d", int(leads[i])), hi[i], hb[i])
			}
		})
	}
}

// TestForcedEpochBumpReEvaluates: an epoch bump with no movement must
// drop every cached entry and recompute, still bit-identically.
func TestForcedEpochBumpReEvaluates(t *testing.T) {
	e := New(DefaultConfig(), clearSky{}, nil)
	xs := testFleetXcvrs()
	g1 := e.CandidateGraph(xs, 0)
	pre := e.Stats()
	e.BumpWeatherEpoch()
	g2 := e.CandidateGraph(xs, 0)
	d := e.Stats().Sub(pre)
	if d.CacheHits != 0 {
		t.Errorf("post-bump evaluation saw %d cache hits, want 0", d.CacheHits)
	}
	if d.ReEvals == 0 {
		t.Error("post-bump evaluation did no re-evals")
	}
	compareGraphs(t, "epoch-bump", g2, g1)
}

// TestEpochPurgeFindsOnlyDeadEntries pins the invariant that lets the
// epoch sweep be a plain clear: whenever the weather epoch has moved
// since the last sweep, every cached entry belongs to an older epoch,
// and after each graph every entry belongs to the current one. Graphs
// and horizons run over a drifting fleet with zero, one or two epoch
// bumps in between, and a DropCache midway.
func TestEpochPurgeFindsOnlyDeadEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	nodes, xs := randomFleet(rng, 16)
	e := New(DefaultConfig(), &gradientRain{}, nil)
	swept := 0
	for step := 0; step < 24; step++ {
		if e.scr.lastPurgeEpoch != e.weatherEpoch {
			if len(e.cache) > 0 {
				swept++
			}
			for id, ent := range e.cache {
				if ent.epoch == e.weatherEpoch {
					t.Fatalf("step %d: entry %v is from the current epoch %d at sweep time", step, id, ent.epoch)
				}
			}
		}
		if step%5 == 4 {
			e.Horizon(xs, []float64{0, 600})
		} else {
			e.CandidateGraph(xs, 0)
		}
		if e.CacheLen() == 0 {
			t.Fatalf("step %d: vacuous: empty cache after a graph", step)
		}
		for id, ent := range e.cache {
			if ent.epoch != e.weatherEpoch {
				t.Fatalf("step %d: entry %v has epoch %d after a graph at epoch %d", step, id, ent.epoch, e.weatherEpoch)
			}
		}
		for i, n := range nodes {
			if (i+step)%3 == 0 {
				alt := n.Balloon.Pos.Alt
				n.Balloon.Pos = geo.Offset(n.Balloon.Pos, geo.Deg(rng.Float64()*360), 500+3000*rng.Float64())
				n.Balloon.Pos.Alt = alt
			}
		}
		for b := rng.Intn(3); b > 0; b-- {
			e.BumpWeatherEpoch()
		}
		if step == 12 {
			e.DropCache()
		}
	}
	if swept == 0 {
		t.Fatal("vacuous: no sweep found a populated cache")
	}
}

// TestDisplacementEpsilonCacheInvalidation pins the cache-invalidation
// boundary: inside DisplacementEpsM a cached report (with its stale
// geometry) is served; beyond it, or on a weather-epoch bump, the pair
// re-evaluates.
func TestDisplacementEpsilonCacheInvalidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DisplacementEpsM = 1000
	cfg.Parallelism = 1
	n1 := mkBalloon("hbal-001", -1, 36.5, 18000)
	n2 := mkBalloon("hbal-002", -1, 38.0, 18000)
	var xs []*platform.Transceiver
	xs = append(xs, n1.Xcvrs...)
	xs = append(xs, n2.Xcvrs...)
	e := New(cfg, clearSky{}, nil)
	g1 := e.CandidateGraph(xs, 0)
	if len(g1) == 0 {
		t.Fatal("no candidates in the baseline graph")
	}
	d1 := g1[0].DistM
	s1 := e.Stats()

	// Drift 400 m: inside the epsilon. Every pair must be served from
	// cache — including the now slightly stale distance.
	alt := n2.Balloon.Pos.Alt
	n2.Balloon.Pos = geo.Offset(n2.Balloon.Pos, geo.Deg(90), 400)
	n2.Balloon.Pos.Alt = alt
	g2 := e.CandidateGraph(xs, 0)
	d := e.Stats().Sub(s1)
	if d.ReEvals != 0 {
		t.Errorf("drift within epsilon re-evaluated %d pairs, want 0", d.ReEvals)
	}
	if d.CacheHits == 0 {
		t.Error("drift within epsilon produced no cache hits")
	}
	if g2[0].DistM != d1 {
		t.Errorf("cache hit must serve the cached report (DistM %v, want stale %v)", g2[0].DistM, d1)
	}

	// Drift 800 m more: 1200 m from the cached evaluation position,
	// beyond the epsilon → re-evaluate with fresh geometry.
	s2 := e.Stats()
	n2.Balloon.Pos = geo.Offset(n2.Balloon.Pos, geo.Deg(90), 800)
	n2.Balloon.Pos.Alt = alt
	g3 := e.CandidateGraph(xs, 0)
	d = e.Stats().Sub(s2)
	if d.ReEvals == 0 {
		t.Error("drift beyond epsilon did not re-evaluate")
	}
	if g3[0].DistM == d1 {
		t.Error("re-evaluation past epsilon must refresh the geometry")
	}

	// Weather-epoch bump with no movement: the epsilon does not save
	// the entry — everything re-evaluates.
	s3 := e.Stats()
	e.BumpWeatherEpoch()
	_ = e.CandidateGraph(xs, 0)
	d = e.Stats().Sub(s3)
	if d.CacheHits != 0 {
		t.Errorf("epoch bump still served %d cache hits", d.CacheHits)
	}
	if d.ReEvals == 0 {
		t.Error("epoch bump did not force re-evaluation")
	}
}

// TestSpatialPruningStats: a fleet spread far beyond MaxRangeM must
// show index pruning in Stats while keeping the near candidates.
func TestSpatialPruningStats(t *testing.T) {
	// Two clusters ~2200 km apart: pairs within a cluster are in
	// range; cross-cluster pairs must be pruned by the index.
	var xs []*platform.Transceiver
	for i := 0; i < 4; i++ {
		n := mkBalloon(fmt.Sprintf("hbal-a%02d", i), -1+0.3*float64(i), 36.0, 18000)
		xs = append(xs, n.Xcvrs...)
	}
	for i := 0; i < 4; i++ {
		n := mkBalloon(fmt.Sprintf("hbal-b%02d", i), -1+0.3*float64(i), 56.0, 18000)
		xs = append(xs, n.Xcvrs...)
	}
	e := New(DefaultConfig(), clearSky{}, nil)
	g := e.CandidateGraph(xs, 0)
	if len(g) == 0 {
		t.Fatal("in-cluster candidates expected")
	}
	s := e.Stats()
	if s.PairsPruned == 0 {
		t.Errorf("cross-cluster pairs should be index-pruned: %+v", s)
	}
	if s.PairsEnumerated+s.PairsPruned != s.PairsPossible {
		t.Errorf("stats must account for every possible pair: %+v", s)
	}
	// And the graph must still match brute force exactly.
	cfg := DefaultConfig()
	cfg.Incremental = false
	gb := New(cfg, clearSky{}, nil).CandidateGraph(xs, 0)
	compareGraphs(t, "two-cluster", g, gb)
}
