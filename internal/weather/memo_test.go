package weather

import (
	"math"
	"math/rand"
	"testing"

	"minkowski/internal/geo"
	"minkowski/internal/itu"
)

// checkMemoExact asserts that the memoised PathAttenuation returns the
// un-memoised integration bit for bit, on a miss and on a hit.
func checkMemoExact(t *testing.T, f *Field, where string, fGHz float64, a, b geo.LLA) {
	t.Helper()
	want := math.Float64bits(f.pathAttenuation(fGHz, a, b))
	for call := 0; call < 2; call++ {
		if got := math.Float64bits(f.PathAttenuation(fGHz, a, b)); got != want {
			t.Fatalf("%s: call %d of PathAttenuation(%v, %v, %v) = %v, integration gives %v",
				where, call, fGHz, a, b, math.Float64frombits(got), math.Float64frombits(want))
		}
	}
}

// TestPathAttenuationMemoExact drives random fields through Steps and
// InjectCells, querying random endpoint pairs (ground-to-balloon and
// balloon-to-balloon) at random frequencies, and holds the memo to the
// integration after every mutation.
func TestPathAttenuationMemoExact(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Season = []itu.Season{itu.DrySeason, itu.ShortRains, itu.LongRains}[seed%3]
		cfg.CellSpawnPerHour = 5 + 20*rng.Float64()
		f := NewField(cfg)
		r := cfg.Region
		point := func(alt float64) geo.LLA {
			return geo.LLADeg(r.LatMinDeg+rng.Float64()*(r.LatMaxDeg-r.LatMinDeg),
				r.LonMinDeg+rng.Float64()*(r.LonMaxDeg-r.LonMinDeg), alt)
		}
		type query struct {
			fGHz float64
			a, b geo.LLA
		}
		var qs []query
		for i := 0; i < 12; i++ {
			a := point(1000 + 2000*rng.Float64())
			if i%3 == 0 {
				a = point(15000 + 5000*rng.Float64())
			}
			qs = append(qs, query{71 + 15*rng.Float64(), a, point(15000 + 5000*rng.Float64())})
		}
		for step := 0; step < 20; step++ {
			for _, q := range qs {
				checkMemoExact(t, f, "after step", q.fGHz, q.a, q.b)
			}
			// A storm dropped onto a queried ground endpoint changes
			// that path's truth at unchanged endpoints and unchanged
			// time: only InjectCell's own invalidation catches it.
			if step%4 == 1 {
				q := qs[rng.Intn(len(qs))]
				f.InjectCell(q.a, 8000, 60, 9000, 3600)
				for _, q := range qs {
					checkMemoExact(t, f, "after InjectCell", q.fGHz, q.a, q.b)
				}
			}
			f.Step(60 + 540*rng.Float64())
		}
	}
}

// TestInjectCellInvalidatesMemo is the named case: a memoised clear-sky
// ground path must see a storm injected on its ground end before the
// next Step.
func TestInjectCellInvalidatesMemo(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSpawnPerHour = 0
	f := NewField(cfg)
	f.Step(60)
	gs := geo.LLADeg(-1, 37, 1600)
	bln := geo.LLADeg(-1.2, 37.3, 18000)
	before := f.PathAttenuation(80, gs, bln)
	f.InjectCell(gs, 10000, 80, 9000, 3600)
	after := f.PathAttenuation(80, gs, bln)
	if after <= before {
		t.Fatalf("storm on the ground end: attenuation %v dB, clear sky was %v dB", after, before)
	}
	if math.Float64bits(after) != math.Float64bits(f.pathAttenuation(80, gs, bln)) {
		t.Fatal("memoised value differs from the integration after InjectCell")
	}
}
