package weather

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
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

// forecastRateDirect is Forecast.EstimateRain's body without the
// per-time advection cache: every cell advected on every call.
func forecastRateDirect(f *Forecast, p geo.LLA) float64 {
	now := f.field.Now()
	total := 0.0
	for _, c := range f.cells {
		if p.Alt > c.TopAltM {
			continue
		}
		adv := *c
		adv.Center = geo.Offset(c.Center, c.HeadRad, c.SpeedMS*(now-f.issuedAt))
		total += adv.RateAt(p, now)
	}
	return total
}

// TestForecastAdvectionCacheConcurrent holds the forecast's per-time
// advection cache to the per-call advection bit for bit while several
// goroutines query it at once, as the evaluator's workers do, across
// Steps that move the sim time (every Step's first queries race to
// build the new snapshot). Run it under -race.
func TestForecastAdvectionCacheConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CellSpawnPerHour = 20
	f := NewField(cfg)
	for i := 0; i < 12; i++ {
		f.Step(600)
	}
	fc := Issue(f, DefaultForecastConfig(), 5)
	if len(fc.cells) == 0 {
		t.Fatal("vacuous: forecast has no cells")
	}
	rng := rand.New(rand.NewSource(9))
	r := cfg.Region
	pts := make([]geo.LLA, 64)
	for i := range pts {
		pts[i] = geo.LLADeg(r.LatMinDeg+rng.Float64()*(r.LatMaxDeg-r.LatMinDeg),
			r.LonMinDeg+rng.Float64()*(r.LonMaxDeg-r.LonMinDeg), 6000*rng.Float64())
	}
	const workers = 4
	rained := false
	for step := 0; step < 8; step++ {
		want := make([]uint64, len(pts))
		for i, p := range pts {
			v := forecastRateDirect(fc, p)
			rained = rained || v > 0
			want[i] = math.Float64bits(v)
		}
		errs := make(chan string, workers*len(pts))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range pts {
					i := (k + w*len(pts)/workers) % len(pts)
					got, ok := fc.EstimateRain(pts[i])
					if !ok || math.Float64bits(got) != want[i] {
						errs <- fmt.Sprintf("step %d point %d: EstimateRain = %v, %v; per-call advection gives %v",
							step, i, got, ok, math.Float64frombits(want[i]))
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
		f.Step(300)
	}
	if !rained {
		t.Fatal("vacuous: no query point saw forecast rain")
	}
}
