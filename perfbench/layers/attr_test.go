package layers

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"minkowski/internal/radio.(*Fabric).Neighbors":         "radio",
		"minkowski/internal/chaos/search.runOnce.func3":        "chaos_search",
		"minkowski/internal/linkeval.(*Evaluator).sweep.func1": "linkeval",
		"minkowski/internal/geo.Vec3.ToLLA":                    "geo",
		"minkowski/internal/solver.run[...]":                   "solver",
	} {
		if got, ok := Layer(fn); !ok || got != want {
			t.Errorf("Layer(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	for _, fn := range []string{"runtime.mallocgc", "main.runScenario", "minkowski.NewSimulation"} {
		if got, ok := Layer(fn); ok {
			t.Errorf("Layer(%q) = %q; want no layer", fn, got)
		}
	}
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		name       string
		stack      []string // leaf first
		busy, self string
	}{
		{
			name: "evaluator worker with no core frame",
			stack: []string{
				"minkowski/internal/itu.(*AttenLUT).Gaseous",
				"minkowski/internal/linkeval.(*Evaluator).evalPair",
				"minkowski/internal/linkeval.(*Evaluator).sweep.func1",
				"runtime.goexit",
			},
			busy: "linkeval", self: "itu",
		},
		{
			name: "background GC",
			stack: []string{
				"runtime.scanobject",
				"runtime.gcDrain",
				"runtime.gcBgMarkWorker",
				"runtime.goexit",
			},
			busy: GC, self: GC,
		},
		{
			name: "in-band path walk",
			stack: []string{
				"sort.Strings",
				"minkowski/internal/radio.(*Fabric).Neighbors",
				"minkowski/internal/manet.(*Fast).NextHop",
				"minkowski/internal/manet.PathFrom",
				"minkowski/internal/cdpi.(*InBand).PathUp",
				"minkowski/internal/core.(*Controller).sampleRecovery",
				"minkowski/internal/sim.(*Engine).Run",
				"minkowski/internal/core.(*Controller).Run",
				"main.runScenario",
			},
			busy: "cdpi", self: "radio",
		},
		{
			name: "chaos invariant check",
			stack: []string{
				"runtime.mapaccess2_faststr",
				"minkowski/internal/chaos/search.runOnce.func7",
				"minkowski/internal/sim.(*Engine).Run",
				"minkowski/internal/core.(*Controller).Run",
				"minkowski/internal/chaos/search.runOnce",
				"minkowski/internal/chaos/search.Run",
			},
			busy: "chaos_search", self: "chaos_search",
		},
		{
			name: "event loop overhead",
			stack: []string{
				"container/heap.Pop",
				"minkowski/internal/sim.(*Engine).Run",
				"minkowski/internal/core.(*Controller).Run",
			},
			busy: "sim", self: "sim",
		},
	}
	for _, c := range cases {
		busy, self := Attribute(c.stack)
		if busy != c.busy || self != c.self {
			t.Errorf("%s: got busy=%s self=%s; want busy=%s self=%s", c.name, busy, self, c.busy, c.self)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	x := 0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x += i * i
		}
	}
	return x
}

// TestParseCPU decodes a real runtime/pprof CPU profile.
func TestParseCPU(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := ParseCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples in a 300 ms busy loop")
	}
	var total, inSpin int64
	for _, s := range samples {
		if s.CPUNs <= 0 || len(s.Stack) == 0 {
			t.Fatalf("malformed sample %+v", s)
		}
		total += s.CPUNs
		for _, fn := range s.Stack {
			if strings.HasSuffix(fn, "layers.spin") {
				inSpin += s.CPUNs
				break
			}
		}
	}
	if inSpin*2 < total {
		t.Errorf("spin holds %d of %d ns; want most of the profile", inSpin, total)
	}
}
