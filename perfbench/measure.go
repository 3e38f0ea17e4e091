package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"minkowski/perfbench/layers"
)

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	cpu     time.Duration // user + system, whole process
	alloc   uint64        // cumulative heap bytes allocated
	gcs     uint32        // completed GC cycles
	pauseNs uint64        // cumulative stop-the-world GC pause
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatal("getrusage: %v", err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

func (u usage) sub(o usage) usage {
	return usage{u.cpu - o.cpu, u.alloc - o.alloc, u.gcs - o.gcs, u.pauseNs - o.pauseNs}
}

// heapPeak samples HeapInuse (heap objects plus unused heap spans) on
// a wall-clock ticker until stopped. runtime/metrics reads do not stop
// the world.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

const heapSampleEvery = 10 * time.Millisecond

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling, waits for the sampler to exit, and returns the
// highest reading.
func (h *heapPeak) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// profile is one running CPU profile.
type profile struct{ buf bytes.Buffer }

func startProfile() *profile {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		fatal("cpu profile: %v", err)
	}
	return p
}

// Stop ends the profile and charges its samples to layers.
func (p *profile) Stop() layers.Totals {
	pprof.StopCPUProfile()
	samples, err := layers.ParseCPU(p.buf.Bytes())
	if err != nil {
		fatal("reading cpu profile: %v", err)
	}
	return layers.Sum(samples)
}

// fatal reports a harness failure (not a program failure) and exits
// without a result line.
func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
