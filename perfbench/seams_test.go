package main

import (
	"sync"
	"testing"
	"time"
)

// TestSeamConcurrent drives one seam from several goroutines, as the
// evaluator's worker fan-out could.
func TestSeamConcurrent(t *testing.T) {
	var s seam
	const workers, calls = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				s.since(time.Now())
			}
		}()
	}
	wg.Wait()
	if got := s.calls.Load(); got != workers*calls {
		t.Fatalf("calls = %d, want %d", got, workers*calls)
	}
	if s.ns.Load() < 0 {
		t.Fatalf("negative total time %d", s.ns.Load())
	}
}
