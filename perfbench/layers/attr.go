package layers

import "strings"

// repoPrefix marks the module's layer packages.
const repoPrefix = "minkowski/internal/"

// GC is the layer charged with samples that have no repo frame:
// background GC workers, the scheduler, and idle runtime work.
const GC = "runtime_gc"

// drivers are the layers that call into the others: the event loop,
// the controller that wires every layer together, and the chaos
// runner. Inclusive time looks through them to the layer they called.
var drivers = map[string]bool{"sim": true, "core": true, "chaos_search": true}

// Layer names the layer a profiled function belongs to, from its
// symbol (e.g. "minkowski/internal/radio.(*Fabric).Neighbors" →
// "radio", "minkowski/internal/chaos/search.runOnce" →
// "chaos_search"). ok is false outside minkowski/internal/.
func Layer(fn string) (layer string, ok bool) {
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return "", false
	}
	// The package path ends at the first '.' after its last '/'.
	pkgEnd := len(rest)
	slash := strings.LastIndexByte(rest, '/')
	if dot := strings.IndexByte(rest[slash+1:], '.'); dot >= 0 {
		pkgEnd = slash + 1 + dot
	}
	return strings.ReplaceAll(rest[:pkgEnd], "/", "_"), true
}

// Attribute charges one stack (leaf first) to its inclusive ("busy")
// and self layers.
//
// Busy is the first non-driver layer met walking from the root toward
// the leaf: the layer the drivers called into. A stack whose repo
// frames are all drivers is charged to its deepest driver; evaluator
// and solver worker stacks start with no driver frame, so they land on
// their own package. Self is the innermost repo frame's layer. A stack
// with no repo frame is charged to GC for both.
func Attribute(stack []string) (busy, self string) {
	deepestDriver := ""
	for i := len(stack) - 1; i >= 0; i-- {
		l, ok := Layer(stack[i])
		if !ok {
			continue
		}
		if drivers[l] {
			deepestDriver = l
			continue
		}
		busy = l
		break
	}
	if busy == "" {
		busy = deepestDriver
	}
	for _, fn := range stack {
		if l, ok := Layer(fn); ok {
			self = l
			break
		}
	}
	if busy == "" {
		return GC, GC
	}
	return busy, self
}

// Totals is CPU nanoseconds per layer.
type Totals struct {
	Busy, Self map[string]int64
}

// Sum attributes every sample.
func Sum(samples []Sample) Totals {
	t := Totals{Busy: map[string]int64{}, Self: map[string]int64{}}
	for _, s := range samples {
		busy, self := Attribute(s.Stack)
		t.Busy[busy] += s.CPUNs
		t.Self[self] += s.CPUNs
	}
	return t
}

// Add accumulates o into t.
func (t Totals) Add(o Totals) {
	for k, v := range o.Busy {
		t.Busy[k] += v
	}
	for k, v := range o.Self {
		t.Self[k] += v
	}
}
