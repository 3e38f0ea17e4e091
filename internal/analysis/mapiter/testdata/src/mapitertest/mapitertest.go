// Package mapitertest exercises the mapiter analyzer.
package mapitertest

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"strings"

	"minkowski/internal/telemetry"
)

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort idiom: fine
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectThenSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m { // sorted via sort.Slice afterwards: fine
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func unsortedCollect(m map[string]int) []string {
	var out []string
	for k := range m { // want `appends to out \(declared outside the loop, never sorted\)`
		out = append(out, k)
	}
	return out
}

func channelSend(m map[string]int, ch chan<- string) {
	for k := range m { // want `sends on a channel`
		ch <- k
	}
}

func telemetrySink(m map[string]bool, r *telemetry.Reachability) {
	for node, up := range m { // want `calls into order-sensitive package minkowski/internal/telemetry`
		r.Observe(0, node, telemetry.LayerLink, up)
	}
}

func commutativeFold(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m { // commutative fold: fine
		sum += v
	}
	return sum
}

func deleteSweep(m map[string]int) {
	for k, v := range m { // deleting from the ranged map: fine
		if v == 0 {
			delete(m, k)
		}
	}
}

func loopLocalAppend(m map[string][]int) int {
	total := 0
	for _, vs := range m { // appends only to a loop-local slice: fine
		local := make([]int, 0, len(vs))
		for _, v := range vs {
			local = append(local, v*2)
		}
		total += len(local)
	}
	return total
}

func justified(m map[string]int, ch chan<- string) {
	//minkowski:unordered-ok receiver drains into an order-insensitive set
	for k := range m {
		ch <- k
	}
}

func badJustification(m map[string]int, ch chan<- string) {
	//minkowski:unordered-ok
	for k := range m { // want `requires a justification`
		ch <- k
	}
}

type link struct{ a, b string }

func findFirstValue(m map[string]*link, a, b string) (*link, bool) {
	for _, l := range m { // want `returns a value derived from the map key or value`
		if l.a == a && l.b == b {
			return l, true
		}
	}
	return nil, false
}

func findFirstKey(m map[string]int, v int) string {
	for k, x := range m { // want `returns a value derived from the map key or value`
		if x == v {
			return k
		}
	}
	return ""
}

func findFirstDerived(m map[string][]string) string {
	for _, vs := range m { // want `returns a value derived from the map key or value`
		for _, v := range vs {
			name := "node/" + v
			if len(name) > 8 {
				return name
			}
		}
	}
	return ""
}

func findFirstVar(m map[string]int) string {
	for k := range m { // want `returns a value derived from the map key or value`
		var id = "node/" + k
		return id
	}
	return ""
}

func anyMatch(m map[string]*link, a string) bool {
	for _, l := range m { // constant return, the any-match shape: fine
		if l.a == a || l.b == a {
			return true
		}
	}
	return false
}

func returnOuter(m map[string]int, fallback string) (string, bool) {
	for _, x := range m { // returns nothing derived from the entry: fine
		if x < 0 {
			return fallback, false
		}
	}
	return fallback, true
}

func returnInsideLiteral(m map[string]int) []func() string {
	var fs []func() string
	for k := range m { // the return belongs to the literal; the append is sorted below
		fs = append(fs, func() string { return k })
	}
	sort.Slice(fs, func(i, j int) bool { return fs[i]() < fs[j]() })
	return fs
}

func justifiedFindFirst(m map[string]string, v string) string {
	//minkowski:unordered-ok values are unique, so at most one key matches
	for k, x := range m {
		if x == v {
			return k
		}
	}
	return ""
}

func printInRange(m map[string][]string) {
	for id, path := range m { // want `writes output \(fmt.Printf\)`
		fmt.Printf("route %s %v\n", id, path)
	}
}

func printlnInRange(m map[string]int) {
	for k := range m { // want `writes output \(fmt.Println\)`
		fmt.Println(k)
	}
}

func fprintInRange(w io.Writer, m map[string]int) {
	for k, v := range m { // want `writes output \(fmt.Fprintf\)`
		fmt.Fprintf(w, "%s=%d\n", k, v)
	}
}

func writerWriteInRange(w io.Writer, m map[string]int) {
	for k := range m { // want `writes output \(io.Writer method Write\)`
		w.Write([]byte(k))
	}
}

func fileWriteInRange(m map[string]int) {
	for k := range m { // want `writes output \(io.Writer method WriteString\)`
		os.Stdout.WriteString(k)
	}
}

func builderInRange(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want `writes output \(io.Writer method WriteString\)`
		b.WriteString(k)
	}
	return b.String()
}

func hashInRange(m map[string]int) uint64 {
	h := fnv.New64a()
	for k := range m { // want `writes output \(io.Writer method Write\)`
		h.Write([]byte(k))
	}
	return h.Sum64()
}

func printSorted(m map[string][]string) {
	ids := make([]string, 0, len(m))
	for id := range m { // collect-then-sort, printing from the sorted slice: fine
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("route %s %v\n", id, m[id])
	}
}

func sprintfInRange(m map[string]int) int {
	n := 0
	for k, v := range m { // Sprintf returns a value and prints nothing: fine
		n += len(fmt.Sprintf("%s=%d", k, v))
	}
	return n
}

// tally has a Write method that is not io.Writer's.
type tally struct{ n int }

func (t *tally) Write(s string) { t.n += len(s) }

func nonWriterWriteInRange(m map[string]int) int {
	var t tally
	for k := range m { // a Write method outside io.Writer: fine
		t.Write(k)
	}
	return t.n
}

func justifiedPrint(m map[string]int) {
	//minkowski:unordered-ok the map holds at most one entry
	for k := range m {
		fmt.Println(k)
	}
}
