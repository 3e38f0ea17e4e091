package radio

import (
	"slices"
	"sort"
	"strings"
)

// nodePair is an unordered pair of node IDs, the lower ID first.
type nodePair struct{ a, b string }

func makeNodePair(a, b string) nodePair {
	if b < a {
		a, b = b, a
	}
	return nodePair{a: a, b: b}
}

// cmpLinkID orders links by ID, the order Links sorts them in.
func cmpLinkID(x, y *Link) int {
	if x.ID.A != y.ID.A {
		return strings.Compare(x.ID.A, y.ID.A)
	}
	return strings.Compare(x.ID.B, y.ID.B)
}

// nodeAdj is one node's view of the up-link index.
type nodeAdj struct {
	// count holds, per neighbour, the number of up links to it.
	count map[string]int
	// sorted lists the neighbours in order; nil after a neighbour
	// joins or leaves until the next Neighbors call rebuilds it.
	sorted []string
}

// upIndex is the adjacency index over links in StateUp. The fabric
// calls add and remove at exactly the two places a link's State
// crosses StateUp, so every read is a map lookup instead of a scan of
// all links.
type upIndex struct {
	// byPair holds, per node pair, its up links sorted by LinkID.
	byPair map[nodePair][]*Link
	nodes  map[string]*nodeAdj
	n      int
}

func newUpIndex() upIndex {
	return upIndex{byPair: map[nodePair][]*Link{}, nodes: map[string]*nodeAdj{}}
}

// add indexes a link that has just reached StateUp.
func (x *upIndex) add(l *Link) {
	a, b := l.Nodes()
	p := makeNodePair(a, b)
	ls := x.byPair[p]
	i, _ := slices.BinarySearchFunc(ls, l, cmpLinkID)
	x.byPair[p] = slices.Insert(ls, i, l)
	x.bump(a, b, 1)
	x.bump(b, a, 1)
	x.n++
}

// remove drops a link that is leaving StateUp.
func (x *upIndex) remove(l *Link) {
	a, b := l.Nodes()
	p := makeNodePair(a, b)
	ls := x.byPair[p]
	if i := slices.Index(ls, l); i >= 0 {
		ls = slices.Delete(ls, i, i+1)
	}
	if len(ls) == 0 {
		delete(x.byPair, p)
	} else {
		x.byPair[p] = ls
	}
	x.bump(a, b, -1)
	x.bump(b, a, -1)
	x.n--
}

// bump changes the up-link count from node to nbr by d, invalidating
// node's sorted neighbour list when nbr joins or leaves it.
func (x *upIndex) bump(node, nbr string, d int) {
	na := x.nodes[node]
	if na == nil {
		na = &nodeAdj{count: map[string]int{}}
		x.nodes[node] = na
	}
	c := na.count[nbr] + d
	if c > 0 {
		na.count[nbr] = c
		if c == d { // the count was zero: nbr just joined
			na.sorted = nil
		}
		return
	}
	delete(na.count, nbr)
	na.sorted = nil
	if len(na.count) == 0 {
		delete(x.nodes, node)
	}
}

// neighbors returns node's sorted neighbour list, rebuilding it into a
// fresh slice after a change so slices handed out earlier never move.
func (x *upIndex) neighbors(node string) []string {
	na := x.nodes[node]
	if na == nil {
		return nil
	}
	if na.sorted == nil {
		out := make([]string, 0, len(na.count))
		for nbr := range na.count {
			out = append(out, nbr)
		}
		sort.Strings(out)
		na.sorted = out
	}
	return na.sorted
}
