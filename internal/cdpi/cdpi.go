// Package cdpi implements the control-to-data-plane interface of
// §4.2: the protocol layer between the TS-SDN frontend in the
// datacenter and the SDN agents on balloons and ground stations.
//
// Loon extended the OpenFlow-style CDPI with the mechanisms a moving
// NTN needs:
//
//   - multiple control channels per node (2 satcom + 1 in-band) with
//     lowest-latency channel selection,
//   - a time-to-enact (TTE) on every command so nodes switch
//     topology consistently on GPS-synchronized clocks,
//   - queue-blind TTE estimation, message drops at the satcom
//     gateway, controller-driven timeouts and channel-cycling
//     retries,
//   - the in-band side channel: a balloon connecting in-band is
//     itself evidence that its link-establish command succeeded.
package cdpi

import (
	"fmt"

	"minkowski/internal/manet"
	"minkowski/internal/sim"
)

// Kind classifies commands; timeouts and channel policies are per
// kind.
type Kind int

const (
	// KindLinkEstablish commands a node to form a link (needs TTE
	// synchronization with the peer's matching command).
	KindLinkEstablish Kind = iota
	// KindLinkWithdraw tears a link down gracefully.
	KindLinkWithdraw
	// KindRouteUpdate programs forwarding state (bulky: in-band
	// only; the satcom gateway drops it).
	KindRouteUpdate
	// KindTunnelSetup provisions an IPsec tunnel.
	KindTunnelSetup
	// KindDrain requests administrative drain state.
	KindDrain
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindLinkEstablish:
		return "link-establish"
	case KindLinkWithdraw:
		return "link-withdraw"
	case KindRouteUpdate:
		return "route-update"
	case KindTunnelSetup:
		return "tunnel-setup"
	case KindDrain:
		return "drain"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// RequiresInBand reports whether the command is too bulky for satcom.
func (k Kind) RequiresInBand() bool {
	return k == KindRouteUpdate || k == KindTunnelSetup
}

// RequiresSync reports whether the command must execute at its TTE
// (arriving after the TTE makes it useless — the peer has already
// started searching).
func (k Kind) RequiresSync() bool { return k == KindLinkEstablish }

// WireBytes approximates the bit-packed message size per kind.
func (k Kind) WireBytes() int {
	switch k {
	case KindLinkEstablish:
		return 180 // pointing geometry, channel, peer identity, signature
	case KindLinkWithdraw:
		return 64
	case KindRouteUpdate:
		return 900
	case KindTunnelSetup:
		return 400
	default:
		return 96
	}
}

// Command is one CDPI instruction to one node.
type Command struct {
	// ID is assigned by the frontend.
	ID uint64
	// Node is the destination.
	Node string
	// Kind selects behaviour.
	Kind Kind
	// TTE is the absolute enactment time. Nodes hold the command
	// until TTE (GPS-synchronized clocks).
	TTE float64
	// Payload is opaque to the CDPI (the intent layer puts link/route
	// descriptors here).
	Payload interface{}
	// IntentID groups commands belonging to one intent enactment (the
	// frontend must pick one TTE for all of them).
	IntentID uint64
	// Attempt counts retries.
	Attempt int
	// Epoch is the issuing control process's fencing epoch. Agents
	// remember the highest epoch they have seen and reject commands
	// carrying a lower one — the fence that stops a deposed primary
	// from double-enacting after a standby promotion. Zero means
	// fencing is not in use (single-controller legacy mode); zero-epoch
	// commands are never fenced.
	Epoch uint64
}

// Channel identifies how a command travelled.
type Channel int

const (
	// ChannelSatcom is Tier 0.
	ChannelSatcom Channel = iota
	// ChannelInBand is Tier 1/2 over the mesh.
	ChannelInBand
)

// String implements fmt.Stringer.
func (c Channel) String() string {
	if c == ChannelInBand {
		return "in-band"
	}
	return "satcom"
}

// InBand models the in-band control path: frontend (EC) ↔ ground
// station (wired) ↔ mesh (MANET-routed) ↔ node.
type InBand struct {
	Eng *sim.Engine
	// Router provides mesh next hops.
	Router manet.Router
	// Net provides adjacency and per-hop latency.
	Net manet.Network
	// Gateways are the ground-station node IDs with wired EC access.
	Gateways []string
	// WiredOneWayS is EC↔GS latency (tens of ms over leased circuits
	// or Internet).
	WiredOneWayS float64
	// SymmetricCompat restores the pre-directional model where the
	// node → EC direction reuses the EC → node path. Under partial
	// partitions that model invents uplinks that don't exist (ghost
	// heartbeats); it is kept only so tests can demonstrate the
	// failure the chaos search found.
	SymmetricCompat bool
	// Bytes counts in-band control traffic.
	Bytes int64
	// partitioned nodes are unreachable over the mesh (chaos: a MANET
	// partition or a gateway site loss) even though the underlying
	// radio links may still exist.
	partitioned map[string]bool
}

// SetPartitioned isolates a node from (or rejoins it to) the in-band
// mesh. A partitioned gateway stops serving as an EC entry point; a
// partitioned balloon is unreachable and cannot relay.
func (ib *InBand) SetPartitioned(node string, isolated bool) {
	if ib.partitioned == nil {
		ib.partitioned = map[string]bool{}
	}
	if isolated {
		ib.partitioned[node] = true
	} else {
		delete(ib.partitioned, node)
	}
}

// Partitioned reports whether a node is currently isolated.
func (ib *InBand) Partitioned(node string) bool { return ib.partitioned[node] }

// pathUsable rejects paths touching any partitioned node.
func (ib *InBand) pathUsable(p []string) bool {
	for _, n := range p {
		if ib.partitioned[n] {
			return false
		}
	}
	return true
}

// PathTo returns the full node path (GS first) from the EC to a node
// over the best available gateway, if any. The path may be shared with
// the router's path memo and later callers: it must not be modified.
func (ib *InBand) PathTo(node string) ([]string, bool) {
	if ib.partitioned[node] {
		return nil, false
	}
	var best []string
	for _, gw := range ib.Gateways {
		if ib.partitioned[gw] {
			continue
		}
		if gw == node {
			return []string{gw}, true
		}
		if p, ok := manet.PathFrom(ib.Router, gw, node); ok && ib.pathUsable(p) {
			if best == nil || len(p) < len(best) {
				best = p
			}
		}
	}
	return best, best != nil
}

// Connected reports whether the EC can currently reach the node
// in-band.
func (ib *InBand) Connected(node string) bool {
	_, ok := ib.PathTo(node)
	return ok
}

// PathUp returns the full node path (node first, GS last) from a node
// to the EC over the best reachable gateway. With directed mesh
// adjacency (partial partitions) this is NOT the reverse of PathTo:
// each direction routes over its own live edges. Like PathTo's, the
// returned path is shared and must not be modified.
func (ib *InBand) PathUp(node string) ([]string, bool) {
	if ib.partitioned[node] {
		return nil, false
	}
	var best []string
	for _, gw := range ib.Gateways {
		if ib.partitioned[gw] {
			continue
		}
		if gw == node {
			return []string{gw}, true
		}
		if p, ok := manet.PathFrom(ib.Router, node, gw); ok && ib.pathUsable(p) {
			if best == nil || len(p) < len(best) {
				best = p
			}
		}
	}
	return best, best != nil
}

// ConnectedUp reports whether the node can currently reach the EC
// in-band (the direction heartbeats and responses travel).
func (ib *InBand) ConnectedUp(node string) bool {
	if ib.SymmetricCompat {
		return ib.Connected(node)
	}
	_, ok := ib.PathUp(node)
	return ok
}

// Latency returns the modelled one-way EC→node latency along a path.
func (ib *InBand) latency(path []string) float64 {
	d := ib.WiredOneWayS
	for i := 1; i < len(path); i++ {
		d += ib.Net.Latency(path[i-1], path[i])
	}
	return d
}

// Send delivers size bytes from the EC to the node over the mesh,
// invoking done(ok). Delivery fails (after the latency it would have
// taken) if no route exists or the path breaks mid-flight; the
// CDPI's retry machinery handles it.
func (ib *InBand) Send(node string, size int, done func(bool)) {
	path, ok := ib.PathTo(node)
	if !ok {
		ib.Eng.After(ib.WiredOneWayS, func() {
			if done != nil {
				done(false)
			}
		})
		return
	}
	ib.Bytes += int64(size)
	lat := ib.latency(path)
	ib.Eng.After(lat, func() {
		// Re-validate: the path may have broken while in flight.
		if done != nil {
			done(ib.Connected(node))
		}
	})
}

// SendUp delivers from the node to the EC (responses, heartbeats)
// along the node → gateway direction of the mesh. A node whose uplink
// direction is dead cannot heartbeat, even if commands still reach it
// downstream.
func (ib *InBand) SendUp(node string, size int, done func(bool)) {
	if ib.SymmetricCompat {
		ib.Send(node, size, done)
		return
	}
	path, ok := ib.PathUp(node)
	if !ok {
		ib.Eng.After(ib.WiredOneWayS, func() {
			if done != nil {
				done(false)
			}
		})
		return
	}
	ib.Bytes += int64(size)
	lat := ib.latency(path)
	ib.Eng.After(lat, func() {
		// Re-validate: the uplink may have broken while in flight.
		if done != nil {
			done(ib.ConnectedUp(node))
		}
	})
}
