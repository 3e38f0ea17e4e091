package core

import (
	"bytes"
	"testing"

	"minkowski/internal/chaos"
	"minkowski/internal/manet"
)

// passThroughRouter forwards every Router method but hides *manet.Fast
// from manet.PathFrom, so every in-band path query takes the plain
// hop-by-hop walk instead of the router's path memo.
type passThroughRouter struct{ manet.Router }

// TestPathMemoMatchesWalkEndToEnd runs one replicated scale-1 world
// under a fault script twice: once as built, with in-band path queries
// served from manet.Fast's memo, and once with the router wrapped so
// every query walks. The memo is exact only if every change to what
// Network.Neighbors reads reaches Fast.TopologyChanged; the script
// exercises each kind of change the controller makes (links up and
// down, one-way partial partitions, nodes failed by gateway loss and
// agent reboot, failover) and the telemetry, journal and obs digests
// must not move. The partial partitions cut edges that are up in this
// world at those times, so a missed TopologyChanged there changes the
// digests.
func TestPathMemoMatchesWalkEndToEnd(t *testing.T) {
	script := chaos.Scenario{
		Name: "path-memo",
		Faults: []chaos.Fault{
			{Kind: chaos.PartialPartition, Target: "hbal-001>gs-nakuru", At: 1500, Duration: 900},
			{Kind: chaos.PartialPartition, Target: "gs-kisumu>hbal-007", At: 2000, Duration: 1200},
			{Kind: chaos.ManetPartition, Target: "hbal-006", At: 2600, Duration: 600},
			{Kind: chaos.AgentReboot, Target: "hbal-003", At: 3300},
			{Kind: chaos.GatewayLoss, Target: "gs-nakuru", At: 4000, Duration: 900},
			{Kind: chaos.ControllerFailover, At: 5200, Duration: 600},
			{Kind: chaos.PartialPartition, Target: "hbal-010>hbal-001", At: 6000, Duration: 1500},
		},
	}
	run := func(hide bool) (telemetry, journal uint64, obs []byte) {
		cfg := DefaultConfig()
		cfg.Seed = 5
		cfg.FleetSize = 11 // experiments.baseScenario at scale 1
		cfg.SolveIntervalS = 120
		cfg.AgentConnCheckS = 10
		cfg.ReplicationEnabled = true
		c := New(cfg)
		if hide {
			c.InBand.Router = passThroughRouter{c.InBand.Router}
		}
		c.InstallChaos(script)
		c.RunHours(2.5)
		enc, err := c.ObsSnapshot().Encode()
		if err != nil {
			t.Fatal(err)
		}
		return c.TelemetryDigest(), c.Journal.Digest(), enc
	}
	memoTel, memoJournal, memoObs := run(false)
	walkTel, walkJournal, walkObs := run(true)
	if memoTel != walkTel {
		t.Errorf("telemetry digest: memo %016x, walk %016x", memoTel, walkTel)
	}
	if memoJournal != walkJournal {
		t.Errorf("journal digest: memo %016x, walk %016x", memoJournal, walkJournal)
	}
	if !bytes.Equal(memoObs, walkObs) {
		t.Errorf("obs snapshot differs between memo and walk (%d vs %d bytes)", len(memoObs), len(walkObs))
	}
}
