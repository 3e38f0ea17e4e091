package main

import (
	"sync/atomic"
	"time"

	"minkowski/internal/cdpi"
	"minkowski/internal/core"
	"minkowski/internal/geo"
	"minkowski/internal/manet"
	"minkowski/internal/platform"
	"minkowski/internal/radio"
)

// seam counts and times the calls through one controller seam. The
// counters are atomic so a seam reached from the evaluator's worker
// fan-out stays correct.
type seam struct{ calls, ns atomic.Int64 }

// since records one call that started at t.
func (s *seam) since(t time.Time) {
	s.calls.Add(1)
	s.ns.Add(int64(time.Since(t)))
}

// seams are the decorated seams of one traced run.
type seams struct {
	nextHop   seam // InBand.Router.NextHop: every hop of every in-band path walk
	predict   seam // Evaluator.Predict: per-lead position forecasts
	linkUp    seam // Fabric.OnUp: the controller's reaction to a link coming up
	linkDown  seam // Fabric.OnDown: the controller's reaction to a link going down
	enactment seam // Frontend.OnEnactment: completed commands (counted only)
}

// timedRouter times NextHop and forwards every other method.
type timedRouter struct {
	manet.Router
	s *seam
}

var _ manet.Router = timedRouter{}

func (r timedRouter) NextHop(src, dst string) (string, bool) {
	defer r.s.since(time.Now())
	return r.Router.NextHop(src, dst)
}

// installSeams wraps the exported seams a freshly built controller
// calls through. It must run after core.New, which sets them.
func installSeams(c *core.Controller) *seams {
	s := &seams{}
	c.InBand.Router = timedRouter{c.InBand.Router, &s.nextHop}

	predict := c.Evaluator.Predict
	c.Evaluator.Predict = func(n *platform.Node, lead float64) geo.LLA {
		defer s.predict.since(time.Now())
		return predict(n, lead)
	}
	up, down := c.Fabric.OnUp, c.Fabric.OnDown
	c.Fabric.OnUp = func(l *radio.Link) {
		defer s.linkUp.since(time.Now())
		up(l)
	}
	c.Fabric.OnDown = func(l *radio.Link, r radio.Reason) {
		defer s.linkDown.since(time.Now())
		down(l, r)
	}
	enact := c.Frontend.OnEnactment
	c.Frontend.OnEnactment = func(e cdpi.Enactment) {
		s.enactment.calls.Add(1)
		enact(e)
	}
	return s
}

// add accumulates o into s.
func (s *seams) add(o *seams) {
	for _, p := range [][2]*seam{
		{&s.nextHop, &o.nextHop}, {&s.predict, &o.predict},
		{&s.linkUp, &o.linkUp}, {&s.linkDown, &o.linkDown},
		{&s.enactment, &o.enactment},
	} {
		p[0].calls.Add(p[1].calls.Load())
		p[0].ns.Add(p[1].ns.Load())
	}
}
