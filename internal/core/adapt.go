package core

import (
	"errors"
	"math"
	"time"

	"adamant/internal/env"
)

// This file implements the paper's stated future work ("Fast, predictable
// configuration for DRE pub/sub systems can support dynamic autonomic
// adaptation... When the system detects environmental changes (e.g.
// increase in number of receivers or increase in sending rate), supervised
// machine learning can provide guidance to support QoS for the new
// configuration"): an adaptation manager that monitors the observed
// environment while the system runs and re-queries the selector when it
// drifts.

// Observation is a point-in-time view of the running system's environment
// and workload, produced by whatever monitoring the application has.
type Observation struct {
	Receivers int
	RateHz    float64
	LossPct   float64
}

// ObserveFunc supplies the current Observation. It runs in env callback
// context and must not block.
type ObserveFunc func() Observation

// ReconfigureFunc applies a new transport configuration to the running
// middleware. It runs in env callback context.
type ReconfigureFunc func(d Decision)

// lossTolerance is the percentage-point change in the clamped loss that
// triggers re-selection. Receivers and rate need none: they snap to a grid,
// and a move inside one grid cell leaves the model's answer as it was.
const lossTolerance = 1.0

// AdaptorOptions tune the adaptation manager.
type AdaptorOptions struct {
	// Interval between environment checks. Default 1s.
	Interval time.Duration
	// Cooldown is the minimum time between reconfigurations, bounding
	// flapping. Default 5s.
	Cooldown time.Duration
}

func (o *AdaptorOptions) fillDefaults() {
	if o.Interval <= 0 {
		o.Interval = time.Second
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
}

// AdaptorStats count the manager's activity.
type AdaptorStats struct {
	Checks       uint64
	Triggers     uint64 // drift detected
	Reconfigures uint64 // selector produced a different protocol
	Suppressed   uint64 // drift detected but inside the cooldown window
}

// Adaptor periodically compares the observed environment against the one
// the current configuration was selected for and re-queries the selector
// on drift. Because the ANN query is constant-time, the monitoring loop's
// cost is bounded and small — the property that makes in-mission
// adaptation viable for DRE systems.
type Adaptor struct {
	env         env.Env
	selector    Selector
	observe     ObserveFunc
	reconfigure ReconfigureFunc
	opts        AdaptorOptions

	base       Features // environment axes that don't drift at runtime
	current    Features
	spec       string // canonical form of the active protocol
	lastChange time.Time
	timer      env.Timer
	stats      AdaptorStats
	closed     bool
}

// NewAdaptor starts the monitoring loop. initial is the decision the
// system booted with; observe supplies live workload readings; reconfigure
// is invoked with every new decision.
func NewAdaptor(e env.Env, selector Selector, initial Decision,
	observe ObserveFunc, reconfigure ReconfigureFunc, opts AdaptorOptions) (*Adaptor, error) {
	if e == nil || selector == nil || observe == nil || reconfigure == nil {
		return nil, errors.New("core: adaptor needs env, selector, observe, and reconfigure")
	}
	if initial.Spec.Name == "" {
		return nil, errors.New("core: adaptor needs the initial decision")
	}
	opts.fillDefaults()
	a := &Adaptor{
		env:         e,
		selector:    selector,
		observe:     observe,
		reconfigure: reconfigure,
		opts:        opts,
		base:        initial.Features,
		current:     initial.Features,
		spec:        initial.Spec.String(),
		lastChange:  e.Now(),
	}
	a.timer = e.After(opts.Interval, a.tick)
	return a, nil
}

// Stats returns a snapshot of the adaptor counters.
func (a *Adaptor) Stats() AdaptorStats { return a.stats }

// Current returns the features the active configuration was selected for.
func (a *Adaptor) Current() Features { return a.current }

// Close stops the monitoring loop.
func (a *Adaptor) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	a.timer.Stop()
	return nil
}

func (a *Adaptor) tick() {
	if a.closed {
		return
	}
	a.timer = a.env.After(a.opts.Interval, a.tick)
	a.stats.Checks++

	obs := a.observe()
	next := a.base
	next.Receivers = obs.Receivers
	next.RateHz = obs.RateHz
	next.LossPct = obs.LossPct
	if !a.drifted(next) {
		return
	}
	a.stats.Triggers++
	if a.env.Now().Sub(a.lastChange) < a.opts.Cooldown {
		a.stats.Suppressed++
		return
	}
	spec, err := a.selector.Select(next)
	if err != nil {
		return // keep the current configuration; selector may recover
	}
	a.current = next
	if spec.String() == a.spec {
		// Same protocol is still right for the new environment. The
		// baseline moves (so this drift stops re-triggering) but the
		// cooldown clock must not: nothing was reconfigured, and rebasing
		// it here would let a stream of same-spec decisions indefinitely
		// postpone a needed switch.
		return
	}
	a.spec = spec.String()
	a.lastChange = a.env.Now()
	a.stats.Reconfigures++
	a.reconfigure(Decision{Features: next, Spec: spec})
}

// drifted reports whether next, snapped onto the trained space, moved
// away from the snapped current configuration: another receiver count or
// rate, or a loss more than lossTolerance away.
func (a *Adaptor) drifted(next Features) bool {
	cur, next := a.current.Snapped(), next.Snapped()
	return next.Receivers != cur.Receivers || next.RateHz != cur.RateHz ||
		math.Abs(next.LossPct-cur.LossPct) > lossTolerance
}
