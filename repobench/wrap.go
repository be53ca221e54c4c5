package main

import (
	"time"

	"repro/internal/graph"
	"repro/internal/radio"
)

// decisionClock accumulates the time a protocol spends drawing its
// transmit decisions over one session.
type decisionClock struct{ d time.Duration }

// wrapDecisions returns p with BeginRound, AppendTransmitters and
// SkipSilent timed into clk. The wrapper implements exactly the optional
// engine interfaces p implements (radio.BatchBroadcaster,
// radio.UniformRound), so the engine takes the same paths with and
// without it.
func wrapDecisions(p radio.Broadcaster, clk *decisionClock) radio.Broadcaster {
	base := timedProto{Broadcaster: p, clk: clk}
	b, batch := p.(radio.BatchBroadcaster)
	u, uniform := p.(radio.UniformRound)
	switch {
	case batch && uniform:
		return timedBatchUniform{timedBatch{base, b}, u}
	case batch:
		return timedBatch{base, b}
	case uniform:
		return timedUniform{base, u}
	default:
		return base
	}
}

type timedProto struct {
	radio.Broadcaster
	clk *decisionClock
}

func (p timedProto) BeginRound(round int) {
	t0 := time.Now()
	p.Broadcaster.BeginRound(round)
	p.clk.d += time.Since(t0)
}

type timedBatch struct {
	timedProto
	b radio.BatchBroadcaster
}

func (p timedBatch) AppendTransmitters(round int, informed, dst []graph.NodeID) []graph.NodeID {
	t0 := time.Now()
	dst = p.b.AppendTransmitters(round, informed, dst)
	p.clk.d += time.Since(t0)
	return dst
}

type timedUniform struct {
	timedProto
	u radio.UniformRound
}

func (p timedUniform) RoundProb(round int) (float64, bool) { return p.u.RoundProb(round) }

func (p timedUniform) SkipSilent(from, to int) int { return skipTimed(p.u, p.clk, from, to) }

type timedBatchUniform struct {
	timedBatch
	u radio.UniformRound
}

func (p timedBatchUniform) RoundProb(round int) (float64, bool) { return p.u.RoundProb(round) }

func (p timedBatchUniform) SkipSilent(from, to int) int { return skipTimed(p.u, p.clk, from, to) }

func skipTimed(u radio.UniformRound, clk *decisionClock, from, to int) int {
	t0 := time.Now()
	next := u.SkipSilent(from, to)
	clk.d += time.Since(t0)
	return next
}
