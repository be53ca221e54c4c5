package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// The sessions workload: a fixed list of single-goroutine broadcast and
// gossip sessions on CSR graphs built once per run, with Binary reception
// and no energy model, so the decision draw and the delivery kernels do
// nearly all the work.

// sessionScale sizes the workload's graphs.
type sessionScale struct {
	gnpN, rggN, gossipN int
	// setups is how many times set-up generates the graphs; setup_s is the
	// median.
	setups int
	// minPasses is the least number of passes over the session list.
	minPasses int
}

// At least ten passes give at least 100 sessions, so the op tail is always
// a percentile from p90 up and lands among the slowest config's sessions
// (the top fifth of every pass), never on the edge between two configs.
var defaultSessionScale = sessionScale{gnpN: 1 << 18, rggN: 1 << 16, gossipN: 1 << 11, setups: 3, minPasses: 10}

// sessionGraphs are the run's topologies, each in its own scratch storage.
type sessionGraphs struct {
	gnp, rgg, gossip *graph.Digraph
	gnpP, gossipP    float64
	rggDiam          int // analytic diameter bound handed to Algorithm 3
}

// sessionConfig is one entry of the session list.
type sessionConfig struct {
	name string
	reps int // sessions of this config per pass, each with its own seed
	// broadcast builds the protocol and graph of a broadcast session; nil
	// for gossip.
	broadcast func(g *sessionGraphs) (*graph.Digraph, radio.Broadcaster)
}

const gossipConfig = "alg2-gossip"

// sessionConfigs is the fixed session list.
func sessionConfigs() []sessionConfig {
	return []sessionConfig{
		{name: "alg1-gnp", reps: 2, broadcast: func(g *sessionGraphs) (*graph.Digraph, radio.Broadcaster) {
			return g.gnp, core.NewAlgorithm1(g.gnpP)
		}},
		{name: "alg3-rgg", reps: 2, broadcast: func(g *sessionGraphs) (*graph.Digraph, radio.Broadcaster) {
			return g.rgg, core.NewAlgorithm3(g.rgg.N(), g.rggDiam, 2)
		}},
		{name: "fixedq-gnp", reps: 2, broadcast: func(g *sessionGraphs) (*graph.Digraph, radio.Broadcaster) {
			// Low q over a long window: most rounds are silent and skipped,
			// and the late rounds run on the pull kernel.
			d := g.gnpP * float64(g.gnp.N())
			// The window (16·log² n ≈ 13/q at n = 2^18) is long enough that the
			// source always transmits before it retires.
			return g.gnp, &baseline.FixedProb{Q: 0.25 / d, Window: 16 * core.WindowRounds(g.gnp.N(), 1)}
		}},
		{name: gossipConfig, reps: 4},
	}
}

// genNames name the generated graphs in graph.gen_s.<name>.
var genNames = []string{"gnp", "rgg", "gossip"}

// buildSessionGraphs generates the run's graphs into the scratches and
// returns them with the time each generation took; traced, each
// generation is a span.
func buildSessionGraphs(sc sessionScale, seed uint64, scr [3]*graph.Scratch, rec *recorder) (*sessionGraphs, [3]time.Duration) {
	var took [3]time.Duration
	gen := func(k int, f func()) {
		sp := rec.start("graph.gen."+genNames[k], "", -1)
		t0 := time.Now()
		f()
		took[k] = time.Since(t0)
		rec.end(sp)
	}
	g := &sessionGraphs{
		gnpP:    8 * math.Log(float64(sc.gnpN)) / float64(sc.gnpN),
		gossipP: 8 * math.Log(float64(sc.gossipN)) / float64(sc.gossipN),
	}
	gen(0, func() { g.gnp = scr[0].GNPDirected(sc.gnpN, g.gnpP, rng.New(rng.SubSeed(seed, 1))) })
	r := 2 * graph.ConnectivityRadius(sc.rggN)
	gen(1, func() {
		g.rgg, _ = scr[1].Geometric(graph.GeomSpec{N: sc.rggN, Radius: r, Torus: true}, rng.New(rng.SubSeed(seed, 2)))
	})
	// No two torus points are farther apart than √2/2, so ⌈(√2/2)/r⌉ hops
	// bound the diameter; doubled for detours near the threshold.
	g.rggDiam = 2*int(math.Ceil(math.Sqrt2/2/r)) + 2
	gen(2, func() { g.gossip = scr[2].GNPDirected(sc.gossipN, g.gossipP, rng.New(rng.SubSeed(seed, 3))) })
	return g, took
}

// outcome is what a session must repeat exactly under the same seed.
type outcome struct {
	rounds, informedRound, informed int
	tx                              int64
	perNodeTx                       uint64 // FNV-1a digest of PerNodeTx
	collisions                      int64  // reported, not compared
}

func digest(xs []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range xs {
		b[0], b[1], b[2], b[3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// sessionRun is one executed session.
type sessionRun struct {
	cfg    int // index into the session list
	out    outcome
	cost   cost
	decide time.Duration // traced only
}

// sessionPass is one pass over the session list.
type sessionPass struct{ runs []sessionRun }

// typicalPass is the cost of one pass, its parts being the sessions.
func typicalPass(passes []*sessionPass) cost {
	reps := make([][]cost, len(passes))
	for i, p := range passes {
		for _, r := range p.runs {
			reps[i] = append(reps[i], r.cost)
		}
	}
	return typicalCost(reps)
}

// sessionRunner holds the reusable engine scratch.
type sessionRunner struct {
	radio  *radio.Scratch
	gossip *radio.GossipScratch
}

func newSessionRunner() *sessionRunner {
	return &sessionRunner{radio: radio.NewScratch(), gossip: radio.NewGossipScratch()}
}

// pass runs every session of the list once. With rec non-nil each session
// is a span and broadcast decisions are timed through wrapDecisions.
func (sr *sessionRunner) pass(cfgs []sessionConfig, g *sessionGraphs, seed uint64, rec *recorder) *sessionPass {
	p := &sessionPass{}
	settle()
	root := rec.start("sessions.pass", "", -1)
	for ci, c := range cfgs {
		for rep := 0; rep < c.reps; rep++ {
			protoRNG := rng.New(rng.SubSeed(rng.SubSeed(seed, uint64(16+ci)), uint64(rep)))
			trace := fmt.Sprintf("%s#%d", c.name, rep)
			sp := rec.start("radio.session."+c.name, trace, root)
			u0 := readUsage()
			var o outcome
			var perNodeTx []int32
			var clk decisionClock
			if c.broadcast == nil {
				a := core.NewAlgorithm2(g.gossipP)
				res := radio.RunGossipWith(sr.gossip, g.gossip, a, protoRNG,
					radio.GossipOptions{MaxRounds: a.RoundBudget(g.gossip.N()), StopWhenComplete: true})
				o = outcome{rounds: res.Rounds, informedRound: res.CompleteRound, tx: res.TotalTx}
				perNodeTx = res.PerNodeTx
			} else {
				gr, proto := c.broadcast(g)
				if rec != nil {
					proto = wrapDecisions(proto, &clk)
				}
				res := radio.RunBroadcastWith(sr.radio, gr, 0, proto, protoRNG, radio.Options{MaxRounds: 200000})
				o = outcome{rounds: res.Rounds, informedRound: res.InformedRound, informed: res.Informed,
					tx: res.TotalTx, collisions: res.Collisions}
				perNodeTx = res.PerNodeTx
			}
			cost := readUsage().since(u0)
			rec.end(sp)
			// The check's digest is taken outside the timed region, before
			// the next session reuses the scratch PerNodeTx lives in.
			o.perNodeTx = digest(perNodeTx)
			p.runs = append(p.runs, sessionRun{cfg: ci, out: o, cost: cost, decide: clk.d})
		}
	}
	rec.end(root)
	return p
}

// checkSessions compares every pass against the first and checks that
// alg1-gnp informed all nodes.
func checkSessions(c *checks, cfgs []sessionConfig, g *sessionGraphs, passes []*sessionPass) {
	if len(passes) == 0 {
		c.check(false, "sessions: no pass ran")
		return
	}
	ref := passes[0].runs
	for pi, p := range passes {
		for i, r := range p.runs {
			name := cfgs[r.cfg].name
			ok := i < len(ref) && ref[i].cfg == r.cfg && sameOutcome(ref[i].out, r.out)
			if name == "alg1-gnp" {
				ok = ok && r.out.informed == g.gnp.N()
			}
			c.check(ok, "sessions pass %d: %s session %d: outcome %+v, first pass %+v", pi, name, i, r.out, ref[min(i, len(ref)-1)].out)
		}
		c.check(len(p.runs) == len(ref), "sessions pass %d ran %d sessions, first pass %d", pi, len(p.runs), len(ref))
	}
}

func sameOutcome(a, b outcome) bool {
	a.collisions, b.collisions = 0, 0
	return a == b
}

// runSessions is the sessions workload: graph set-up, then passes over the
// session list until the time is up. Traced, passes alternate between
// untraced and traced.
func runSessions(o options, sc sessionScale) (*report, error) {
	cfgs := sessionConfigs()
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	scr := [3]*graph.Scratch{graph.NewScratch(), graph.NewScratch(), graph.NewScratch()}
	var setups []float64
	gens := make([][]float64, len(genNames))
	var g *sessionGraphs
	for i := 0; i < max(sc.setups, 1); i++ {
		settle()
		t0 := time.Now()
		var took [3]time.Duration
		g, took = buildSessionGraphs(sc, o.seed, scr, rec)
		setups = append(setups, time.Since(t0).Seconds())
		for k := range took {
			gens[k] = append(gens[k], took[k].Seconds())
		}
	}

	sr := newSessionRunner()
	var plain, traced []*sessionPass
	start := time.Now()
	for len(plain) < sc.minPasses || time.Since(start) < o.seconds {
		plain = append(plain, sr.pass(cfgs, g, o.seed, nil))
		if o.traced {
			traced = append(traced, sr.pass(cfgs, g, o.seed, rec))
		}
	}

	var c checks
	checkSessions(&c, cfgs, g, append(append([]*sessionPass(nil), plain...), traced...))
	rep := newReport()
	rep.checks = c
	var all []float64
	byCfg := make([][]float64, len(cfgs))
	for _, p := range plain {
		for _, r := range p.runs {
			all = append(all, millis(r.cost.wall))
			byCfg[r.cfg] = append(byCfg[r.cfg], millis(r.cost.wall))
		}
	}
	for ci, c := range cfgs {
		rep.note("%s session: median %.4g ms of %d", c.name, median(byCfg[ci]), len(byCfg[ci]))
	}
	pass := typicalPass(plain)
	rep.metric("setup_s", median(setups))
	rep.metric("cpu_s", pass.cpu.Seconds())
	rep.metric("alloc_mb", mib(pass.alloc))
	rep.metric("peak_rss_mb", peakRSSMiB())
	rep.wallClock(pass.wall, len(plain[0].runs), "session", all)
	if !o.traced {
		return rep, nil
	}

	for k, name := range genNames {
		rep.metric("graph.gen_s."+name, median(gens[k]))
	}
	rep.metric("graph.edges.gnp", float64(g.gnp.M()))
	rep.metric("graph.edges.rgg", float64(g.rgg.M()))
	rep.metric("graph.edges.gossip", float64(g.gossip.M()))
	sessionLayers(rep, cfgs, plain, traced)
	rep.metric("trace.overhead", typicalPass(traced).wall.Seconds()/pass.wall.Seconds())
	path, err := writeSpans(o.spanDir, fmt.Sprintf("sessions-seed%d", o.seed), rec.snapshot())
	if err != nil {
		return nil, err
	}
	rep.note("spans: written to %s", path)
	return rep, nil
}

// sessionLayers derives the radio, protocol and rng per-layer metrics:
// decision and self times from the traced passes, time per round from the
// untraced ones (medians over passes), and counts from one pass.
func sessionLayers(rep *report, cfgs []sessionConfig, plain, traced []*sessionPass) {
	// sum adds up one config's sessions of a pass.
	sum := func(p *sessionPass, ci int) (run, decide time.Duration, o outcome) {
		for _, s := range p.runs {
			if s.cfg == ci {
				run += s.cost.wall
				decide += s.decide
				o.rounds += s.out.rounds
				o.tx += s.out.tx
				o.collisions += s.out.collisions
			}
		}
		return run, decide, o
	}
	for ci, c := range cfgs {
		var decide, self, nsRound []float64
		for _, p := range traced {
			run, d, _ := sum(p, ci)
			decide = append(decide, d.Seconds())
			self = append(self, (run - d).Seconds())
		}
		for _, p := range plain {
			run, _, o := sum(p, ci)
			nsRound = append(nsRound, float64(run)/float64(max(o.rounds, 1)))
		}
		_, _, o := sum(plain[0], ci)
		if c.broadcast != nil {
			rep.metric("proto.decide_s."+c.name, median(decide))
		}
		rep.metric("radio.self_s."+c.name, median(self))
		rep.metric("radio.ns_per_round."+c.name, median(nsRound))
		rep.metric("radio.rounds."+c.name, float64(o.rounds))
		rep.metric("radio.tx."+c.name, float64(o.tx))
		rep.metric("radio.collisions."+c.name, float64(o.collisions))
	}
}
