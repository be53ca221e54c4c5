package expt

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/lowerbound"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{ID: "E9", Title: "Observation 4.3 lower bound: energy floor on the pair network",
		PaperRef: "Observation 4.3", Campaign: e9Campaign()})
	register(Experiment{ID: "E10", Title: "Theorem 4.4 network: Algorithm 3 at the bound",
		PaperRef: "Theorem 4.4", Campaign: e10Campaign()})
	register(Experiment{ID: "E11", Title: "Corollary 4.5: Ω(log² n) tx/node at D = Θ(n)",
		PaperRef: "Corollary 4.5", Campaign: e11Campaign()})
}

var e9Rates = []float64{0.01, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7}

func e9Scale(cfg Config) int {
	if cfg.Full {
		return 512
	}
	return 128
}

func e9Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, q := range e9Rates {
		pts = append(pts, campaign.Pt(fmt.Sprintf("q=%s", sweep.F(q)), q, "q", sweep.F(q)))
	}
	return pts
}

func e9Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: e9Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			n := e9Scale(cfg)
			fail := 1.0 / float64(n)
			q := pt.Data.(float64)
			rounds := lowerbound.Obs43RoundsNeeded(n, q, fail)
			return runSweep(cfg, seed, func(tr sweep.Trial) sweep.Metrics {
				net := graph.NewObs43Network(n)
				f := &baseline.FixedProb{Q: q}
				// The analytic model starts with the intermediates informed; in
				// the simulation the source first has to fire once (it transmits
				// at rate q too), so grant the extra geometric wait.
				r := rng.New(tr.Seed)
				warmup := 1 + r.Geometric(q)
				res := radio.RunBroadcast(net.G, net.Source, f, rng.New(rng.SubSeed(tr.Seed, 1)),
					radio.Options{MaxRounds: warmup + rounds, StopWhenInformed: true})
				m := sweep.Metrics{"success": 0, "tx": float64(res.TotalTx)}
				if res.Completed() {
					m["success"] = 1
				}
				return m
			})
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			n := e9Scale(cfg)
			fail := 1.0 / float64(n)
			bound := lowerbound.Obs43Bound(n)
			t := sweep.NewTable(
				fmt.Sprintf("E9: oblivious senders on the Observation 4.3 network (n=%d pairs)", n),
				"q", "rounds for 1-1/n success (analytic)", "energy analytic",
				"success (sim)", "energy sim (mean tx)", "energy/bound (bound = n·log n/2)")
			for _, pt := range e9Grid(cfg) {
				q := pt.Data.(float64)
				rounds := lowerbound.Obs43RoundsNeeded(n, q, fail)
				analytic := lowerbound.Obs43ExpectedTx(n, q, rounds)
				out := v.Samples(pt.Key)
				t.AddRow(sweep.F(q), sweep.FInt(rounds), sweep.F(analytic),
					sweep.F(sweep.RateOf(out, "success")),
					sweep.F(sweep.MeanOf(out, "tx")),
					sweep.F(sweep.MeanOf(out, "tx")/bound))
			}
			t.Note = "Observation 4.3: EVERY per-round rate q pays ≥ ~n·log n/2 total transmissions to " +
				"reach success probability 1−1/n — the energy/bound column never drops below ≈ 1 " +
				"(≈ 2·ln2 ≈ 1.39 at the optimum, matching the analytic 2n·q·R curve). There is no " +
				"good rate: slow rates need many rounds, fast rates collide."
			return []*sweep.Table{t}
		},
	}
}

// e10Inst is one Fig. 2 instance of the E10 grid.
type e10Inst struct{ nStar, D int }

var e10Protos = []string{"algorithm3", "czumaj-rytter"}

func e10Grid(cfg Config) []campaign.Point {
	insts := []e10Inst{{64, 48}, {128, 96}}
	if cfg.Full {
		insts = append(insts, e10Inst{256, 192}, e10Inst{512, 384})
	}
	var pts []campaign.Point
	for _, p0 := range insts {
		for _, proto := range e10Protos {
			pts = append(pts, campaign.Pt(
				fmt.Sprintf("n=%d/D=%d/proto=%s", p0.nStar, p0.D, proto), [2]any{p0, proto},
				"n", fmt.Sprint(p0.nStar), "D", fmt.Sprint(p0.D), "proto", proto))
		}
	}
	return pts
}

func e10Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: e10Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			d := pt.Data.([2]any)
			p0 := d[0].(e10Inst)
			net0 := graph.NewFig2Network(p0.nStar, p0.D)
			N := net0.G.N()
			makeProto := func() radio.Broadcaster { return core.NewAlgorithm3(N, p0.D, 2) }
			if d[1].(string) == "czumaj-rytter" {
				makeProto = func() radio.Broadcaster { return baseline.NewCzumajRytter(N, p0.D, 2) }
			}
			return runBroadcastTrials(cfg, seed, broadcastTrial{
				makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
					net := graph.NewFig2Network(p0.nStar, p0.D)
					return net.G, net.Source
				},
				makeProto: makeProto,
				opts:      radio.Options{MaxRounds: 500000},
			})
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			t := sweep.NewTable("E10: protocols on the Theorem 4.4 network (Fig. 2)",
				"stars n", "D", "total N", "protocol", "success", "rounds",
				"rounds/(D·log(N/D))", "tx/node", "Thm4.4 bound", "tx/bound")
			for _, pt := range e10Grid(cfg) {
				d := pt.Data.([2]any)
				p0 := d[0].(e10Inst)
				net0 := graph.NewFig2Network(p0.nStar, p0.D)
				N := net0.G.N()
				lamN := math.Log2(float64(N) / float64(p0.D))
				if lamN < 1 {
					lamN = 1
				}
				bound := lowerbound.Theorem44Bound(N, p0.D, 1)
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				txn := sweep.MeanOf(out, mTxPerNode)
				t.AddRow(sweep.FInt(p0.nStar), sweep.FInt(p0.D), sweep.FInt(N),
					d[1].(string), sweep.F(sweep.RateOf(out, mSuccess)), sweep.F(rounds),
					sweep.F(rounds/(float64(p0.D)*lamN)),
					sweep.F(txn), sweep.F(bound), sweep.F(txn/bound))
			}
			t.Note = "The adversarial lower-bound instance: every star size appears, so time-invariant " +
				"senders must keep nodes active Ω(log² n) rounds. Algorithm 3 completes in optimal " +
				"O(D·log(N/D)) time with tx/node within a constant of the Theorem 4.4 bound " +
				"(tx/bound = Θ(1)) — it is optimal. CR pays ≈ λ times more."
			return []*sweep.Table{t}
		},
	}
}

// e11Scale: Corollary 4.5 sets D = Θ(N) — λ collapses to O(1) and the bound
// becomes Ω(log² n) transmissions per node for any linear-time sender.
func e11Scale(cfg Config) (nStar int) {
	if cfg.Full {
		return 128
	}
	return 64
}

var e11Protos = []string{"algorithm3", "uniform-levels"}

func e11Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, proto := range e11Protos {
		pts = append(pts, campaign.Pt("proto="+proto, proto, "proto", proto))
	}
	return pts
}

func e11Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: e11Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			nStar := e11Scale(cfg)
			D := 6 * nStar
			net0 := graph.NewFig2Network(nStar, D)
			N := net0.G.N()
			makeProto := func() radio.Broadcaster { return core.NewAlgorithm3(N, D, 2) }
			if pt.Data.(string) == "uniform-levels" {
				makeProto = func() radio.Broadcaster {
					return &core.GeneralBroadcast{Label: "uniform-levels",
						Dist: dist.NewUniformLevels(N), Window: core.WindowRounds(N, 2)}
				}
			}
			return runBroadcastTrials(cfg, seed, broadcastTrial{
				makeGraph: func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID) {
					net := graph.NewFig2Network(nStar, D)
					return net.G, net.Source
				},
				makeProto: makeProto,
				opts:      radio.Options{MaxRounds: 1000000},
			})
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			nStar := e11Scale(cfg)
			D := 6 * nStar
			net0 := graph.NewFig2Network(nStar, D)
			N := net0.G.N()
			t := sweep.NewTable(
				fmt.Sprintf("E11: Corollary 4.5 at D=Θ(N) (N=%d, D=%d)", N, D),
				"protocol", "λ", "success", "rounds", "rounds/N", "tx/node", "tx/node ÷ log²N")
			l2sq := log2(float64(N)) * log2(float64(N))
			rowMeta := []struct{ name, lambda string }{
				{"algorithm3 (λ=log(N/D)≈1)", sweep.FInt(dist.LambdaFor(N, D))},
				{"uniform levels", "-"},
			}
			for i, pt := range e11Grid(cfg) {
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				txn := sweep.MeanOf(out, mTxPerNode)
				t.AddRow(rowMeta[i].name, rowMeta[i].lambda,
					sweep.F(sweep.RateOf(out, mSuccess)), sweep.F(rounds),
					sweep.F(rounds/float64(N)), sweep.F(txn), sweep.F(txn/l2sq))
			}
			t.Note = "With D = Θ(N), log(N/D) = O(1), so even the optimal distribution cannot beat " +
				"Ω(log² N) transmissions per node at linear broadcast time (Corollary 4.5): the " +
				"final column stays Θ(1) for every protocol."
			return []*sweep.Table{t}
		},
	}
}
