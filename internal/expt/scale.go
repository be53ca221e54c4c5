package expt

// The S battery: planet-scale implicit topologies. S1 runs Algorithm 1 on
// the same random topologies twice — once on the materialized CSR digraph,
// once on the generate-free graph.Implicit backend — and pins the two
// bit-identical from the record stream itself (the "vs csr" column), then
// extends the implicit leg to sizes whose CSR would not fit a CI worker.
//
// The representation axis is the one Config.GraphMode filters: point keys
// embed it ("graph=csr" / "graph=implicit"), so records from different
// modes never collide, a -implicit worker enumerates only the generate-free
// half of the grid, and a resumed render over merged checkpoints can still
// compare the twins.

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func init() {
	register(Experiment{ID: "S1", Title: "Implicit vs materialized topologies at scale",
		PaperRef: "Thm 3.1/3.2 beyond materialization scale", Campaign: s1Campaign()})
}

// s1Point is the typed payload of one S1 grid cell.
type s1Point struct {
	topo string // "gnp" (per-row G(n,p)) or "rgg" (coordinate-index UDG)
	mode string // "csr" (materialized) or "implicit" (generate-free)
	n    int
}

// s1PlanetN is the generate-free leg: a size whose CSR (~2 GB of adjacency
// for G(n, 2·ln n/n)) is deliberately beyond what the reduced grid — or a
// hosted CI worker — would materialize. Only full-scale implicit runs
// (cfg.Full && GraphMode == "implicit") enumerate it; the scale-smoke CI
// job runs exactly that grid.
const s1PlanetN = 1 << 24

// s1PlanetTrials bounds the planet leg: two trials establish determinism
// and cost without dominating the nightly full campaign.
const s1PlanetTrials = 2

func s1Sizes(cfg Config) []int {
	if cfg.Full {
		return []int{1 << 16}
	}
	return []int{1 << 14}
}

// s1Modes is the representation axis after the GraphMode filter.
func s1Modes(cfg Config) []string {
	switch cfg.GraphMode {
	case "csr":
		return []string{"csr"}
	case "implicit":
		return []string{"implicit"}
	default:
		return []string{"csr", "implicit"}
	}
}

func s1Key(topo, mode string, n int) string {
	return fmt.Sprintf("topo=%s/graph=%s/n=%d", topo, mode, n)
}

func s1Grid(cfg Config) []campaign.Point {
	var pts []campaign.Point
	for _, topo := range []string{"gnp", "rgg"} {
		for _, n := range s1Sizes(cfg) {
			for _, mode := range s1Modes(cfg) {
				pts = append(pts, campaign.Pt(s1Key(topo, mode, n),
					s1Point{topo: topo, mode: mode, n: n},
					"topo", topo, "graph", mode, "n", fmt.Sprintf("%d", n)))
			}
		}
	}
	if cfg.Full && cfg.GraphMode == "implicit" {
		pts = append(pts, campaign.Pt(s1Key("gnp", "implicit", s1PlanetN),
			s1Point{topo: "gnp", mode: "implicit", n: s1PlanetN},
			"topo", "gnp", "graph", "implicit", "n", fmt.Sprintf("%d", s1PlanetN)))
	}
	return pts
}

// s1Build constructs the trial topology and its matched protocol. The graph
// seed is SubSeed(trial seed, 2): stream 1 is the protocol RNG, and the
// per-row G(n,p) streams derive from the graph seed, so no row stream can
// collide with the protocol stream. Twin modes build from the same seed and
// the same sampling path (proven edge-identical by the graph package's
// property tests), so under paired point seeding the csr and implicit
// records of a topology are bit-identical — which Render then checks.
func s1Build(p s1Point, seed uint64, sc *graph.Scratch) (graph.Implicit, radio.Broadcaster) {
	gseed := rng.SubSeed(seed, 2)
	switch p.topo {
	case "gnp":
		prob := sparseP(p.n)
		ig := graph.NewImplicitGNP(p.n, prob, gseed)
		proto := core.NewAlgorithm1(prob)
		if p.mode == "csr" {
			return sc.Materialize(ig), proto
		}
		return ig, proto
	case "rgg":
		r := 2 * graph.ConnectivityRadius(p.n)
		spec := graph.GeomSpec{N: p.n, Radius: r, Torus: true}
		// Algorithm 3 wants a diameter bound; the G battery probes one from
		// a materialized instance, which would defeat a generate-free row.
		// On the unit torus no two points are farther than √2/2, so
		// ⌈(√2/2)/r⌉ hops bound the diameter analytically — doubled for the
		// detours of a near-threshold radius. Both representations use the
		// same bound, so the twins stay comparable.
		dest := 2*int(math.Ceil(math.Sqrt2/2/r)) + 2
		proto := core.NewAlgorithm3(p.n, dest, 2)
		if p.mode == "csr" {
			g, _ := sc.Geometric(spec, rng.New(gseed))
			return g, proto
		}
		return graph.NewImplicitGeom(spec, rng.New(gseed)), proto
	default:
		panic("expt: S1 unknown topology " + p.topo)
	}
}

// mChecksum folds the run's bit-stable outcome fields into one sample, so
// the record stream itself can witness representation equivalence.
// Collisions is deliberately excluded: it is a kernel diagnostic (pull
// rounds count collisions at uninformed nodes only), not a result.
const mChecksum = "checksum"

func s1Checksum(res *radio.Result) float64 {
	h := uint64(res.TotalTx)*1000003 ^
		uint64(res.Informed)*9176 ^
		uint64(uint32(res.InformedRound))*31 ^
		uint64(res.MaxNodeTx)<<17
	return float64(h % (1 << 52)) // keep it exactly float64-representable
}

func s1Campaign() campaign.Campaign {
	return campaign.Campaign{
		Points: s1Grid,
		Run: func(cfg Config, pt campaign.Point, seed uint64) campaign.Samples {
			p := pt.Data.(s1Point)
			tr := trials(cfg)
			if p.n >= s1PlanetN {
				tr = s1PlanetTrials
			}
			return sweep.RunTrialsScratch(tr, seed, planFor(cfg, tr), newTrialScratch, func(t sweep.Trial) sweep.Metrics {
				ts := scratchOf(t)
				g, proto := s1Build(p, t.Seed, ts.graph)
				res := radio.RunBroadcastWith(ts.radio, g, 0, proto,
					rng.New(rng.SubSeed(t.Seed, 1)), radio.Options{MaxRounds: 200000})
				m := sweep.Metrics{
					mSuccess:   0,
					mTotalTx:   float64(res.TotalTx),
					mTxPerNode: res.TxPerNode(),
					mMaxNodeTx: float64(res.MaxNodeTx),
					mInformedF: float64(res.Informed) / float64(p.n),
					mRounds:    math.NaN(),
					mChecksum:  s1Checksum(res),
				}
				if res.Completed() {
					m[mSuccess] = 1
					m[mRounds] = float64(res.InformedRound)
				}
				return m
			})
		},
		Render: func(cfg Config, v campaign.View) []*sweep.Table {
			t := sweep.NewTable("S1: implicit (generate-free) vs materialized CSR topologies",
				"topology", "n", "graph", "success", "informed fraction", "rounds", "tx/node", "vs csr")
			both := len(s1Modes(cfg)) == 2
			for _, pt := range s1Grid(cfg) {
				p := pt.Data.(s1Point)
				out := v.Samples(pt.Key)
				rounds := math.NaN()
				if sweep.RateOf(out, mSuccess) > 0 {
					rounds = sweep.MeanOf(out, mRounds)
				}
				vs := "—"
				if p.mode == "implicit" && both {
					vs = "DIVERGED"
					if s1SamplesEqual(out, v.Samples(s1Key(p.topo, "csr", p.n))) {
						vs = "identical"
					}
				}
				t.AddRow(p.topo, fmt.Sprintf("%d", p.n), p.mode,
					sweep.F(sweep.RateOf(out, mSuccess)),
					sweep.F(sweep.MeanOf(out, mInformedF)),
					sweep.F(rounds), sweep.F(sweep.MeanOf(out, mTxPerNode)), vs)
			}
			t.Note = "Twin rows run the same topology seeds through two graph representations: " +
				"\"csr\" materializes adjacency (O(n+m) memory), \"implicit\" re-derives each " +
				"neighbourhood on demand from (seed, node) — O(n) memory for G(n,p), O(n) " +
				"coordinates for the unit-disk index. \"identical\" means every per-trial sample " +
				"(including the outcome checksum) is bit-equal across representations, which is " +
				"what lets the planet-scale rows run on workers that could never hold the edge " +
				"list. Runs filtered to one representation (-implicit) leave the comparison to a " +
				"merged render."
			return []*sweep.Table{t}
		},
	}
}

// s1SamplesEqual reports whether two sample maps are bit-identical: same
// metric keys, same vector lengths, every float equal bit-for-bit (NaN
// compares equal to NaN — a failed trial must fail identically).
func s1SamplesEqual(a, b campaign.Samples) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	return true
}
