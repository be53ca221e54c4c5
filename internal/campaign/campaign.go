// Package campaign is the declarative experiment-grid engine: an experiment
// is data — a set of named grid points, a point→trials mapping, and a render
// stage that turns the collected per-point samples into tables — executed by
// one engine that owns seeding, sharding, checkpointing, resume, and
// progress reporting.
//
// The contract that makes sharded and resumed runs trustworthy is seeding:
// a point's seed is a pure function of (base seed, point key) — never of
// execution order, shard layout, or which points a previous run already
// finished — so any partition of the grid, in any order, across any number
// of processes, produces records identical to one uninterrupted run.
// Two derivations are available (SeedMode): Paired, the default, hands every
// point the base seed itself, so all points draw the same trial-seed
// sequence — the variance-reducing paired design the experiment batteries
// use for protocol comparisons (and the seeding the committed goldens pin);
// Keyed mixes the point key into the seed for campaigns that want
// decorrelated points.
//
// Execution streams one JSONL Record per completed point through an
// append-only checkpoint sink (see record.go); Markdown, CSV and JSONL views
// are all rendered from the same record stream, so a table can be rebuilt
// from checkpoints without re-running anything.
package campaign

import (
	"fmt"
	"strconv"

	"repro/internal/rng"
	"repro/internal/sweep"
)

// Config controls experiment scale and reproducibility. It is shared by
// every campaign (internal/expt aliases it as expt.Config).
type Config struct {
	// Full selects the paper-scale parameter grid; false runs a reduced grid
	// suitable for CI and benchmarks.
	Full bool
	// Seed is the base seed; every point and trial seed derives from it.
	Seed uint64
	// Workers caps a point's trial-worker pool; 0 leaves the measured
	// planner's count (sweep.PlanPoint: trials capped at the calibrated
	// effective cores). Trials are the only parallel axis — each trial's
	// rounds run on one core — and results are bit-identical at every
	// setting; only scheduling changes.
	Workers int
	// GraphMode restricts graph-representation axes in campaigns that carry
	// one (the implicit-topology battery): "" enumerates every
	// representation, "csr" only materialized points, "implicit" only
	// generate-free points — the setting that lets planet-scale grids run on
	// small workers. Campaigns without a representation axis ignore it.
	// Point keys embed the representation, so records from different modes
	// never collide and resume works across mode changes.
	GraphMode string
	// Channel restricts channel-model axes in campaigns that carry one (the
	// channel-realism battery): "" enumerates every model; "binary", "fade"
	// or "duty" only that model's points — so a worker can run one channel
	// leg of a comparison grid. Point keys embed the channel, so records
	// from different restrictions never collide and resume works across
	// changes. Campaigns without a channel axis ignore it.
	Channel string
}

// Samples is the result of one grid point: per-metric sample vectors,
// usually one entry per trial (scalar facts are stored as length-1 vectors).
// NaN marks a sample where the metric was absent or undefined.
type Samples = map[string][]float64

// Point is one cell of an experiment grid. Key identifies the point within
// its campaign — stable across runs, scales, and code motion, because the
// resume and shard machinery match on it. Params is the human/JSONL-facing
// string form of the coordinates; Data carries the typed payload (axis
// values, constructors, specs) for the Run stage and is never serialised.
type Point struct {
	Key    string
	Params map[string]string
	Data   any
}

// value returns the named axis value from a Product-built point.
func (p Point) value(name string) any {
	m, ok := p.Data.(map[string]any)
	if !ok {
		panic(fmt.Sprintf("campaign: point %q was not built from axes", p.Key))
	}
	v, ok := m[name]
	if !ok {
		panic(fmt.Sprintf("campaign: point %q has no axis %q", p.Key, name))
	}
	return v
}

// Int returns the named axis value of a Product-built point as an int.
func (p Point) Int(name string) int { return p.value(name).(int) }

// Float returns the named axis value as a float64.
func (p Point) Float(name string) float64 { return p.value(name).(float64) }

// Str returns the named axis value as a string.
func (p Point) Str(name string) string { return p.value(name).(string) }

// Val returns the named axis value untyped (for axes built with Vals).
func (p Point) Val(name string) any { return p.value(name) }

// Axis is one named dimension of a grid: an ordered list of values with
// canonical string labels (the labels appear in point keys, so they must be
// stable).
type Axis struct {
	Name   string
	Labels []string
	Values []any
}

// Ints builds an integer axis.
func Ints(name string, vals ...int) Axis {
	a := Axis{Name: name}
	for _, v := range vals {
		a.Labels = append(a.Labels, strconv.Itoa(v))
		a.Values = append(a.Values, v)
	}
	return a
}

// Floats builds a float axis; labels use the shortest exact formatting.
func Floats(name string, vals ...float64) Axis {
	a := Axis{Name: name}
	for _, v := range vals {
		a.Labels = append(a.Labels, strconv.FormatFloat(v, 'g', -1, 64))
		a.Values = append(a.Values, v)
	}
	return a
}

// Strings builds a string axis (labels are the values themselves).
func Strings(name string, vals ...string) Axis {
	a := Axis{Name: name}
	for _, v := range vals {
		a.Labels = append(a.Labels, v)
		a.Values = append(a.Values, v)
	}
	return a
}

// Vals builds an axis of arbitrary typed values with explicit labels (e.g.
// protocol constructors labelled by protocol name). Access via Point.Val.
func Vals(name string, labels []string, vals []any) Axis {
	if len(labels) != len(vals) {
		panic("campaign: Vals needs one label per value")
	}
	return Axis{Name: name, Labels: labels, Values: vals}
}

// Product enumerates the cartesian product of the axes in row-major order
// (the last axis varies fastest). Each point's Data maps axis name → value,
// its Params map axis name → label, and its Key is "name=label/..." in axis
// order.
func Product(axes ...Axis) []Point {
	pts := []Point{{Key: "", Params: map[string]string{}, Data: map[string]any{}}}
	for _, ax := range axes {
		var next []Point
		for _, base := range pts {
			for i, v := range ax.Values {
				key := ax.Name + "=" + ax.Labels[i]
				if base.Key != "" {
					key = base.Key + "/" + key
				}
				params := make(map[string]string, len(base.Params)+1)
				for k, s := range base.Params {
					params[k] = s
				}
				params[ax.Name] = ax.Labels[i]
				data := make(map[string]any, len(base.Data.(map[string]any))+1)
				for k, s := range base.Data.(map[string]any) {
					data[k] = s
				}
				data[ax.Name] = v
				next = append(next, Point{Key: key, Params: params, Data: data})
			}
		}
		pts = next
	}
	return pts
}

// Pt builds a single ad-hoc point for irregular grids: a key, a typed
// payload, and alternating name/value parameter pairs.
func Pt(key string, data any, params ...string) Point {
	if len(params)%2 != 0 {
		panic("campaign: Pt params must be name/value pairs")
	}
	p := Point{Key: key, Data: data}
	if len(params) > 0 {
		p.Params = make(map[string]string, len(params)/2)
		for i := 0; i < len(params); i += 2 {
			p.Params[params[i]] = params[i+1]
		}
	}
	return p
}

// SeedMode selects how a point's seed derives from (base seed, point key).
type SeedMode int

const (
	// Paired (the default) gives every point the base seed itself: all
	// points see the same trial-seed sequence, so cross-point comparisons
	// (protocol A vs B on the same topologies) are paired. Trivially
	// independent of scheduling, sharding, and resume.
	Paired SeedMode = iota
	// Keyed mixes a stable hash of the point key into the base seed, for
	// campaigns that want statistically independent points.
	Keyed
)

// PointSeed derives a point's seed from the base seed and its key under the
// given mode. It is a pure function — the engine guarantee that records are
// identical whatever the shard layout, execution order, or resume history.
func PointSeed(mode SeedMode, base uint64, key string) uint64 {
	switch mode {
	case Keyed:
		// FNV-1a over the key, folded through the rng's splitmix derivation.
		h := uint64(1469598103934665603)
		for i := 0; i < len(key); i++ {
			h ^= uint64(key[i])
			h *= 1099511628211
		}
		return rng.SubSeed(base, h)
	default:
		return base
	}
}

// Campaign is a declarative experiment: the grid, the per-point trial
// runner, and the table renderer. All three must be deterministic functions
// of their arguments — Points must enumerate the same keys in the same
// order for a given Config, and Run must depend only on (cfg, point, seed).
type Campaign struct {
	// Points enumerates the grid for the configured scale.
	Points func(cfg Config) []Point
	// Run executes every trial of one point and returns its sample vectors.
	// seed is the engine-derived point seed (see SeedMode); trial fan-out
	// inside Run should go through sweep.RunTrialsScratch with it.
	Run func(cfg Config, pt Point, seed uint64) Samples
	// Render builds the experiment's tables from the completed record set.
	// It runs only when every point of the campaign is present (unsharded
	// runs, or a resumed run over merged shard checkpoints).
	Render func(cfg Config, v View) []*sweep.Table
	// SeedMode selects the point-seed derivation (default Paired).
	SeedMode SeedMode
}
