package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/jobqueue"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

func tinyOptions(t *testing.T, traced bool) options {
	dir := t.TempDir()
	return options{seed: 7, seconds: time.Millisecond, traced: traced,
		workDir: filepath.Join(dir, "work"), spanDir: filepath.Join(dir, "spans")}
}

// tinyUnits is a cheap slice of the registry.
func tinyUnits(t *testing.T) []campaign.Unit {
	var es []expt.Experiment
	for _, id := range []string{"F1", "E5"} {
		e, ok := expt.ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		es = append(es, e)
	}
	return expt.Units(es)
}

var (
	tinySessions = sessionScale{gnpN: 1 << 10, rggN: 1 << 9, gossipN: 1 << 7, setups: 1, minPasses: 2}
	tinyService  = serviceScale{points: 40, window: 10, minReps: 1}
)

// mustCollect checks a report passes its checks and fills every metric.
func mustCollect(t *testing.T, rep *report, traced bool) result {
	t.Helper()
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	res, err := collect(rep, defs, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("checks failed: %d of %d: %v", res.Failed, res.Attempted, rep.checks.failures)
	}
	if !traced {
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name].Value; !(v > 0) {
				t.Errorf("%s = %v, want > 0", d.Name, v)
			}
		}
	}
	return res
}

func TestTinyWorkloadsPassTheirChecks(t *testing.T) {
	for _, traced := range []bool{false, true} {
		o := tinyOptions(t, traced)
		if err := os.MkdirAll(o.workDir, 0o755); err != nil {
			t.Fatal(err)
		}
		rep, err := runCampaign(o, tinyUnits(t), 0)
		if err != nil {
			t.Fatal(err)
		}
		res := mustCollect(t, rep, traced)
		if traced && res.Metrics["campaign.points"].Value == 0 {
			t.Error("traced campaign reported no points")
		}

		if rep, err = runSessions(o, tinySessions); err != nil {
			t.Fatal(err)
		}
		res = mustCollect(t, rep, traced)
		if traced && res.Metrics["radio.rounds.alg1-gnp"].Value == 0 {
			t.Error("traced sessions reported no alg1-gnp rounds")
		}

		if rep, err = runService(o, tinyService); err != nil {
			t.Fatal(err)
		}
		res = mustCollect(t, rep, traced)
		if traced && res.Metrics["jobqueue.lease_grant_ratio"].Value == 0 {
			t.Error("traced service reported no granted leases")
		}
	}
}

func TestTamperedCampaignRecordFailsTheCheck(t *testing.T) {
	o := tinyOptions(t, false)
	os.MkdirAll(o.workDir, 0o755)
	cfg := campaign.Config{Seed: o.seed, Workers: 1}
	units := tinyUnits(t)
	p, err := runCampaignPass(cfg, units, filepath.Join(o.workDir, "ck.jsonl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var clean checks
	checkCampaign(&clean, cfg, units, p, p.records)
	if clean.failed != 0 {
		t.Fatalf("untampered pass failed: %v", clean.failures)
	}

	// A copy of the record set with one sample changed stands in for a
	// second run that diverged.
	ref := campaign.NewResultSet()
	for i, r := range p.records.Records() {
		c := *r
		if i == 0 {
			c.Samples = map[string][]campaign.NullFloat{}
			for k, v := range r.Samples {
				c.Samples[k] = append([]campaign.NullFloat(nil), v...)
			}
			for k := range c.Samples {
				c.Samples[k][0]++
				break
			}
		}
		ref.Add(&c)
	}
	var c checks
	checkCampaign(&c, cfg, units, p, ref)
	if c.failed != 1 {
		t.Fatalf("tampered record: %d failures, want 1", c.failed)
	}
	rep := newReport()
	rep.checks = c
	if res, _ := collect(rep, nil, true); res.Correct || res.Failed == 0 {
		t.Fatalf("tampered record left the run correct: %+v", res)
	}
}

func TestSetupOnceStopsAtTheFirstPoint(t *testing.T) {
	cfg := campaign.Config{Seed: 7, Workers: 1}
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	d, err := setupOnce(cfg, tinyUnits(t), ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("set-up took %v, want > 0", d)
	}
	rs, err := campaign.LoadRecords(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rs.Records()); n != 1 {
		t.Errorf("interrupted set-up left %d records, want the first point's only", n)
	}
}

func TestRecordsEqualSkipsOnlyX4Nanos(t *testing.T) {
	mk := func(id string, nanos float64) *campaign.Record {
		return &campaign.Record{Campaign: id, Point: "p", Samples: map[string][]campaign.NullFloat{
			"nanos": {campaign.NullFloat(nanos)}, "rounds": {3}}}
	}
	if !recordsEqual(mk("X4", 1), mk("X4", 2)) {
		t.Error("X4 records differing only in nanos compare unequal")
	}
	if recordsEqual(mk("E1", 1), mk("E1", 2)) {
		t.Error("E1 records with different samples compare equal")
	}
}

func TestS1Identical(t *testing.T) {
	table := func(vs ...string) []*sweep.Table {
		tb := sweep.NewTable("S1", "topology", "graph", "vs csr")
		tb.AddRow("gnp", "csr", "—")
		for _, v := range vs {
			tb.AddRow("gnp", "implicit", v)
		}
		return []*sweep.Table{tb}
	}
	if !s1Identical(table("identical", "identical")) {
		t.Error("all-identical table rejected")
	}
	if s1Identical(table("identical", "DIVERGED")) {
		t.Error("diverged row accepted")
	}
	if s1Identical(table()) {
		t.Error("table without implicit rows accepted")
	}
}

func TestTamperedSessionCountFailsTheCheck(t *testing.T) {
	cfgs := sessionConfigs()
	scr := [3]*graph.Scratch{graph.NewScratch(), graph.NewScratch(), graph.NewScratch()}
	g, _ := buildSessionGraphs(tinySessions, 3, scr, nil)
	sr := newSessionRunner()
	a, b := sr.pass(cfgs, g, 3, nil), sr.pass(cfgs, g, 3, newRecorder())
	var clean checks
	checkSessions(&clean, cfgs, g, []*sessionPass{a, b})
	if clean.failed != 0 {
		t.Fatalf("untampered passes failed: %v", clean.failures)
	}
	b.runs[1].out.tx++
	var c checks
	checkSessions(&c, cfgs, g, []*sessionPass{a, b})
	if c.failed != 1 {
		t.Fatalf("tampered session: %d failures, want 1", c.failed)
	}
}

func TestTamperedServiceRecordFailsTheCheck(t *testing.T) {
	const points, seed = 5, 9
	path := filepath.Join(t.TempDir(), "records.jsonl")
	write := func(tamper bool) {
		var lines []string
		refs, trials, _ := synthExpand(points)(jobqueue.JobSpec{})
		for i, ref := range refs {
			r := synthRecord(ref, seed, trials)
			if tamper && i == 2 {
				r.Samples["x"][0]++
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(b))
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(false)
	var clean checks
	checkServiceRecords(&clean, path, points, seed)
	if clean.failed != 0 {
		t.Fatalf("untampered records failed: %v", clean.failures)
	}
	write(true)
	var c checks
	checkServiceRecords(&c, path, points, seed)
	if c.failed != 1 {
		t.Fatalf("tampered record: %d failures, want 1", c.failed)
	}
}

// Stub protocols covering every combination of the optional interfaces.
type stubProto struct{}

func (stubProto) Name() string                          { return "stub" }
func (stubProto) Begin(int, graph.NodeID, *rng.RNG)     {}
func (stubProto) BeginRound(int)                        {}
func (stubProto) ShouldTransmit(int, graph.NodeID) bool { return false }
func (stubProto) OnInformed(int, graph.NodeID)          {}
func (stubProto) Quiesced(int) bool                     { return true }

type batchStub struct{ stubProto }

func (batchStub) AppendTransmitters(_ int, _, dst []graph.NodeID) []graph.NodeID { return dst }

type uniformStub struct{ stubProto }

func (uniformStub) RoundProb(int) (float64, bool) { return 0, false }
func (uniformStub) SkipSilent(from, _ int) int    { return from }

type batchUniformStub struct{ batchStub }

func (batchUniformStub) RoundProb(int) (float64, bool) { return 0, false }
func (batchUniformStub) SkipSilent(from, _ int) int    { return from }

func TestDecisionWrapperExposesExactlyTheWrappedInterfaces(t *testing.T) {
	protos := map[string]radio.Broadcaster{
		"plain":         stubProto{},
		"batch":         batchStub{},
		"uniform":       uniformStub{},
		"batch+uniform": batchUniformStub{},
	}
	// Every protocol the sessions workload runs.
	g := &sessionGraphs{gnp: graph.Path(4), rgg: graph.Path(4), gnpP: 0.5, rggDiam: 3}
	for _, c := range sessionConfigs() {
		if c.broadcast != nil {
			_, p := c.broadcast(g)
			protos[c.name] = p
		}
	}
	for name, p := range protos {
		w := wrapDecisions(p, &decisionClock{})
		_, pb := p.(radio.BatchBroadcaster)
		_, wb := w.(radio.BatchBroadcaster)
		_, pu := p.(radio.UniformRound)
		_, wu := w.(radio.UniformRound)
		if pb != wb || pu != wu {
			t.Errorf("%s: wrapped batch=%v uniform=%v, protocol batch=%v uniform=%v", name, wb, wu, pb, pu)
		}
	}
}

func TestDecisionWrapperLeavesResultsUnchanged(t *testing.T) {
	g := graph.GNPDirected(512, 0.05, rng.New(1))
	protos := []func() radio.Broadcaster{
		func() radio.Broadcaster { return core.NewAlgorithm1(0.05) },
		func() radio.Broadcaster { return core.NewAlgorithm3(512, 4, 2) },
		func() radio.Broadcaster { return &baseline.FixedProb{Q: 0.01, Window: 400} },
	}
	for _, mk := range protos {
		plain := radio.RunBroadcast(g, 0, mk(), rng.New(2), radio.Options{MaxRounds: 5000})
		var clk decisionClock
		wrapped := radio.RunBroadcast(g, 0, wrapDecisions(mk(), &clk), rng.New(2), radio.Options{MaxRounds: 5000})
		if plain.Rounds != wrapped.Rounds || plain.TotalTx != wrapped.TotalTx ||
			plain.Collisions != wrapped.Collisions || digest(plain.PerNodeTx) != digest(wrapped.PerNodeTx) {
			t.Errorf("%s: wrapped run differs: %+v vs %+v", plain.Protocol, wrapped, plain)
		}
		if clk.d <= 0 {
			t.Errorf("%s: no decision time recorded", plain.Protocol)
		}
	}
}

func TestSelfTimesSubtractChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 50}, // overlaps span 1
		{ID: 3, Parent: 2, Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40, 30, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct, ok := tail(xs); !ok || pct != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = %v at p%v (ok=%v), want 990 at p99", v, pct, ok)
	}
	if _, pct, ok := tail(xs[:200]); !ok || pct != 95 {
		t.Errorf("tail of 200 samples at p%v (ok=%v), want p95", pct, ok)
	}
}

// TestBenchmarkJSONMatchesTheMetrics keeps BENCHMARK.json in step with the
// metrics and workloads the benchmark reports.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer())
}
