package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/expt"
	"repro/internal/radio"
	"repro/internal/sweep"
)

// The campaign workload: the reduced grid of every registered experiment
// through campaign.Run at Workers 1 with a JSONL checkpoint, then every
// unit's Render — what regenerating the paper's tables costs a user.

// runGroups are the buckets expt.run_s.<group> reports.
var runGroups = []string{"S1-implicit", "S1-csr", "energy", "channel", "geom", "paper", "other"}

// runGroup classifies one point of a unit into its run_s bucket.
func runGroup(unitID, pointKey string) string {
	switch {
	case unitID == "S1" && strings.Contains(pointKey, "graph=implicit"):
		return "S1-implicit"
	case unitID == "S1":
		return "S1-csr"
	case unitID == "X7" || strings.HasPrefix(unitID, "N"):
		return "energy"
	case unitID == "X5" || strings.HasPrefix(unitID, "C"):
		return "channel"
	case unitID == "X1" || unitID == "X8" || strings.HasPrefix(unitID, "G"):
		return "geom"
	case strings.HasPrefix(unitID, "F") || strings.HasPrefix(unitID, "E"):
		return "paper"
	default:
		return "other"
	}
}

// campaignPass is the outcome of one campaign.Run plus rendering.
type campaignPass struct {
	setup   time.Duration // campaign.Run entry to the first point's Run
	work    cost          // first point's Run to the last Render
	points  []pointTime   // in execution order
	records *campaign.ResultSet
	ckpt    string
	renders map[string]renderOutcome // by unit ID
}

// pointTime is how long one point's Run took.
type pointTime struct {
	unit string
	pt   campaign.Point
	d    time.Duration
}

type renderOutcome struct {
	err  error
	s1OK bool // S1 only: every implicit row renders "identical"
}

// runCampaignPass runs the units' grids once. With rec non-nil every point's
// Run, every Render and the calibration probe are recorded as spans.
func runCampaignPass(cfg campaign.Config, units []campaign.Unit, ckpt string, rec *recorder) (*campaignPass, error) {
	p := &campaignPass{ckpt: ckpt, renders: map[string]renderOutcome{}}
	settle()
	start := readUsage()
	root := rec.start("campaign.pass", "", -1)
	if rec != nil {
		// The probe is cached per process; calling it here, inside its own
		// span, moves its cost from campaign.Run's set-up into radio.calibrate.
		sp := rec.start("radio.calibrate", "", root)
		radio.Calibrate()
		rec.end(sp)
	}
	var first usage
	wrapped := make([]campaign.Unit, len(units))
	for i, u := range units {
		id, c, run := u.ID, u.C, u.C.Run
		c.Run = func(cfg campaign.Config, pt campaign.Point, seed uint64) campaign.Samples {
			if first.wall.IsZero() {
				first = readUsage()
			}
			t0 := time.Now()
			sp := rec.start("expt.run."+runGroup(id, pt.Key), id+"/"+pt.Key, root)
			s := run(cfg, pt, seed)
			rec.end(sp)
			p.points = append(p.points, pointTime{id, pt, time.Since(t0)})
			return s
		}
		wrapped[i] = campaign.Unit{ID: id, C: c}
	}
	rs, err := campaign.Run(wrapped, campaign.RunOptions{Config: cfg, Trials: expt.Trials(cfg), Checkpoint: ckpt})
	if err != nil {
		return nil, err
	}
	if first.wall.IsZero() {
		return nil, fmt.Errorf("campaign: the grid has no points")
	}
	p.records = rs
	for _, u := range units {
		sp := rec.start("campaign.render", u.ID, root)
		p.renders[u.ID] = render(u, cfg, rs)
		rec.end(sp)
	}
	end := readUsage()
	rec.end(root)
	p.setup = first.wall.Sub(start.wall)
	p.work = end.since(first)
	return p, nil
}

// setupOnce times campaign.Run's set-up once more: from its entry to the
// first point's Run, where the run is interrupted. radio.Calibrate caches
// its probe per process, so only a fresh process times the whole set-up.
func setupOnce(cfg campaign.Config, units []campaign.Unit, ckpt string) (time.Duration, error) {
	settle()
	t0 := time.Now()
	var took time.Duration
	stop := make(chan struct{})
	wrapped := make([]campaign.Unit, len(units))
	for i, u := range units {
		c := u.C
		c.Run = func(campaign.Config, campaign.Point, uint64) campaign.Samples {
			if took == 0 {
				took = time.Since(t0)
				close(stop)
			}
			return campaign.Samples{}
		}
		wrapped[i] = campaign.Unit{ID: u.ID, C: c}
	}
	_, err := campaign.Run(wrapped, campaign.RunOptions{Config: cfg, Trials: expt.Trials(cfg), Checkpoint: ckpt, Interrupt: stop})
	if !errors.Is(err, campaign.ErrInterrupted) {
		return 0, fmt.Errorf("campaign: set-up probe was not interrupted at its first point: %v", err)
	}
	return took, nil
}

// childSetups times the campaign set-up in n fresh processes of this
// binary (see setupOnce) and returns the times in seconds.
func childSetups(o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var out []float64
	for i := 0; i < n; i++ {
		b, err := exec.Command(exe, "-campaign-setup", "-seed", strconv.FormatUint(o.seed, 10), "-work", o.workDir).Output()
		if err != nil {
			return nil, fmt.Errorf("campaign: set-up in a child process: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("campaign: set-up in a child process printed %q", b)
		}
		out = append(out, v)
	}
	return out, nil
}

// campaignSetupChild is a child process of childSetups: it times one
// set-up of the full grid and prints it in seconds.
func campaignSetupChild(o options, stdout io.Writer) error {
	dir, err := os.MkdirTemp(o.workDir, "setup-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := setupOnce(campaign.Config{Seed: o.seed, Workers: 1}, defaultCampaignUnits(), filepath.Join(dir, "ck.jsonl"))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, d.Seconds())
	return err
}

// render runs one unit's Render, turning a panic into an error.
func render(u campaign.Unit, cfg campaign.Config, rs *campaign.ResultSet) (out renderOutcome) {
	defer func() {
		if r := recover(); r != nil {
			out = renderOutcome{err: fmt.Errorf("render %s panicked: %v", u.ID, r)}
		}
	}()
	tables := u.C.Render(cfg, campaign.NewView(rs, u.ID))
	if len(tables) == 0 {
		out.err = fmt.Errorf("render %s produced no tables", u.ID)
	}
	if u.ID == "S1" {
		out.s1OK = s1Identical(tables)
	}
	return out
}

// s1Identical reports whether the S1 table has implicit rows and each of
// them reports "identical" against its CSR twin.
func s1Identical(tables []*sweep.Table) bool {
	rows := 0
	for _, t := range tables {
		gcol, vcol := -1, -1
		for i, c := range t.Columns {
			switch c {
			case "graph":
				gcol = i
			case "vs csr":
				vcol = i
			}
		}
		if gcol < 0 || vcol < 0 {
			continue
		}
		for _, r := range t.Rows {
			if r[gcol] != "implicit" {
				continue
			}
			rows++
			if r[vcol] != "identical" {
				return false
			}
		}
	}
	return rows > 0
}

// recordsEqual compares two records field by field, bit for bit (NaN equal
// to NaN). X4's "nanos" samples are wall-clock measurements, the one
// nondeterministic metric of the grid, and are skipped.
func recordsEqual(a, b *campaign.Record) bool {
	if a.Campaign != b.Campaign || a.Point != b.Point || a.Seed != b.Seed ||
		a.Full != b.Full || a.Trials != b.Trials || len(a.Params) != len(b.Params) ||
		len(a.Samples) != len(b.Samples) {
		return false
	}
	for k, v := range a.Params {
		if w, ok := b.Params[k]; !ok || v != w {
			return false
		}
	}
	for k, xs := range a.Samples {
		ys, ok := b.Samples[k]
		if !ok || len(xs) != len(ys) {
			return false
		}
		if a.Campaign == "X4" && k == "nanos" {
			continue
		}
		for i := range xs {
			x, y := float64(xs[i]), float64(ys[i])
			if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
				return false
			}
		}
	}
	return true
}

// checks tallies output checks: every check is one attempted operation.
type checks struct {
	attempted, failed int
	failures          []string // the first few, for the log
}

func (c *checks) check(ok bool, format string, args ...any) {
	c.attempted++
	if ok {
		return
	}
	c.failed++
	if len(c.failures) < 10 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// checkCampaign checks a pass against the grid: every point has a record,
// in the returned set and in the checkpoint file alike; each record equals
// ref's (when ref is non-nil); every unit rendered; S1's implicit rows
// match CSR. Points absent from ref are not compared.
func checkCampaign(c *checks, cfg campaign.Config, units []campaign.Unit, p *campaignPass, ref *campaign.ResultSet) {
	var disk *campaign.ResultSet
	if p.ckpt != "" {
		var err error
		disk, err = campaign.LoadRecords(p.ckpt)
		c.check(err == nil, "load checkpoint %s: %v", p.ckpt, err)
	}
	for _, u := range units {
		for _, pt := range u.C.Points(cfg) {
			r, ok := p.records.Lookup(u.ID, pt.Key)
			good := ok
			if ok && disk != nil {
				d, ok := disk.Lookup(u.ID, pt.Key)
				good = ok && recordsEqual(r, d)
			}
			if ok && ref != nil {
				if want, ok := ref.Lookup(u.ID, pt.Key); ok {
					good = good && recordsEqual(r, want)
				}
			}
			c.check(good, "campaign %s %s: record missing or mismatched", u.ID, pt.Key)
		}
		if ro, ok := p.renders[u.ID]; ok {
			c.check(ro.err == nil, "campaign %s: %v", u.ID, ro.err)
			if u.ID == "S1" {
				c.check(ro.s1OK, "campaign S1: implicit rows do not render identical to CSR")
			}
		}
	}
}

// cheapestPoints keeps, of every unit, the point whose Run was quickest in
// p, for a re-run that checks records repeat within the invocation.
func cheapestPoints(units []campaign.Unit, p *campaignPass) []campaign.Unit {
	best := map[string]pointTime{}
	for _, t := range p.points {
		if b, ok := best[t.unit]; !ok || t.d < b.d {
			best[t.unit] = t
		}
	}
	var out []campaign.Unit
	for _, u := range units {
		b, ok := best[u.ID]
		if !ok {
			continue
		}
		c := u.C
		c.Points = func(campaign.Config) []campaign.Point { return []campaign.Point{b.pt} }
		out = append(out, campaign.Unit{ID: u.ID, C: c})
	}
	return out
}

// runCampaign is the campaign workload. Its fixed work is one pass over the
// grid, which outlasts o.seconds (about 30 s on 2 vCPUs). Untraced, it
// times one pass, re-runs the quickest point of every unit to check that
// records repeat, and times the set-up again in setupChildren fresh
// processes. Traced, it runs a traced pass and an untraced one and
// compares every record across them.
func runCampaign(o options, units []campaign.Unit, setupChildren int) (*report, error) {
	cfg := campaign.Config{Seed: o.seed, Workers: 1}
	dir, err := os.MkdirTemp(o.workDir, "campaign-")
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer os.RemoveAll(dir)

	var c checks
	rep := newReport()
	var p *campaignPass // the untraced pass
	if !o.traced {
		p, err = runCampaignPass(cfg, units, filepath.Join(dir, "pass1.jsonl"), nil)
		if err != nil {
			return nil, err
		}
		checkCampaign(&c, cfg, units, p, nil)
		sample := cheapestPoints(units, p)
		again, err := campaign.Run(sample, campaign.RunOptions{Config: cfg, Trials: expt.Trials(cfg)})
		if err != nil {
			return nil, err
		}
		for _, u := range sample {
			pt := u.C.Points(cfg)[0]
			a, okA := p.records.Lookup(u.ID, pt.Key)
			b, okB := again.Lookup(u.ID, pt.Key)
			c.check(okA && okB && recordsEqual(a, b), "campaign %s %s: record differs on re-run", u.ID, pt.Key)
		}
	} else {
		rec := newRecorder()
		tp, err := runCampaignPass(cfg, units, filepath.Join(dir, "traced.jsonl"), rec)
		if err != nil {
			return nil, err
		}
		p, err = runCampaignPass(cfg, units, filepath.Join(dir, "untraced.jsonl"), nil)
		if err != nil {
			return nil, err
		}
		checkCampaign(&c, cfg, units, tp, nil)
		checkCampaign(&c, cfg, units, p, tp.records)
		spans := rec.snapshot()
		campaignLayers(rep, tp, spans)
		rep.metric("trace.overhead", tp.work.wall.Seconds()/p.work.wall.Seconds())
		path, err := writeSpans(o.spanDir, fmt.Sprintf("campaign-seed%d", o.seed), spans)
		if err != nil {
			return nil, err
		}
		rep.note("spans: %d written to %s", len(spans), path)
	}
	ms := make([]float64, len(p.points))
	for i, t := range p.points {
		ms[i] = millis(t.d)
	}
	setups := []float64{p.setup.Seconds()}
	if !o.traced {
		more, err := childSetups(o, setupChildren)
		if err != nil {
			return nil, err
		}
		setups = append(setups, more...)
		rep.note("setup_s is the median of %d set-ups, %d of them in fresh processes (s): %.4f", len(setups), len(more), setups)
	}
	rep.metric("setup_s", median(setups))
	rep.metric("cpu_s", p.work.cpu.Seconds())
	rep.metric("alloc_mb", mib(p.work.alloc))
	rep.metric("peak_rss_mb", peakRSSMiB())
	rep.wallClock(p.work.wall, len(p.points), "point Run", ms)
	rep.checks = c
	return rep, nil
}

// campaignLayers derives the expt/campaign per-layer metrics from a traced
// pass and its spans.
func campaignLayers(rep *report, p *campaignPass, spans []span) {
	self := selfTimes(spans)
	groups := map[string]float64{}
	var render, engine, calibrate float64
	for i, s := range spans {
		d := float64(s.dur()) / 1e9
		switch {
		case strings.HasPrefix(s.Name, "expt.run."):
			groups[strings.TrimPrefix(s.Name, "expt.run.")] += d
		case s.Name == "campaign.render":
			render += d
		case s.Name == "radio.calibrate":
			calibrate += d
		case s.Name == "campaign.pass":
			engine += float64(self[i]) / 1e9
		}
	}
	for _, g := range runGroups {
		rep.metric("expt.run_s."+g, groups[g])
	}
	rep.metric("campaign.render_s", render)
	rep.metric("campaign.engine_self_s", engine)
	rep.metric("campaign.points", float64(len(p.points)))
	if st, err := os.Stat(p.ckpt); err == nil {
		rep.metric("campaign.checkpoint_bytes", float64(st.Size()))
	}
	rep.metric("radio.calibrate_s", calibrate)
	rep.metric("sweep.effective_cores", radio.Calibrate().EffectiveCores)
}

// campaignSetupChildren is how many fresh processes time the set-up again,
// so setup_s is a median of several set-ups.
const campaignSetupChildren = 6

// defaultCampaignUnits is the workload's grid: every registered experiment.
func defaultCampaignUnits() []campaign.Unit { return expt.Units(expt.All()) }
