package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/jobqueue"
)

// The service workload: an in-process durable campaign daemon behind
// httptest, drained by two worker loops in a closed loop, one connection
// each, whose runner answers in microseconds — so the queue, the WAL and
// its compaction, the checkpoint sink and HTTP do all the work.

// serviceScale sizes the workload.
type serviceScale struct {
	points  int // grid points of the one job each repetition drains
	window  int // completions per measured window of a drain
	minReps int // least number of daemon lifetimes per run
}

// A job of 10 000 points: on a 2-vCPU host the drain rate of 1 000-point
// jobs ranged over ±25% between runs and of 10 000-point jobs over ±6%,
// and set-up is then more expansion and submit than a few fsyncs.
var defaultServiceScale = serviceScale{points: 10000, window: 500, minReps: 2}

const (
	// serviceWorkers is the number of RunWorker loops, one connection each.
	serviceWorkers = 2
	// setupProbes is how many more set-ups (open and submit, then close
	// undrained) precede each lifetime; setup_s is the median over all
	// set-ups, since one takes only some fsync-bound milliseconds.
	setupProbes   = 8
	synthCampaign = "SYN"
	benchJob      = "bench"
	// spanHeader carries the client span id to the server wrapper, which
	// parents its span on it; traceHeader carries the request's trace id.
	spanHeader  = "X-Bench-Span"
	traceHeader = "X-Bench-Trace"
	// drainTimeout bounds one drain: far beyond any healthy run, it turns a
	// stuck daemon into a failed run instead of a hung one.
	drainTimeout = 120 * time.Second
)

// synthExpand is the synthetic grid: points keys under one campaign.
func synthExpand(points int) jobqueue.Expander {
	return func(jobqueue.JobSpec) ([]jobqueue.PointRef, int, error) {
		refs := make([]jobqueue.PointRef, points)
		for i := range refs {
			refs[i] = jobqueue.PointRef{Campaign: synthCampaign, Key: fmt.Sprintf("i=%06d", i)}
		}
		return refs, 1, nil
	}
}

// synthRecord is the runner's answer: a record that is a pure function of
// (point, seed, trials).
func synthRecord(ref jobqueue.PointRef, seed uint64, trials int) *campaign.Record {
	x := campaign.PointSeed(campaign.Keyed, seed, ref.Key)
	s := campaign.Samples{"x": {float64(x >> 11)}, "y": {float64(x % 1000)}}
	pt := campaign.Point{Key: ref.Key, Params: map[string]string{"key": ref.Key}}
	return campaign.NewRecord(ref.Campaign, pt, campaign.Config{Seed: seed}, trials, s)
}

// endpoint names the API call of a request path.
func endpoint(path string) string {
	switch {
	case strings.HasSuffix(path, "/lease"):
		return "lease"
	case strings.HasSuffix(path, "/complete"):
		return "complete"
	case strings.HasSuffix(path, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(path, "/register"):
		return "register"
	case path == "/api/v1/campaigns":
		return "submit"
	default:
		return "other"
	}
}

// drainState counts completions, snapshots the process's usage every
// window completions, and closes done after the last one.
type drainState struct {
	points, window int64
	n              atomic.Int64
	done           chan struct{}
	mu             sync.Mutex
	marks          []usage // at the start and after every window completions
}

func newDrainState(points, window int) *drainState {
	return &drainState{points: int64(points), window: int64(window), done: make(chan struct{}),
		marks: []usage{readUsage()}}
}

func (d *drainState) completed() {
	n := d.n.Add(1)
	if n%d.window == 0 || n == d.points {
		u := readUsage()
		d.mu.Lock()
		d.marks = append(d.marks, u)
		d.mu.Unlock()
	}
	if n == d.points {
		close(d.done)
	}
}

// windows returns the cost of each window of completions.
func (d *drainState) windows() []cost {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]cost, len(d.marks)-1)
	for i := range out {
		out[i] = d.marks[i+1].since(d.marks[i])
	}
	return out
}

// clientTimer is one worker's http.RoundTripper. It times every call from
// the request to the close of its response body — the client-observed
// round trip — and, traced, opens a span per request.
type clientTimer struct {
	base  http.RoundTripper
	rec   *recorder
	drain *drainState // nil for the submitting client
	next  *atomic.Int64

	mu                     sync.Mutex
	lease, complete, cycle []time.Duration
	cycleStart             time.Time
	requests, errors       int
	leaseReqs, grants      int
}

func (t *clientTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpoint(req.URL.Path)
	sp := -1
	if t.rec != nil {
		trace := "req-" + strconv.FormatInt(t.next.Add(1), 10)
		sp = t.rec.start("client."+ep, trace, -1)
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(sp))
		req.Header.Set(traceHeader, trace)
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		// A call cut off by the end of the drain is not a daemon error.
		if req.Context().Err() == nil {
			t.finish(ep, t0, sp, 0)
		} else {
			t.rec.end(sp)
		}
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.finish(ep, t0, sp, resp.StatusCode) }}
	return resp, nil
}

func (t *clientTimer) finish(ep string, t0 time.Time, sp, status int) {
	d := time.Since(t0)
	t.rec.end(sp)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.requests++
	if status == 0 || status >= 400 {
		t.errors++
	}
	switch ep {
	case "lease":
		t.leaseReqs++
		t.lease = append(t.lease, d)
		if status == http.StatusOK {
			t.grants++
			t.cycleStart = t0
		}
	case "complete":
		t.complete = append(t.complete, d)
		if status == http.StatusOK {
			t.cycle = append(t.cycle, time.Since(t.cycleStart))
			if t.drain != nil {
				t.drain.completed()
			}
		}
	}
}

// timedBody reports the end of a round trip when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// serverTimer wraps the daemon's handler; traced, it records a span per
// request, parented on the client's span.
type serverTimer struct {
	h   http.Handler
	rec *recorder
}

func (s serverTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.rec == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if err != nil {
		parent = -1
	}
	sp := s.rec.start("server."+endpoint(r.URL.Path), r.Header.Get(traceHeader), parent)
	s.h.ServeHTTP(w, r)
	s.rec.end(sp)
}

// daemon is a durable queue under a directory, served over httptest, with
// the benchmark's job submitted.
type daemon struct {
	q             *jobqueue.Queue
	srv           *httptest.Server
	rec           *recorder
	ids           atomic.Int64 // trace ids of requests
	setup, submit time.Duration
	close         func() error // idempotent
}

// openDaemon is the service's set-up, timed from the queue open to the end
// of the submit, when the first lease can be granted.
func openDaemon(sc serviceScale, seed uint64, dir string, rec *recorder) (*daemon, error) {
	settle()
	t0 := time.Now()
	q, err := jobqueue.NewQueue(jobqueue.Options{
		DataDir:  filepath.Join(dir, "data"),
		StateDir: filepath.Join(dir, "state"),
		Expand:   synthExpand(sc.points),
	})
	if err != nil {
		return nil, err
	}
	d := &daemon{q: q, rec: rec, srv: httptest.NewServer(serverTimer{h: jobqueue.NewServer(q), rec: rec})}
	d.close = sync.OnceValue(func() error {
		d.srv.Close()
		return q.Close()
	})
	sub, _, subTr := d.client(nil)
	defer subTr.CloseIdleConnections()
	ts := time.Now()
	if _, err := sub.Submit(context.Background(), jobqueue.JobSpec{ID: benchJob, Experiments: []string{synthCampaign}, Seed: seed}); err != nil {
		d.close()
		return nil, fmt.Errorf("service: submit: %w", err)
	}
	d.submit = time.Since(ts)
	d.setup = time.Since(t0)
	return d, nil
}

// client returns a client of the daemon on its own single connection,
// timed by a clientTimer that counts completions into drain (when non-nil).
func (d *daemon) client(drain *drainState) (*jobqueue.Client, *clientTimer, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	ct := &clientTimer{base: tr, rec: d.rec, drain: drain, next: &d.ids}
	cl := jobqueue.NewClient(d.srv.URL)
	cl.HTTP = &http.Client{Transport: ct, Timeout: 30 * time.Second}
	return cl, ct, tr
}

// serviceRep is one daemon lifetime: open, submit, drain, check, close.
type serviceRep struct {
	setup, submit time.Duration
	drain         cost
	windows       []cost // the drain's windows of completions
	io            ioCounters
	timers        []*clientTimer
	status        jobqueue.JobStatus
	walBytes      int64
	snapBytes     int64
	recordsBytes  int64
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// runServiceRep runs one daemon lifetime under dir and checks its output.
func runServiceRep(c *checks, sc serviceScale, seed uint64, dir string, rec *recorder) (*serviceRep, error) {
	d, err := openDaemon(sc, seed, dir, rec)
	if err != nil {
		return nil, err
	}
	defer d.close()
	q := d.q
	r := &serviceRep{setup: d.setup, submit: d.submit}

	runner := jobqueue.RunnerFunc(func(l *jobqueue.Lease) (*campaign.Record, error) {
		return synthRecord(l.Point, l.Spec.Seed, l.Trials), nil
	})
	io0, err := readIO()
	if err != nil {
		return nil, err
	}
	drain := newDrainState(sc.points, sc.window)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	errs := make([]error, serviceWorkers)
	for w := 0; w < serviceWorkers; w++ {
		cl, ct, tr := d.client(drain)
		defer tr.CloseIdleConnections()
		r.timers = append(r.timers, ct)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = jobqueue.RunWorker(ctx, cl, runner, jobqueue.WorkerOptions{
				ID: fmt.Sprintf("bench-%d", w), Poll: 2 * time.Millisecond})
		}()
	}
	var timedOut bool
	select {
	case <-drain.done:
	case <-time.After(drainTimeout):
		timedOut = true
	}
	r.drain = readUsage().since(drain.marks[0])
	io1, err := readIO()
	cancel()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	r.windows = drain.windows()
	r.io = ioCounters{writeBytes: io1.writeBytes - io0.writeBytes, writeSyscalls: io1.writeSyscalls - io0.writeSyscalls}
	r.walBytes = fileSize(filepath.Join(dir, "state", "wal.jsonl"))
	r.snapBytes = fileSize(filepath.Join(dir, "state", "snapshot.json"))
	recordsPath := filepath.Join(dir, "data", benchJob, "records.jsonl")
	r.recordsBytes = fileSize(recordsPath)

	c.check(!timedOut, "service: drain did not finish within %v", drainTimeout)
	for w, err := range errs {
		c.check(err == nil, "service: worker %d: %v", w, err)
	}
	for _, t := range r.timers {
		c.attempted += t.requests
		c.failed += t.errors
	}
	st, ok := q.Status(benchJob)
	r.status = st
	c.check(ok && st.State == "complete" && st.Done == sc.points && st.Failed == 0,
		"service: job status %+v, want complete with %d done", st, sc.points)
	c.check(st.Requeues == 0 && st.Retries == 0 && st.Duplicates == 0,
		"service: %d requeues, %d retries, %d duplicates", st.Requeues, st.Retries, st.Duplicates)
	if m, ok := q.ManifestOf(benchJob); ok {
		for _, f := range m.Failures {
			c.check(false, "service: point %s/%s failed: %s", f.Point.Campaign, f.Point.Key, f.LastErr)
		}
	}
	checkServiceRecords(c, recordsPath, sc.points, seed)
	err = d.close()
	c.check(err == nil, "service: close queue: %v", err)
	return r, nil
}

// checkServiceRecords checks that the daemon's records.jsonl holds exactly
// the runner's record for every point.
func checkServiceRecords(c *checks, path string, points int, seed uint64) {
	rs, err := campaign.LoadRecords(path)
	if err != nil {
		c.check(false, "service: load records: %v", err)
		return
	}
	refs, trials, _ := synthExpand(points)(jobqueue.JobSpec{})
	for _, ref := range refs {
		got, ok := rs.Lookup(ref.Campaign, ref.Key)
		same := ok
		if ok {
			a, errA := json.Marshal(got)
			b, errB := json.Marshal(synthRecord(ref, seed, trials))
			same = errA == nil && errB == nil && string(a) == string(b)
		}
		c.check(same, "service: record %s/%s missing or different from the runner's", ref.Campaign, ref.Key)
	}
	c.check(len(rs.Records()) == points, "service: records.jsonl holds %d records, want %d", len(rs.Records()), points)
}

// probeSetup times one more set-up in a fresh directory and closes the
// daemon undrained.
func probeSetup(sc serviceScale, seed uint64, workDir string) (setup, submit time.Duration, err error) {
	dir, err := os.MkdirTemp(workDir, "setup-")
	if err != nil {
		return 0, 0, fmt.Errorf("service: %w", err)
	}
	defer os.RemoveAll(dir)
	d, err := openDaemon(sc, seed, dir, nil)
	if err != nil {
		return 0, 0, err
	}
	return d.setup, d.submit, d.close()
}

// runService is the service workload: daemon lifetimes until the time is
// up, each preceded by set-up probes. Traced, lifetimes alternate between
// untraced and traced.
func runService(o options, sc serviceScale) (*report, error) {
	var c checks
	var plain, traced []*serviceRep
	var setups, submits []float64
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	rep := func(r *recorder) (*serviceRep, error) {
		dir, err := os.MkdirTemp(o.workDir, "service-")
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		defer os.RemoveAll(dir)
		return runServiceRep(&c, sc, o.seed, dir, r)
	}
	start := time.Now()
	for len(plain) < sc.minReps || time.Since(start) < o.seconds {
		for i := 0; i < setupProbes; i++ {
			setup, submit, err := probeSetup(sc, o.seed, o.workDir)
			if err != nil {
				return nil, err
			}
			setups = append(setups, setup.Seconds())
			submits = append(submits, submit.Seconds())
		}
		p, err := rep(nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, p)
		setups = append(setups, p.setup.Seconds())
		submits = append(submits, p.submit.Seconds())
		if o.traced {
			t, err := rep(rec)
			if err != nil {
				return nil, err
			}
			traced = append(traced, t)
		}
	}

	out := newReport()
	out.checks = c
	var walls []float64
	var cycles []time.Duration
	var windows [][]cost
	for _, r := range plain {
		walls = append(walls, r.drain.wall.Seconds())
		windows = append(windows, r.windows)
		for _, t := range r.timers {
			cycles = append(cycles, t.cycle...)
		}
	}
	out.note("drain walls (s) of the %d untraced daemon lifetimes: %.3f", len(walls), walls)
	out.note("setup_s is the median of %d set-ups", len(setups))
	drain := typicalCost(windows)
	out.metric("setup_s", median(setups))
	out.metric("cpu_s", drain.cpu.Seconds())
	out.metric("alloc_mb", mib(drain.alloc))
	out.metric("peak_rss_mb", peakRSSMiB())
	out.wallClock(drain.wall, sc.points, "lease+complete cycle", durationsMs(cycles))
	if !o.traced {
		return out, nil
	}
	var tw [][]cost
	for _, r := range traced {
		tw = append(tw, r.windows)
	}
	out.metric("trace.overhead", typicalCost(tw).wall.Seconds()/drain.wall.Seconds())
	spans := rec.snapshot()
	serviceLayers(out, sc, plain, spans)
	out.metric("jobqueue.submit_s", median(submits))
	path, err := writeSpans(o.spanDir, fmt.Sprintf("service-seed%d", o.seed), spans)
	if err != nil {
		return nil, err
	}
	out.note("spans: written to %s", path)
	return out, nil
}

// serviceLayers derives the jobqueue per-layer metrics: client-observed
// latencies and counts from the untraced lifetimes, the server/transport
// split from the traced lifetimes' spans.
func serviceLayers(out *report, sc serviceScale, plain []*serviceRep, spans []span) {
	var lease, complete []time.Duration
	var requests, leaseReqs, grants int
	var wBytes, wCalls, walB, snapB, recB []float64
	var st jobqueue.JobStatus
	for _, r := range plain {
		for _, t := range r.timers {
			lease = append(lease, t.lease...)
			complete = append(complete, t.complete...)
			requests += t.requests
			leaseReqs += t.leaseReqs
			grants += t.grants
		}
		wBytes = append(wBytes, float64(r.io.writeBytes)/float64(sc.points))
		wCalls = append(wCalls, float64(r.io.writeSyscalls)/float64(sc.points))
		walB = append(walB, float64(r.walBytes))
		snapB = append(snapB, float64(r.snapBytes))
		recB = append(recB, float64(r.recordsBytes))
		st.Requeues += r.status.Requeues
		st.Retries += r.status.Retries
		st.Duplicates += r.status.Duplicates
	}
	out.latency("jobqueue.lease_ms", "lease round trip", durationsMs(lease))
	out.latency("jobqueue.complete_ms", "complete round trip", durationsMs(complete))
	completions := float64(sc.points * len(plain))
	out.metric("jobqueue.requests_per_completion", float64(requests)/completions)
	out.metric("jobqueue.lease_grant_ratio", float64(grants)/float64(max(leaseReqs, 1)))
	out.metric("jobqueue.write_bytes_per_completion", median(wBytes))
	out.metric("jobqueue.write_syscalls_per_completion", median(wCalls))
	out.metric("jobqueue.wal_bytes", median(walB))
	out.metric("jobqueue.snapshot_bytes", median(snapB))
	out.metric("jobqueue.records_bytes", median(recB))
	out.metric("jobqueue.requeues", float64(st.Requeues))
	out.metric("jobqueue.retries", float64(st.Retries))
	out.metric("jobqueue.duplicates", float64(st.Duplicates))

	self := selfTimes(spans)
	server := map[string][]float64{}
	transport := map[string][]float64{}
	for i, s := range spans {
		ep, isClient := strings.CutPrefix(s.Name, "client.")
		if isClient {
			transport[ep] = append(transport[ep], float64(self[i])/1e6)
		} else if ep, ok := strings.CutPrefix(s.Name, "server."); ok {
			server[ep] = append(server[ep], float64(s.dur())/1e6)
		}
	}
	for _, ep := range []string{"lease", "complete"} {
		out.metric("jobqueue.server_ms_p50."+ep, median(server[ep]))
		out.metric("jobqueue.transport_ms_p50."+ep, median(transport[ep]))
	}
}
