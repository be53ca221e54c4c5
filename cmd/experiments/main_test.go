package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
)

// cli runs the command in-process and returns (exit code, stdout, stderr).
func cli(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListShowsEveryExperiment(t *testing.T) {
	code, out, _ := cli(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	for _, id := range []string{"F1", "E1", "E12", "X5", "G6", "N5"} {
		if !strings.Contains(out, id+" ") && !strings.Contains(out, "\n"+id) {
			t.Errorf("-list output missing %s:\n%s", id, out)
		}
	}
}

func TestUnknownIDFails(t *testing.T) {
	code, _, errb := cli(t, "-run", "ZZ9")
	if code != 1 {
		t.Fatalf("unknown id exit %d, want 1", code)
	}
	if !strings.Contains(errb, "unknown id") {
		t.Errorf("stderr missing diagnosis: %s", errb)
	}
}

func TestNoSelectionFails(t *testing.T) {
	if code, _, _ := cli(t); code != 1 {
		t.Fatalf("no selection should exit 1, got %d", code)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-run", "F1", "-resume"},       // resume without checkpoint
		{"-run", "F1", "-shard", "0/2"}, // shard without jsonl
		{"-run", "F1", "-shard", "banana", "-format", "jsonl"},
		{"-run", "F1", "-shard", "4/2", "-format", "jsonl", "-checkpoint", "x"},
		{"-run", "F1", "-format", "yaml"},
	}
	for _, args := range cases {
		if code, _, _ := cli(t, args...); code != 1 {
			t.Errorf("args %v: exit %d, want 1", args, code)
		}
	}
}

func TestRunWritesMarkdownOut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.md")
	code, _, errb := cli(t, "-run", "F1", "-seed", "777", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# Experiment results (reduced scale, seed 777)",
		"## F1 — Distribution α vs α′ (Fig. 1)",
		"### F1: level distributions",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("output missing %q", want)
		}
	}
	// The stale DESIGN.md reference must be gone (the index moved to README).
	if strings.Contains(string(data), "DESIGN.md") {
		t.Error("output still references the nonexistent DESIGN.md")
	}
}

func TestCSVAndJSONLFormats(t *testing.T) {
	code, csvOut, _ := cli(t, "-run", "F2", "-seed", "777", "-format", "csv")
	if code != 0 {
		t.Fatalf("csv exit %d", code)
	}
	if !strings.Contains(csvOut, "# table: F2: Theorem 4.4 network instances (Fig. 2)") ||
		!strings.Contains(csvOut, "star param n,D,") {
		t.Errorf("csv output malformed:\n%s", csvOut)
	}

	code, jsonlOut, _ := cli(t, "-run", "F2", "-seed", "777", "-format", "jsonl")
	if code != 0 {
		t.Fatalf("jsonl exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(jsonlOut), "\n")
	if len(lines) != 4 { // three instances + the budget point
		t.Fatalf("jsonl lines = %d, want 4:\n%s", len(lines), jsonlOut)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"campaign":"F2","point":"`) {
			t.Errorf("bad record line: %s", l)
		}
	}
}

// TestShardMergeResumeRendersIdenticalMarkdown is the CLI-level acceptance
// path: two half-grids run as separate shard processes, their checkpoints
// concatenated, and a -resume render over the merged stream must produce
// exactly the markdown of one uninterrupted run — without recomputing any
// point (enforced by the stderr "resumed from checkpoint" lines).
func TestShardMergeResumeRendersIdenticalMarkdown(t *testing.T) {
	dir := t.TempDir()
	ids := "F1,F2,E9"

	direct := filepath.Join(dir, "direct.md")
	directCk := filepath.Join(dir, "direct.jsonl")
	if code, _, errb := cli(t, "-run", ids, "-seed", "777", "-out", direct, "-checkpoint", directCk); code != 0 {
		t.Fatalf("direct run exit %d: %s", code, errb)
	}

	var merged bytes.Buffer
	for shard := 0; shard < 2; shard++ {
		ck := filepath.Join(dir, fmt.Sprintf("shard-%d.jsonl", shard))
		code, _, errb := cli(t, "-run", ids, "-seed", "777",
			"-shard", string(rune('0'+shard))+"/2", "-format", "jsonl", "-checkpoint", ck)
		if code != 0 {
			t.Fatalf("shard %d exit %d: %s", shard, code, errb)
		}
		data, err := os.ReadFile(ck)
		if err != nil {
			t.Fatal(err)
		}
		merged.Write(data)
	}
	mergedPath := filepath.Join(dir, "merged.jsonl")
	if err := os.WriteFile(mergedPath, merged.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	rendered := filepath.Join(dir, "rendered.md")
	code, _, errb := cli(t, "-run", ids, "-seed", "777",
		"-checkpoint", mergedPath, "-resume", "-out", rendered)
	if code != 0 {
		t.Fatalf("merged render exit %d: %s", code, errb)
	}
	if strings.Contains(errb, "done in") {
		t.Errorf("merged render recomputed points instead of resuming:\n%s", errb)
	}
	want, _ := os.ReadFile(direct)
	got, _ := os.ReadFile(rendered)
	if string(want) != string(got) {
		t.Errorf("markdown from merged shards differs from direct run")
	}

	// Record-level half of the acceptance criterion: shard 0/2 ∪ shard 1/2
	// must equal the uninterrupted run record for record (order aside — the
	// shards interleave the global grid).
	directLines, _ := os.ReadFile(directCk)
	if lineSet(string(directLines)) == nil {
		t.Fatal("direct checkpoint empty")
	}
	ds, ms := lineSet(string(directLines)), lineSet(merged.String())
	if len(ds) != len(ms) {
		t.Fatalf("record counts differ: direct %d vs merged shards %d", len(ds), len(ms))
	}
	for k := range ds {
		if !ms[k] {
			t.Errorf("record missing from shard union: %s", k)
		}
	}
}

// TestInterruptExitsDistinctlyAndResumes drives the graceful-shutdown path
// in-process: a SIGINT delivered to the run stops the campaign between grid
// points with the distinct interrupted status, the checkpoint keeps only
// whole records, and a -resume run completes it to the byte-identical
// uninterrupted stream.
func TestInterruptExitsDistinctlyAndResumes(t *testing.T) {
	dir := t.TempDir()

	// Truth: the uninterrupted run's checkpoint.
	truthCk := filepath.Join(dir, "truth.jsonl")
	if code, _, errb := cli(t, "-run", "F2,E9", "-seed", "777", "-format", "jsonl",
		"-checkpoint", truthCk, "-out", filepath.Join(dir, "ignore.jsonl")); code != 0 {
		t.Fatalf("uninterrupted run exit %d: %s", code, errb)
	}

	// Interrupted run: the signal is already pending when the watcher
	// installs, so the engine stops before its first point — determinism
	// without mid-run timing games.
	oldNotify := notifySignals
	notifySignals = func(ch chan<- os.Signal) { ch <- os.Interrupt }
	ck := filepath.Join(dir, "run.jsonl")
	code, _, errb := cli(t, "-run", "F2,E9", "-seed", "777", "-format", "jsonl",
		"-checkpoint", ck, "-out", filepath.Join(dir, "ignore2.jsonl"))
	notifySignals = oldNotify
	if code != exitInterrupted {
		t.Fatalf("interrupted run exit %d, want %d; stderr: %s", code, exitInterrupted, errb)
	}
	if !strings.Contains(errb, "interrupted") || !strings.Contains(errb, "rerun with -resume") {
		t.Errorf("stderr missing interrupt diagnosis and resume hint:\n%s", errb)
	}

	// Resume completes the run; the final stream equals the uninterrupted one.
	if code, _, errb := cli(t, "-run", "F2,E9", "-seed", "777", "-format", "jsonl",
		"-checkpoint", ck, "-resume", "-out", filepath.Join(dir, "ignore3.jsonl")); code != 0 {
		t.Fatalf("resumed run exit %d: %s", code, errb)
	}
	truth, _ := os.ReadFile(truthCk)
	resumed, _ := os.ReadFile(ck)
	if string(truth) != string(resumed) {
		t.Errorf("interrupted-then-resumed checkpoint differs from uninterrupted run")
	}
}

// TestSecondSignalHardExits checks the escalation contract: one signal is
// graceful, a second one calls the hard-exit hook with status 130.
func TestSecondSignalHardExits(t *testing.T) {
	oldNotify, oldExit := notifySignals, exitNow
	defer func() { notifySignals, exitNow = oldNotify, oldExit }()

	notifySignals = func(ch chan<- os.Signal) {
		ch <- os.Interrupt
		ch <- syscall.SIGTERM
	}
	exited := make(chan int, 1)
	exitNow = func(code int) { exited <- code; runtime.Goexit() }

	var buf bytes.Buffer
	done := make(chan struct{})
	defer close(done)
	interrupt := watchSignals(&buf, done)
	<-interrupt // first signal: graceful stop requested
	if code := <-exited; code != 130 {
		t.Fatalf("second signal exit %d, want 130", code)
	}
	if !strings.Contains(buf.String(), "finishing the in-flight grid point") ||
		!strings.Contains(buf.String(), "aborting") {
		t.Errorf("watcher narration incomplete:\n%s", buf.String())
	}
}

// lineSet splits JSONL content into a set of lines.
func lineSet(s string) map[string]bool {
	out := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSpace(s), "\n") {
		if l != "" {
			out[l] = true
		}
	}
	return out
}

// TestKilledRunResumesToIdenticalCheckpoint is the other acceptance half on
// real experiments: truncate a finished checkpoint to a prefix (the state a
// killed process leaves, torn tail included) and -resume; the repaired
// stream must be byte-identical to the uninterrupted one.
func TestKilledRunResumesToIdenticalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ck := filepath.Join(dir, "run.jsonl")
	if code, _, errb := cli(t, "-run", "F2,E9", "-seed", "777", "-format", "jsonl",
		"-checkpoint", ck, "-out", filepath.Join(dir, "ignore.jsonl")); code != 0 {
		t.Fatalf("uninterrupted run exit %d: %s", code, errb)
	}
	full, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(full), "\n")
	if len(lines) < 4 {
		t.Fatalf("too few records to simulate a kill: %d", len(lines))
	}
	// Kill mid-append: two complete records plus half of the third.
	partial := strings.Join(lines[:2], "") + lines[2][:len(lines[2])/3]
	if err := os.WriteFile(ck, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, errb := cli(t, "-run", "F2,E9", "-seed", "777", "-format", "jsonl",
		"-checkpoint", ck, "-resume", "-out", filepath.Join(dir, "ignore2.jsonl")); code != 0 {
		t.Fatalf("resumed run exit %d: %s", code, errb)
	}
	resumed, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumed) != string(full) {
		t.Errorf("killed-then-resumed checkpoint differs from uninterrupted run")
	}
}
