package expt

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/sweep"
)

var cfg = Config{Full: false, Seed: 12345, Workers: 0}

// cellF parses a numeric table cell.
func cellF(t *testing.T, tb *sweep.Table, row, col int) float64 {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Columns) {
		t.Fatalf("cell (%d,%d) out of range %dx%d in %q", row, col, len(tb.Rows), len(tb.Columns), tb.Title)
	}
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) of %q is not numeric: %q", row, col, tb.Title, tb.Rows[row][col])
	}
	return v
}

// colIndex finds a column by (partial) name.
func colIndex(t *testing.T, tb *sweep.Table, name string) int {
	t.Helper()
	for i, c := range tb.Columns {
		if strings.Contains(c, name) {
			return i
		}
	}
	t.Fatalf("table %q has no column containing %q (have %v)", tb.Title, name, tb.Columns)
	return -1
}

func runByID(t *testing.T, id string) []*sweep.Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	tables := e.Run(cfg)
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s table %q has no rows", id, tb.Title)
		}
		// Markdown rendering must not panic and must mention the title.
		if !strings.Contains(tb.Markdown(), tb.Title) {
			t.Fatalf("%s markdown broken", id)
		}
	}
	return tables
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"F1", "F2", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
		"E9", "E10", "E11", "E12", "X1", "X2", "X3", "X5", "X6", "X7", "X8",
		"G1", "G2", "G3", "G4", "G5", "G6", "N1", "N2", "N3", "N4", "N5", "S1",
		"C1", "C2", "C3", "C4", "C5"}
	all := All()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registry has %d experiments %v, want %d", len(all), ids, len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
	// Ordering: figures, then theorems (numeric), then extensions, then the
	// geometric battery.
	if all[0].ID != "F1" || all[1].ID != "F2" || all[2].ID != "E1" {
		t.Fatalf("ordering wrong: %s %s %s", all[0].ID, all[1].ID, all[2].ID)
	}
	if all[len(all)-1].ID != "C5" {
		t.Fatalf("last should be C5, got %s", all[len(all)-1].ID)
	}
	for _, e := range all {
		if e.Title == "" || e.PaperRef == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
		if e.Campaign.Points == nil || e.Campaign.Run == nil || e.Campaign.Render == nil {
			t.Fatalf("experiment %s has an incomplete campaign", e.ID)
		}
	}
}

// TestGridEnumeration pins the campaign-spec layer without running trials:
// every experiment's grid must enumerate at both scales with non-empty,
// unique point keys (the identity the shard and resume machinery match on),
// and the full grid must be at least as large as the reduced one.
func TestGridEnumeration(t *testing.T) {
	for _, e := range All() {
		counts := map[bool]int{}
		for _, full := range []bool{false, true} {
			cfg := Config{Full: full, Seed: 2009}
			pts := e.Campaign.Points(cfg)
			if len(pts) == 0 {
				t.Errorf("%s: empty grid (full=%v)", e.ID, full)
			}
			seen := map[string]bool{}
			for _, pt := range pts {
				if pt.Key == "" {
					t.Errorf("%s: point with empty key (full=%v)", e.ID, full)
				}
				if seen[pt.Key] {
					t.Errorf("%s: duplicate point key %q (full=%v)", e.ID, pt.Key, full)
				}
				seen[pt.Key] = true
			}
			counts[full] = len(pts)
		}
		if counts[true] < counts[false] {
			t.Errorf("%s: full grid (%d points) smaller than reduced (%d)", e.ID, counts[true], counts[false])
		}
	}
}

func TestRegistryHardening(t *testing.T) {
	if _, ok := ByID(""); ok {
		t.Fatal("ByID must reject the empty ID")
	}
	if _, ok := ByID("E999"); ok {
		t.Fatal("ByID invented an experiment")
	}
	// idLess must not panic on empty or unknown IDs, and must stay a strict
	// weak ordering (irreflexive) so sort.Slice is safe.
	if idLess("", "") || idLess("E1", "E1") {
		t.Fatal("idLess not irreflexive")
	}
	if !idLess("E1", "") || idLess("", "F1") {
		t.Fatal("empty IDs must sort last")
	}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("empty ID", func() { register(Experiment{Title: "nameless"}) })
	mustPanic("duplicate ID", func() { register(Experiment{ID: "E1", Campaign: e1Campaign()}) })
	mustPanic("incomplete campaign", func() { register(Experiment{ID: "ZZTest"}) })
}

func TestF1DistributionTable(t *testing.T) {
	tables := runByID(t, "F1")
	if !strings.Contains(tables[0].Note, "all paper inequalities hold") {
		t.Fatalf("F1 property check failed: %s", tables[0].Note)
	}
	// alpha advantage on deep stars must be large (the F1b table).
	tb := tables[1]
	adv := colIndex(t, tb, "advantage")
	last := len(tb.Rows) - 1
	if v := cellF(t, tb, last, adv); v < 4 {
		t.Fatalf("alpha deep-star advantage %v, want >= 4", v)
	}
}

func TestF2NetworkTable(t *testing.T) {
	tables := runByID(t, "F2")
	tb := tables[0]
	ecc := colIndex(t, tb, "source ecc")
	dcol := colIndex(t, tb, "D")
	for r := range tb.Rows {
		if cellF(t, tb, r, ecc) != cellF(t, tb, r, dcol) {
			t.Fatalf("row %d: eccentricity %v != D %v", r, tb.Rows[r][ecc], tb.Rows[r][dcol])
		}
	}
	// F2b: every distribution's star-cross sum <= ~1.44.
	tb2 := tables[1]
	sum := colIndex(t, tb2, "Σ_i")
	for r := range tb2.Rows {
		if v := cellF(t, tb2, r, sum); v > 1.6 {
			t.Fatalf("star-cross sum %v exceeds integral bound", v)
		}
	}
}

func TestE1Theorem21(t *testing.T) {
	tb := runByID(t, "E1")[0]
	succ := colIndex(t, tb, "success")
	maxTx := colIndex(t, tb, "max tx/node")
	perLog := colIndex(t, tb, "rounds/log2 n")
	for r := range tb.Rows {
		if v := cellF(t, tb, r, succ); v < 0.75 {
			t.Fatalf("row %d success %v", r, v)
		}
		if v := cellF(t, tb, r, maxTx); v > 1 {
			t.Fatalf("row %d max tx/node %v > 1", r, v)
		}
		if v := cellF(t, tb, r, perLog); v > 6 {
			t.Fatalf("row %d rounds/log2n = %v not logarithmic", r, v)
		}
	}
}

func TestE2GrowthNearD(t *testing.T) {
	tb := runByID(t, "E2")[0]
	ratio := colIndex(t, tb, "ratio/d")
	// First Phase-1 round must multiply the active set by ~d.
	if v := cellF(t, tb, 0, ratio); v < 0.25 || v > 2 {
		t.Fatalf("first-round growth ratio/d = %v", v)
	}
}

func TestE3Phase2Fraction(t *testing.T) {
	tb := runByID(t, "E3")[0]
	frac := colIndex(t, tb, "fraction")
	for r := range tb.Rows {
		if v := cellF(t, tb, r, frac); v < 0.1 || v > 1 {
			t.Fatalf("row %d phase-2 fraction %v outside [0.1, 1]", r, v)
		}
	}
}

func TestE4Phase3(t *testing.T) {
	tb := runByID(t, "E4")[0]
	succ := colIndex(t, tb, "success")
	for r := range tb.Rows {
		if v := cellF(t, tb, r, succ); v < 0.75 {
			t.Fatalf("row %d phase-3 success %v", r, v)
		}
	}
}

func TestE5DiameterFormula(t *testing.T) {
	tb := runByID(t, "E5")[0]
	pred := colIndex(t, tb, "predicted")
	meas := colIndex(t, tb, "measured")
	for r := range tb.Rows {
		p, m := cellF(t, tb, r, pred), cellF(t, tb, r, meas)
		if m < p-1 || m > p+1 {
			t.Fatalf("row %d: measured diameter %v vs predicted %v", r, m, p)
		}
	}
}

func TestE6GossipScaling(t *testing.T) {
	tables := runByID(t, "E6")
	tb := tables[0]
	succ := colIndex(t, tb, "success")
	txLog := colIndex(t, tb, "tx/node / log2 n")
	for r := range tb.Rows {
		if v := cellF(t, tb, r, succ); v < 0.75 {
			t.Fatalf("row %d gossip success %v", r, v)
		}
		if v := cellF(t, tb, r, txLog); v > 24 {
			t.Fatalf("row %d tx/node/log2n = %v not logarithmic", r, v)
		}
	}
	// E6b: Algorithm 2 must beat TDMA on rounds.
	tb2 := tables[1]
	rounds := colIndex(t, tb2, "rounds")
	if cellF(t, tb2, 0, rounds) >= cellF(t, tb2, 1, rounds) {
		t.Fatalf("algorithm2 rounds %v not below tdma %v",
			tb2.Rows[0][rounds], tb2.Rows[1][rounds])
	}
}

func TestE7HeadlineComparison(t *testing.T) {
	tb := runByID(t, "E7")[0]
	proto := colIndex(t, tb, "protocol")
	txn := colIndex(t, tb, "tx/node")
	succ := colIndex(t, tb, "success")
	topo := colIndex(t, tb, "topology")
	lam := colIndex(t, tb, "λ")
	// For every topology where lambda >= 2: CR energy must exceed
	// Algorithm 3 energy (the headline "who wins").
	byTopo := map[string]map[string]float64{}
	for r := range tb.Rows {
		if cellF(t, tb, r, succ) < 0.5 {
			t.Fatalf("row %d (%s/%s) mostly fails", r, tb.Rows[r][topo], tb.Rows[r][proto])
		}
		name := tb.Rows[r][topo]
		if byTopo[name] == nil {
			byTopo[name] = map[string]float64{}
		}
		byTopo[name][tb.Rows[r][proto]] = cellF(t, tb, r, txn)
		byTopo[name]["λ"] = cellF(t, tb, r, lam)
	}
	for name, m := range byTopo {
		if m["λ"] >= 2 && m["czumaj-rytter"] <= m["algorithm3"] {
			t.Fatalf("%s: CR tx/node %v not above algorithm3 %v (λ=%v)",
				name, m["czumaj-rytter"], m["algorithm3"], m["λ"])
		}
	}
}

func TestE8TradeoffMonotone(t *testing.T) {
	tb := runByID(t, "E8")[0]
	txn := colIndex(t, tb, "tx/node")
	first := cellF(t, tb, 0, txn)
	last := cellF(t, tb, len(tb.Rows)-1, txn)
	if last >= first {
		t.Fatalf("energy did not fall along λ sweep: first %v, last %v", first, last)
	}
}

func TestE9EnergyFloor(t *testing.T) {
	tb := runByID(t, "E9")[0]
	ratio := colIndex(t, tb, "energy/bound")
	for r := range tb.Rows {
		if v := cellF(t, tb, r, ratio); v < 0.8 {
			t.Fatalf("row %d: energy/bound %v below the Observation 4.3 floor", r, v)
		}
	}
}

func TestE10AlgorithmAtBound(t *testing.T) {
	tb := runByID(t, "E10")[0]
	proto := colIndex(t, tb, "protocol")
	ratio := colIndex(t, tb, "tx/bound")
	succ := colIndex(t, tb, "success")
	for r := range tb.Rows {
		if tb.Rows[r][proto] != "algorithm3" {
			continue
		}
		if v := cellF(t, tb, r, succ); v < 0.5 {
			t.Fatalf("algorithm3 row %d mostly fails on Fig.2 network", r)
		}
		if v := cellF(t, tb, r, ratio); v < 0.1 || v > 40 {
			t.Fatalf("algorithm3 tx/bound %v not within a constant of the bound", v)
		}
	}
}

func TestE11Corollary(t *testing.T) {
	tb := runByID(t, "E11")[0]
	norm := colIndex(t, tb, "÷ log²N")
	for r := range tb.Rows {
		if v := cellF(t, tb, r, norm); v < 0.05 || v > 40 {
			t.Fatalf("row %d: tx/node ÷ log²N = %v not Θ(1)", r, v)
		}
	}
}

func TestE12EnergyGap(t *testing.T) {
	tb := runByID(t, "E12")[0]
	proto := colIndex(t, tb, "protocol")
	maxTx := colIndex(t, tb, "max tx/node")
	total := colIndex(t, tb, "total tx")
	for r := 0; r+1 < len(tb.Rows); r += 2 {
		if tb.Rows[r][proto] != "algorithm1" || tb.Rows[r+1][proto] != "elsasser-gasieniec" {
			t.Fatalf("unexpected row layout at %d", r)
		}
		if v := cellF(t, tb, r, maxTx); v > 1 {
			t.Fatalf("algorithm1 max tx/node %v", v)
		}
		if cellF(t, tb, r+1, total) <= cellF(t, tb, r, total) {
			t.Fatalf("EG total tx %v not above algorithm1 %v",
				tb.Rows[r+1][total], tb.Rows[r][total])
		}
	}
}

func TestX1Geometric(t *testing.T) {
	tb := runByID(t, "X1")[0]
	proto := colIndex(t, tb, "protocol")
	frac := colIndex(t, tb, "informed fraction")
	var a1, a3 float64 = -1, -1
	for r := range tb.Rows {
		v := cellF(t, tb, r, frac)
		name := tb.Rows[r][proto]
		if strings.HasPrefix(name, "algorithm3") {
			if v < 0.9 {
				t.Fatalf("algorithm3 should stay robust on RGG, informed %v", v)
			}
			if a3 < 0 {
				a3 = v
			}
		}
		if strings.HasPrefix(name, "algorithm1") && a1 < 0 {
			a1 = v
		}
	}
	// The experiment's story: Algorithm 1's G(n,p) analysis does not carry
	// over to geometric graphs — its coverage must be visibly worse than the
	// diameter-aware Algorithm 3.
	if a1 < 0 || a3 < 0 {
		t.Fatal("missing protocol rows")
	}
	if a1 >= a3 {
		t.Fatalf("expected algorithm1 (%v) to underperform algorithm3 (%v) on RGG", a1, a3)
	}
}

func TestX2PhaseTwoMatters(t *testing.T) {
	tb := runByID(t, "X2")[0]
	variant := colIndex(t, tb, "variant")
	frac := colIndex(t, tb, "informed fraction")
	for r := 0; r+1 < len(tb.Rows); r += 2 {
		if tb.Rows[r][variant] != "full algorithm" {
			t.Fatalf("row layout")
		}
		full, ablated := cellF(t, tb, r, frac), cellF(t, tb, r+1, frac)
		if ablated >= full {
			t.Fatalf("removing phase 2 did not hurt: full %v vs ablated %v", full, ablated)
		}
	}
}

func TestX3WindowAblation(t *testing.T) {
	tb := runByID(t, "X3")[0]
	txn := colIndex(t, tb, "tx/node")
	succ := colIndex(t, tb, "success")
	// Energy grows with beta.
	if cellF(t, tb, len(tb.Rows)-1, txn) <= cellF(t, tb, 0, txn) {
		t.Fatal("tx/node did not grow with window")
	}
	// The largest window must succeed.
	if cellF(t, tb, len(tb.Rows)-1, succ) < 0.75 {
		t.Fatal("largest window fails")
	}
}

func TestX5Adversity(t *testing.T) {
	tables := runByID(t, "X5")
	// X5a: algorithm3 must stay robust at every loss level; algorithm1 must
	// degrade at high loss (its success at loss=0.5 below its loss=0 value).
	tb := tables[0]
	proto := colIndex(t, tb, "protocol")
	succ := colIndex(t, tb, "success")
	loss := colIndex(t, tb, "loss prob")
	var a1Clean, a1Lossy float64 = -1, -1
	for r := range tb.Rows {
		isA1 := strings.HasPrefix(tb.Rows[r][proto], "algorithm1")
		s := cellF(t, tb, r, succ)
		l := cellF(t, tb, r, loss)
		if !isA1 && s < 0.75 {
			t.Fatalf("algorithm3 not robust at loss=%v: success %v", l, s)
		}
		if isA1 && l == 0 {
			a1Clean = s
		}
		if isA1 && l == 0.5 {
			a1Lossy = s
		}
	}
	if a1Lossy >= a1Clean {
		t.Fatalf("algorithm1 should degrade under loss: clean %v vs lossy %v", a1Clean, a1Lossy)
	}
	// X5b: jamming stretches rounds monotonically-ish but success holds.
	tb2 := tables[1]
	succ2 := colIndex(t, tb2, "success")
	rounds2 := colIndex(t, tb2, "rounds")
	for r := range tb2.Rows {
		if v := cellF(t, tb2, r, succ2); v < 0.75 {
			t.Fatalf("jam row %d success %v", r, v)
		}
	}
	if cellF(t, tb2, len(tb2.Rows)-1, rounds2) <= cellF(t, tb2, 0, rounds2) {
		t.Fatal("heavy jamming did not slow the broadcast")
	}
}

func TestX6Mobility(t *testing.T) {
	tb := runByID(t, "X6")[0]
	scen := colIndex(t, tb, "scenario")
	frac := colIndex(t, tb, "informed fraction")
	succ := colIndex(t, tb, "success")
	var staticSub, mobileSub float64 = -1, -1
	for r := range tb.Rows {
		name := tb.Rows[r][scen]
		switch {
		case strings.HasPrefix(name, "static, subcritical"):
			staticSub = cellF(t, tb, r, frac)
		case strings.HasPrefix(name, "mobile"):
			mobileSub = cellF(t, tb, r, frac)
			if v := cellF(t, tb, r, succ); v < 0.75 {
				t.Fatalf("mobile scenario success %v", v)
			}
		}
	}
	if staticSub < 0 || mobileSub < 0 {
		t.Fatal("missing scenarios")
	}
	if mobileSub <= staticSub+0.3 {
		t.Fatalf("mobility should rescue coverage: static %v vs mobile %v", staticSub, mobileSub)
	}
}

func TestX7Battery(t *testing.T) {
	tables := runByID(t, "X7")
	if len(tables) != 3 {
		t.Fatalf("X7 tables: %d", len(tables))
	}
	// X7b: algorithm3 lifetime must exceed CR's.
	tb := tables[1]
	proto := colIndex(t, tb, "protocol")
	camp := colIndex(t, tb, "campaigns")
	var a3, cr float64 = -1, -1
	for r := range tb.Rows {
		switch tb.Rows[r][proto] {
		case "algorithm3":
			a3 = cellF(t, tb, r, camp)
		case "czumaj-rytter":
			cr = cellF(t, tb, r, camp)
		}
	}
	if a3 <= cr {
		t.Fatalf("algorithm3 lifetime %v not above CR %v", a3, cr)
	}
	// X7c: Algorithm 1 succeeds with unit batteries.
	tb3 := tables[2]
	succ := colIndex(t, tb3, "success")
	if v := cellF(t, tb3, 0, succ); v < 0.75 {
		t.Fatalf("Algorithm 1 with B=1 success %v", v)
	}
	maxSpent := colIndex(t, tb3, "max spent")
	if v := cellF(t, tb3, len(tb3.Rows)-1, maxSpent); v > 1 {
		t.Fatalf("Algorithm 1 spent %v > 1", v)
	}
}

func TestX8Heterogeneous(t *testing.T) {
	tb := runByID(t, "X8")[0]
	proto := colIndex(t, tb, "protocol")
	succ := colIndex(t, tb, "success")
	spread := colIndex(t, tb, "spread")
	// Algorithm 3 robust at every spread; Algorithm 1 weaker at the widest
	// spread than at spread 1.
	var a1Uniform, a1Wide float64 = -1, -1
	for r := range tb.Rows {
		isA1 := strings.HasPrefix(tb.Rows[r][proto], "algorithm1")
		s := cellF(t, tb, r, succ)
		if !isA1 && s < 0.75 {
			t.Fatalf("algorithm3 fragile at spread %s: %v", tb.Rows[r][spread], s)
		}
		if isA1 && tb.Rows[r][spread] == "1x" {
			a1Uniform = s
		}
		if isA1 && tb.Rows[r][spread] == "64x" {
			a1Wide = s
		}
	}
	if a1Wide > a1Uniform+0.15 { // tolerate one trial of noise at reduced scale
		t.Fatalf("algorithm1 should not improve under heterogeneity: 1x=%v 64x=%v", a1Uniform, a1Wide)
	}
}

// TestPlanForCapsTrialWorkers pins the trial-worker count every fan-out
// gets: min(trials, round(measured cores), Workers when > 0), at least 1.
// Workers: 1 is serial at every core count — the -workers 1 north-star
// figure must not fan out on a many-core runner.
func TestPlanForCapsTrialWorkers(t *testing.T) {
	saved := sweep.EffectiveCores()
	defer sweep.SetEffectiveCores(saved)

	for _, cores := range []float64{0.5, 1, 2, 16, 64} {
		rounded := int(cores + 0.5)
		for _, n := range []int{1, 8, 30} {
			for _, workers := range []int{0, 1, 4} {
				sweep.SetEffectiveCores(cores)
				want := min(n, rounded)
				if workers > 0 {
					want = min(want, workers)
				}
				want = max(want, 1)
				got := planFor(Config{Workers: workers}, n)
				if got != want {
					t.Errorf("cores %g, trials %d, Workers %d: planFor = %d, want %d", cores, n, workers, got, want)
				}
				if workers == 1 && got != 1 {
					t.Errorf("cores %g, trials %d: Workers 1 gives %d trial workers", cores, n, got)
				}
			}
		}
	}
}
