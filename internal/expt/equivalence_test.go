package expt

// The engine-configuration invariance test of the batch fast path and the
// delivery kernels: every figure and theorem experiment (F1–F2, E1–E12 at
// reduced scale) must produce byte-identical tables for a fixed seed
// whichever decision path (batch or scalar) and delivery kernel (serial or
// receiver-sharded parallel) the engine uses. The X experiments are
// excluded only because some report wall-clock columns.

import (
	"testing"

	"repro/internal/radio"
)

// N2 rides along: its tables carry per-node energy columns, so invariance
// here also pins the energy accounting across engine configurations at the
// experiment level (the radio package holds the per-node bit-identity test).
// C2 and C4 extend the pin to the channel layer: hashed per-edge loss /
// per-receiver fade draws and duty-cycled listener accounting must also be
// kernel- and skip-independent.
var equivalenceIDs = []string{
	"F1", "F2", "E1", "E2", "E3", "E4", "E5", "E6",
	"E7", "E8", "E9", "E10", "E11", "E12", "N2", "C2", "C4",
}

// renderExperiments runs the given experiments at reduced scale and returns
// one markdown blob per id.
func renderExperiments(t *testing.T, ids []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(ids))
	c := Config{Full: false, Seed: 777, Workers: 0}
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		blob := ""
		for _, tb := range e.Run(c) {
			blob += tb.Markdown() + "\n"
		}
		out[id] = blob
	}
	return out
}

func TestExperimentTablesInvariantUnderEngineConfiguration(t *testing.T) {
	defer radio.SetEngineOverrides(radio.EngineOverrides{})

	radio.SetEngineOverrides(radio.EngineOverrides{})
	base := renderExperiments(t, equivalenceIDs)

	// Every decision-path, delivery-kernel and skip forcing must reproduce
	// the default tables byte for byte (no experiment in the battery renders
	// collision counts, so even the pull kernel's uninformed-side counting
	// is invisible here).
	forcings := []struct {
		name string
		o    radio.EngineOverrides
	}{
		{"scalar decisions", radio.EngineOverrides{ScalarDecisions: true}},
		{"push kernel", radio.EngineOverrides{Kernel: radio.KernelPush}},
		{"pull kernel", radio.EngineOverrides{Kernel: radio.KernelPull}},
		{"dense kernel", radio.EngineOverrides{Kernel: radio.KernelDense}},
		{"skip disabled", radio.EngineOverrides{DisableSkip: true}},
		{"scalar+pull+noskip", radio.EngineOverrides{
			ScalarDecisions: true, Kernel: radio.KernelPull, DisableSkip: true}},
	}
	for _, f := range forcings {
		radio.SetEngineOverrides(f.o)
		alt := renderExperiments(t, equivalenceIDs)
		for _, id := range equivalenceIDs {
			if base[id] != alt[id] {
				t.Errorf("%s: tables differ under forcing %q", id, f.name)
			}
		}
	}
	radio.SetEngineOverrides(radio.EngineOverrides{})
}

// TestSweepScratchDeterminism pins the other half of the trial-loop
// contract: per-worker scratch reuse must not leak state between trials, so
// serial (workers=1) and parallel sweeps stay bit-identical. E9 covers the
// loops routed through runSweep from a scratch-free fan-out.
func TestSweepScratchDeterminism(t *testing.T) {
	for _, id := range []string{"E1", "E9"} {
		run := func(workers int) map[string]string {
			c := Config{Full: false, Seed: 31337, Workers: workers}
			e, _ := ByID(id)
			out := map[string]string{}
			for _, tb := range e.Run(c) {
				out[tb.Title] = tb.Markdown()
			}
			return out
		}
		serial := run(1)
		parallel := run(4)
		if len(serial) == 0 || len(serial) != len(parallel) {
			t.Fatalf("%s: %d tables at workers=1, %d at workers=4", id, len(serial), len(parallel))
		}
		for k, v := range serial {
			if parallel[k] != v {
				t.Fatalf("%s table %q differs between workers=1 and workers=4", id, k)
			}
		}
	}
}
