package radio

import "testing"

// TestMeasureEffectiveCoresBounds runs the concurrent spin probe (under
// -race this is the check that its goroutines do not share a write target)
// and pins its clamp: the measured parallelism lies in [1, p].
func TestMeasureEffectiveCoresBounds(t *testing.T) {
	if got := measureEffectiveCores(1); got != 1 {
		t.Fatalf("measureEffectiveCores(1) = %v, want 1", got)
	}
	if got := measureEffectiveCores(2); got < 1 || got > 2 {
		t.Fatalf("measureEffectiveCores(2) = %v, want within [1, 2]", got)
	}
}
