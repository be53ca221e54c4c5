package sweep

import (
	"runtime"
	"sync/atomic"
)

// effectiveCoresMilli holds the measured usable parallelism ×1000 (atomic so
// campaign wiring and concurrent sweeps don't race). Zero means unmeasured:
// PlanPoint falls back to GOMAXPROCS, the pre-calibration behaviour.
var effectiveCoresMilli atomic.Int64

// SetEffectiveCores installs the calibration probe's measured core count
// (radio.Calibrate().EffectiveCores) as the cap PlanPoint applies.
// Values < 1 are clamped to 1.
func SetEffectiveCores(c float64) {
	if c < 1 {
		c = 1
	}
	effectiveCoresMilli.Store(int64(c * 1000))
}

// EffectiveCores returns the installed measurement, or float64(GOMAXPROCS)
// when no probe has been wired.
func EffectiveCores() float64 {
	if m := effectiveCoresMilli.Load(); m > 0 {
		return float64(m) / 1000
	}
	return float64(runtime.GOMAXPROCS(0))
}

// PlanPoint returns the trial-worker count for a point of `trials`
// independent repetitions: min(trials, round(measured cores)), at least 1.
// Independent trials share nothing, so they are the one parallelism axis;
// each trial's rounds run on one core.
func PlanPoint(trials int) int {
	return max(1, min(trials, int(EffectiveCores()+0.5)))
}
