package obs

import "time"

// A Stopwatch measures one wall-clock interval for metrics. It exists
// so instrumentation outside this package never reads the wall clock
// directly: the noclock analyzer (internal/lint) reserves
// time.Now/time.Since to internal/obs and the probe engine's injected
// Clock, which is what keeps seeded pipeline output independent of
// when the run happened. Durations observed through a Stopwatch feed
// histograms only — never report content.
type Stopwatch struct{ start time.Time }

// NewStopwatch starts timing now.
func NewStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Seconds returns the wall-clock seconds elapsed since the stopwatch
// started.
func (s Stopwatch) Seconds() float64 { return time.Since(s.start).Seconds() }
