package probe

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tlswire"
)

// Options tunes the engine. The zero value selects production defaults;
// negative MaxRetries or RetryBudget disable the feature explicitly.
type Options struct {
	// Workers bounds probe concurrency (<= 0: runtime.GOMAXPROCS).
	Workers int
	// AttemptTimeout is the per-attempt context deadline (<= 0: 5s).
	AttemptTimeout time.Duration
	// MaxRetries caps retries per (SNI, vantage) job after the first
	// attempt (0: default 3; < 0: no retries).
	MaxRetries int
	// RetryBudget caps total retries per host across all vantages
	// (0: default 12; < 0: no budget-funded retries).
	RetryBudget int
	// BackoffBase and BackoffMax bound the exponential full-jitter
	// backoff: attempt n sleeps uniform[0, min(BackoffMax, BackoffBase*2^(n-1))]
	// (defaults 50ms and 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold opens a host's breaker after that many consecutive
	// transient failures (<= 0: default 5).
	BreakerThreshold int
	// BreakerCooldown is the open→half-open wait (<= 0: default 30s).
	BreakerCooldown time.Duration
	// Seed drives the jitter; a fixed seed reproduces backoff traces.
	Seed int64
	// Clock is the time source (nil: wall clock). Tests inject FakeClock
	// so no retry path ever sleeps for real.
	Clock Clock
	// Metrics optionally receives engine counters (attempts, retries,
	// breaker activity, timeouts, outcome classes — attempts and
	// handshake-latency histograms are labeled per vantage). nil disables
	// instrumentation at zero cost: the engine then holds nil handles,
	// whose methods no-op without allocating.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.AttemptTimeout <= 0 {
		o.AttemptTimeout = 5 * time.Second
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 3
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	switch {
	case o.RetryBudget == 0:
		o.RetryBudget = 12
	case o.RetryBudget < 0:
		o.RetryBudget = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 50 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 30 * time.Second
	}
	if o.Clock == nil {
		o.Clock = realClock{}
	}
	return o
}

// AttemptRecord is one attempt in a job's retry trace.
type AttemptRecord struct {
	// Attempt number, 1-based.
	Attempt int
	// Class of the attempt's outcome.
	Class Class
	// Err is the attempt error text ("" on success).
	Err string
	// Backoff slept after this attempt (0 on the final attempt).
	Backoff time.Duration
}

// Result is the final outcome of one (SNI, vantage) job.
type Result struct {
	SNI     string
	Vantage simnet.Vantage
	// Probe names the battery probe that produced this result ("" for a
	// plain Run sweep).
	Probe string
	// Response carries the chain and negotiation evidence on success.
	Response Response
	Err      error
	// Attempts counts loop iterations, including breaker fast-fails.
	Attempts int
	// Class of the final outcome (ClassNone on success).
	Class Class
	// Trace records every attempt in order.
	Trace []AttemptRecord
}

// Stats aggregates one Run for the probe summary.
type Stats struct {
	// Jobs is the number of (SNI, vantage) pairs.
	Jobs int
	// Attempts counts actual probe calls (breaker fast-fails excluded).
	Attempts int
	// Retries counts attempts after the first, across all jobs.
	Retries int
	// Successes and RecoveredAfterRetry (successes needing > 1 attempt).
	Successes           int
	RecoveredAfterRetry int
	// Final failures by class.
	TransientFailures int
	TerminalFailures  int
	Aborted           int
	// Breaker activity.
	BreakerOpens     int
	BreakerFastFails int
	// BudgetExhausted counts jobs that gave up because the host's retry
	// budget ran dry.
	BudgetExhausted int
}

// instruments holds the engine's pre-resolved metric handles. The zero
// value (nil maps, nil counters) is the uninstrumented engine: every
// method on a nil handle no-ops, and a lookup in a nil map yields a nil
// handle, so the hot path never branches on "metrics enabled".
type instruments struct {
	attempts  map[simnet.Vantage]*obs.Counter
	latency   map[simnet.Vantage]*obs.Histogram
	retries   *obs.Counter
	timeouts  *obs.Counter
	successes *obs.Counter
	recovered *obs.Counter
	transient *obs.Counter
	terminal  *obs.Counter
	aborted   *obs.Counter
	opens     *obs.Counter
	fastFails *obs.Counter
	budgetOut *obs.Counter
}

// newInstruments resolves every engine series once at construction.
func newInstruments(m *obs.Registry) instruments {
	if m == nil {
		return instruments{}
	}
	in := instruments{
		attempts:  map[simnet.Vantage]*obs.Counter{},
		latency:   map[simnet.Vantage]*obs.Histogram{},
		retries:   m.Counter("probe_retries_total"),
		timeouts:  m.Counter("probe_timeouts_total"),
		successes: m.Counter("probe_successes_total"),
		recovered: m.Counter("probe_recovered_after_retry_total"),
		transient: m.Counter("probe_failures_total", obs.L("class", "transient")),
		terminal:  m.Counter("probe_failures_total", obs.L("class", "terminal")),
		aborted:   m.Counter("probe_failures_total", obs.L("class", "aborted")),
		opens:     m.Counter("probe_breaker_opens_total"),
		fastFails: m.Counter("probe_breaker_fast_fails_total"),
		budgetOut: m.Counter("probe_budget_exhausted_total"),
	}
	for _, v := range simnet.Vantages() {
		in.attempts[v] = m.Counter("probe_attempts_total", obs.L("vantage", string(v)))
		in.latency[v] = m.Histogram("probe_handshake_seconds", obs.DurationBuckets, obs.L("vantage", string(v)))
	}
	return in
}

// Engine drives a Prober with retries, backoff, budgets, and breakers.
// State (breakers, budgets, stats) persists across Run calls so repeated
// sweeps against the same fleet keep warm breaker state.
type Engine struct {
	prober Prober
	opts   Options
	inst   instruments

	mu       sync.Mutex
	breakers map[string]*Breaker
	budgets  map[string]int
	stats    Stats
}

// New builds an engine over the prober with normalized options.
func New(p Prober, opts Options) *Engine {
	return &Engine{
		prober:   p,
		opts:     opts.withDefaults(),
		inst:     newInstruments(opts.Metrics),
		breakers: map[string]*Breaker{},
		budgets:  map[string]int{},
	}
}

// Run probes every SNI from every vantage and returns results in
// deterministic order: SNIs sorted and deduplicated, vantages in the
// given order, results[i*len(vantages)+j] = (snis[i], vantages[j]).
// Cancelling ctx stops the run gracefully: in-flight attempts observe the
// cancellation, queued jobs return ClassAborted, and every job still gets
// a Result.
func (e *Engine) Run(ctx context.Context, snis []string, vantages []simnet.Vantage) ([]Result, Stats) {
	ordered := append([]string(nil), snis...)
	sort.Strings(ordered)
	ordered = dedup(ordered)

	type job struct {
		sni     string
		vantage simnet.Vantage
	}
	jobs := make([]job, 0, len(ordered)*len(vantages))
	for _, sni := range ordered {
		for _, v := range vantages {
			jobs = append(jobs, job{sni, v})
		}
	}
	results := make([]Result, len(jobs))

	idx := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < e.opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sni, v := jobs[i].sni, jobs[i].vantage
				results[i] = e.runJob(ctx, sni, v, "", func(actx context.Context) (Response, error) {
					return e.prober.Probe(actx, sni, v)
				})
			}
		}()
	}
	// Feed every index: once ctx is cancelled, runJob returns aborted
	// results immediately, so the queue drains without wedging.
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, e.StatsSnapshot()
}

// BatteryProbe is one crafted hello of a fingerprinting battery. Hello
// crafts the wire message per target (typically a fixed template with
// the SNI patched in); it must be deterministic.
type BatteryProbe struct {
	// Name labels the probe in results and classification vectors.
	Name string
	// Hello crafts the ClientHello for the target.
	Hello func(sni string) *tlswire.ClientHello
}

// RunBattery sends every battery probe to every SNI from one vantage,
// through the same retry/backoff/budget/breaker machinery as Run: a
// host's retry budget and breaker are shared across its battery probes,
// so a flapping target cannot consume unbounded attempts. Results are
// deterministic: SNIs sorted and deduplicated, probes in battery order,
// results[i*len(battery)+j] = (snis[i], battery[j]). The prober must
// implement HelloProber.
//
// Work is dispatched per host: one worker sends a host's whole battery,
// in battery order. The host's retry budget and breaker, and any
// per-host fault state in the prober, are keyed without the probe name;
// if one host's probes ran concurrently, results would depend on
// scheduling.
func (e *Engine) RunBattery(ctx context.Context, snis []string, vantage simnet.Vantage, battery []BatteryProbe) ([]Result, Stats, error) {
	hp, ok := e.prober.(HelloProber)
	if !ok {
		return nil, e.StatsSnapshot(), fmt.Errorf("probe: %T cannot send crafted hellos", e.prober)
	}
	ordered := append([]string(nil), snis...)
	sort.Strings(ordered)
	ordered = dedup(ordered)
	results := make([]Result, len(ordered)*len(battery))

	idx := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < e.opts.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				sni := ordered[i]
				for j, bp := range battery {
					hello := bp.Hello(sni)
					results[i*len(battery)+j] = e.runJob(ctx, sni, vantage, bp.Name, func(actx context.Context) (Response, error) {
						return hp.ProbeHello(actx, sni, vantage, hello)
					})
				}
			}
		}()
	}
	for i := range ordered {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, e.StatsSnapshot(), nil
}

// runJob drives one job through the retry loop. probeName is "" for
// plain sweeps and the battery probe's name for crafted hellos; attempt
// performs one probe under the per-attempt deadline.
func (e *Engine) runJob(ctx context.Context, sni string, vantage simnet.Vantage, probeName string, probeOnce func(context.Context) (Response, error)) Result {
	res := Result{SNI: sni, Vantage: vantage, Probe: probeName}
	e.bump(func(s *Stats) { s.Jobs++ })
	br := e.breakerFor(sni)

	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			res.Err, res.Class = err, ClassAborted
			res.Attempts = attempt - 1
			e.bump(func(s *Stats) { s.Aborted++ })
			e.inst.aborted.Inc()
			return res
		}
		res.Attempts = attempt

		var resp Response
		var err error
		if !br.Allow(e.opts.Clock.Now()) {
			err = fmt.Errorf("%w: %s", ErrCircuitOpen, sni)
			e.bump(func(s *Stats) { s.BreakerFastFails++ })
			e.inst.fastFails.Inc()
		} else {
			attemptCtx, cancel := context.WithTimeout(ctx, e.opts.AttemptTimeout)
			start := e.opts.Clock.Now()
			resp, err = probeOnce(attemptCtx)
			e.inst.latency[vantage].Observe(e.opts.Clock.Now().Sub(start).Seconds())
			cancel()
			e.bump(func(s *Stats) { s.Attempts++ })
			e.inst.attempts[vantage].Inc()
			if errors.Is(err, context.DeadlineExceeded) {
				e.inst.timeouts.Inc()
			}
		}

		class := Classify(err)
		rec := AttemptRecord{Attempt: attempt, Class: class}
		if err != nil {
			rec.Err = err.Error()
		}

		switch class {
		case ClassNone:
			br.Success()
			res.Response, res.Class = resp, ClassNone
			res.Trace = append(res.Trace, rec)
			e.bump(func(s *Stats) {
				s.Successes++
				if attempt > 1 {
					s.RecoveredAfterRetry++
				}
			})
			e.inst.successes.Inc()
			if attempt > 1 {
				e.inst.recovered.Inc()
			}
			return res
		case ClassTerminal:
			res.Err, res.Class = err, ClassTerminal
			res.Trace = append(res.Trace, rec)
			e.bump(func(s *Stats) { s.TerminalFailures++ })
			e.inst.terminal.Inc()
			return res
		case ClassAborted:
			res.Err, res.Class = err, ClassAborted
			res.Trace = append(res.Trace, rec)
			e.bump(func(s *Stats) { s.Aborted++ })
			e.inst.aborted.Inc()
			return res
		}

		// Transient: feed the breaker (real probe failures only — a
		// fast-fail is the breaker talking, not the host), then decide
		// whether a retry is allowed.
		fastFail := errors.Is(err, ErrCircuitOpen)
		if !fastFail {
			if br.Failure(e.opts.Clock.Now()) {
				e.bump(func(s *Stats) { s.BreakerOpens++ })
				e.inst.opens.Inc()
			}
		}
		if attempt-1 >= e.opts.MaxRetries {
			res.Err, res.Class = err, ClassTransient
			res.Trace = append(res.Trace, rec)
			e.bump(func(s *Stats) { s.TransientFailures++ })
			e.inst.transient.Inc()
			return res
		}
		// Fast-fails retry for free: the breaker already suppressed the
		// probe, and backoff gives its cooldown room to elapse.
		if !fastFail && !e.takeBudget(sni) {
			res.Err, res.Class = err, ClassTransient
			res.Trace = append(res.Trace, rec)
			e.bump(func(s *Stats) { s.TransientFailures++; s.BudgetExhausted++ })
			e.inst.transient.Inc()
			e.inst.budgetOut.Inc()
			return res
		}
		rec.Backoff = e.backoff(sni, vantage, probeName, attempt)
		res.Trace = append(res.Trace, rec)
		e.bump(func(s *Stats) { s.Retries++ })
		e.inst.retries.Inc()
		if err := e.opts.Clock.Sleep(ctx, rec.Backoff); err != nil {
			res.Err, res.Class = err, ClassAborted
			e.bump(func(s *Stats) { s.Aborted++ })
			e.inst.aborted.Inc()
			return res
		}
	}
}

// backoff computes the full-jitter backoff after the given attempt:
// uniform in [0, min(BackoffMax, BackoffBase*2^(attempt-1))], derived
// deterministically from the seed. Battery probes mix their probe name
// into the jitter coordinates so two probes against the same host do
// not share a backoff trace; plain sweeps keep the original key and
// therefore the original traces.
func (e *Engine) backoff(sni string, vantage simnet.Vantage, probeName string, attempt int) time.Duration {
	ceil := e.opts.BackoffMax
	if shift := attempt - 1; shift < 62 {
		if c := e.opts.BackoffBase << shift; c > 0 && c < ceil {
			ceil = c
		}
	}
	key := string(vantage)
	if probeName != "" {
		key += "|" + probeName
	}
	frac := HashFrac(e.opts.Seed, "backoff", sni, key, attempt)
	return time.Duration(frac * float64(ceil))
}

func (e *Engine) breakerFor(sni string) *Breaker {
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.breakers[sni]
	if b == nil {
		b = NewBreaker(e.opts.BreakerThreshold, e.opts.BreakerCooldown)
		e.breakers[sni] = b
	}
	return b
}

// takeBudget consumes one retry from the host's budget, reporting whether
// any remained.
func (e *Engine) takeBudget(sni string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	rem, seen := e.budgets[sni]
	if !seen {
		rem = e.opts.RetryBudget
	}
	if rem <= 0 {
		e.budgets[sni] = 0
		return false
	}
	e.budgets[sni] = rem - 1
	return true
}

// BreakerStateOf reports a host's breaker state (BreakerClosed when the
// host has never been probed).
func (e *Engine) BreakerStateOf(sni string) BreakerState {
	e.mu.Lock()
	b := e.breakers[sni]
	e.mu.Unlock()
	if b == nil {
		return BreakerClosed
	}
	return b.State()
}

// StatsSnapshot returns a copy of the cumulative stats.
func (e *Engine) StatsSnapshot() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func (e *Engine) bump(f func(*Stats)) {
	e.mu.Lock()
	f(&e.stats)
	e.mu.Unlock()
}

func dedup(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}
