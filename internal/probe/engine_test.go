package probe

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/simnet"
)

var probeEpoch = time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC)

// scriptedProber pops a scripted error per attempt; an exhausted (or
// absent) script means success.
type scriptedProber struct {
	mu     sync.Mutex
	script map[string][]error
	calls  map[string]int
}

func newScriptedProber() *scriptedProber {
	return &scriptedProber{script: map[string][]error{}, calls: map[string]int{}}
}

func key(sni string, v simnet.Vantage) string { return sni + "|" + string(v) }

func (p *scriptedProber) set(sni string, v simnet.Vantage, errs ...error) {
	p.script[key(sni, v)] = errs
}

func (p *scriptedProber) callCount(sni string, v simnet.Vantage) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls[key(sni, v)]
}

func (p *scriptedProber) Probe(ctx context.Context, sni string, v simnet.Vantage) (Response, error) {
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k := key(sni, v)
	p.calls[k]++
	if errs := p.script[k]; len(errs) > 0 {
		err := errs[0]
		p.script[k] = errs[1:]
		if err != nil {
			return Response{}, err
		}
	}
	return Response{}, nil
}

func testEngine(p Prober, opts Options) (*Engine, *FakeClock) {
	clock := NewFakeClock(probeEpoch)
	opts.Clock = clock
	return New(p, opts), clock
}

func TestTransientRetriedThenSuccess(t *testing.T) {
	p := newScriptedProber()
	p.set("api.roku.com", simnet.VantageNewYork, simnet.ErrConnReset, simnet.ErrStalled, nil)
	eng, clock := testEngine(p, Options{Workers: 1, Seed: 7})

	results, stats := eng.Run(context.Background(), []string{"api.roku.com"}, []simnet.Vantage{simnet.VantageNewYork})
	r := results[0]
	if r.Err != nil || r.Class != ClassNone {
		t.Fatalf("want recovery, got class=%v err=%v", r.Class, r.Err)
	}
	if r.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", r.Attempts)
	}
	wantClasses := []Class{ClassTransient, ClassTransient, ClassNone}
	if len(r.Trace) != len(wantClasses) {
		t.Fatalf("trace length %d, want %d", len(r.Trace), len(wantClasses))
	}
	for i, rec := range r.Trace {
		if rec.Class != wantClasses[i] {
			t.Errorf("trace[%d].Class = %v, want %v", i, rec.Class, wantClasses[i])
		}
	}
	if stats.Retries != 2 || stats.RecoveredAfterRetry != 1 || stats.Successes != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// Both backoffs ran on the virtual clock, within the jitter ceiling.
	sleeps := clock.Sleeps()
	if len(sleeps) != 2 {
		t.Fatalf("recorded %d sleeps, want 2", len(sleeps))
	}
	for i, d := range sleeps {
		ceil := 50 * time.Millisecond << i
		if d < 0 || d > ceil {
			t.Errorf("backoff %d = %v outside [0, %v]", i, d, ceil)
		}
	}
}

func TestTerminalNotRetried(t *testing.T) {
	p := newScriptedProber()
	p.set("gone.example.com", simnet.VantageNewYork,
		fmt.Errorf("%w: gone.example.com", simnet.ErrUnreachable),
		nil) // a second attempt would succeed — the engine must not take it
	eng, clock := testEngine(p, Options{Workers: 1})

	results, stats := eng.Run(context.Background(), []string{"gone.example.com"}, []simnet.Vantage{simnet.VantageNewYork})
	r := results[0]
	if r.Class != ClassTerminal || !errors.Is(r.Err, simnet.ErrUnreachable) {
		t.Fatalf("want terminal unreachable, got class=%v err=%v", r.Class, r.Err)
	}
	if r.Attempts != 1 || p.callCount("gone.example.com", simnet.VantageNewYork) != 1 {
		t.Fatalf("terminal failure retried: attempts=%d calls=%d", r.Attempts, p.callCount("gone.example.com", simnet.VantageNewYork))
	}
	if stats.Retries != 0 || stats.TerminalFailures != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(clock.Sleeps()) != 0 {
		t.Fatalf("terminal failure slept: %v", clock.Sleeps())
	}
}

func TestMaxRetriesExhausted(t *testing.T) {
	p := newScriptedProber()
	p.set("flaky.example.com", simnet.VantageNewYork,
		simnet.ErrConnReset, simnet.ErrConnReset, simnet.ErrConnReset, simnet.ErrConnReset, simnet.ErrConnReset)
	eng, _ := testEngine(p, Options{Workers: 1, MaxRetries: 2})

	results, stats := eng.Run(context.Background(), []string{"flaky.example.com"}, []simnet.Vantage{simnet.VantageNewYork})
	r := results[0]
	if r.Class != ClassTransient || !errors.Is(r.Err, simnet.ErrConnReset) {
		t.Fatalf("want final transient, got class=%v err=%v", r.Class, r.Err)
	}
	if r.Attempts != 3 { // 1 initial + 2 retries
		t.Fatalf("attempts = %d, want 3", r.Attempts)
	}
	if stats.TransientFailures != 1 || stats.Retries != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRetryBudgetSharedAcrossVantages(t *testing.T) {
	// One host probed from three vantages, every attempt failing
	// transiently: the per-host budget of 2 caps total retries across the
	// vantages at 2, no matter that MaxRetries alone would allow 9.
	p := newScriptedProber()
	fail := make([]error, 10)
	for i := range fail {
		fail[i] = simnet.ErrConnReset
	}
	for _, v := range simnet.Vantages() {
		p.set("busy.example.com", v, fail...)
	}
	eng, _ := testEngine(p, Options{Workers: 1, MaxRetries: 3, RetryBudget: 2})

	_, stats := eng.Run(context.Background(), []string{"busy.example.com"}, simnet.Vantages())
	if stats.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (budget)", stats.Retries)
	}
	if stats.BudgetExhausted == 0 {
		t.Fatal("budget exhaustion not recorded")
	}
	if stats.TransientFailures != 3 {
		t.Fatalf("transient failures = %d, want 3", stats.TransientFailures)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	mk := func() *Engine {
		eng, _ := testEngine(newScriptedProber(), Options{Seed: 42, BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second})
		return eng
	}
	a, b := mk(), mk()
	for attempt := 1; attempt <= 8; attempt++ {
		da := a.backoff("host.example.com", simnet.VantageFrankfurt, "", attempt)
		db := b.backoff("host.example.com", simnet.VantageFrankfurt, "", attempt)
		if da != db {
			t.Fatalf("attempt %d: backoff nondeterministic (%v vs %v)", attempt, da, db)
		}
		ceil := time.Second
		if c := 100 * time.Millisecond << (attempt - 1); c < ceil {
			ceil = c
		}
		if da < 0 || da > ceil {
			t.Fatalf("attempt %d: backoff %v outside [0, %v]", attempt, da, ceil)
		}
	}
	// Different seeds must decorrelate the jitter.
	c, _ := testEngine(newScriptedProber(), Options{Seed: 43, BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second})
	same := 0
	for attempt := 1; attempt <= 8; attempt++ {
		if a.backoff("host.example.com", simnet.VantageFrankfurt, "", attempt) ==
			c.backoff("host.example.com", simnet.VantageFrankfurt, "", attempt) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("jitter identical across seeds")
	}
}

func TestBreakerFastFailsWhileOpen(t *testing.T) {
	p := newScriptedProber()
	fail := make([]error, 10)
	for i := range fail {
		fail[i] = simnet.ErrConnReset
	}
	p.set("down.example.com", simnet.VantageNewYork, fail...)
	// Threshold 2 opens the breaker mid-job; the 1-hour cooldown dwarfs
	// the backoff budget, so every later attempt fast-fails, including
	// every attempt of the host's second vantage, which would succeed.
	eng, _ := testEngine(p, Options{
		Workers: 1, MaxRetries: 5, RetryBudget: 100,
		BreakerThreshold: 2, BreakerCooldown: time.Hour, Seed: 3,
	})

	vantages := []simnet.Vantage{simnet.VantageNewYork, simnet.VantageFrankfurt}
	results, stats := eng.Run(context.Background(), []string{"down.example.com"}, vantages)
	if stats.BreakerOpens != 1 {
		t.Fatalf("breaker opens = %d, want 1", stats.BreakerOpens)
	}
	if stats.BreakerFastFails == 0 {
		t.Fatal("no fast-fails while breaker open")
	}
	// Only the two pre-open attempts reached the prober.
	if got := p.callCount("down.example.com", simnet.VantageNewYork); got != 2 {
		t.Fatalf("prober called %d times, want 2", got)
	}
	if got := p.callCount("down.example.com", simnet.VantageFrankfurt); got != 0 {
		t.Fatalf("open breaker let %d probes of the second vantage through", got)
	}
	for i, r := range results {
		if r.Class != ClassTransient || !errors.Is(r.Err, ErrCircuitOpen) {
			t.Fatalf("results[%d]: class %v err %v, want transient circuit-open", i, r.Class, r.Err)
		}
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	p := newScriptedProber()
	p.set("blip.example.com", simnet.VantageNewYork, simnet.ErrConnReset, simnet.ErrConnReset)
	p.set("blip.example.com", simnet.VantageFrankfurt, simnet.ErrConnReset)
	// Nanosecond cooldown: the first backoff sleep carries the virtual
	// clock past it, so the next attempt is the half-open trial — which
	// succeeds (script exhausted) and closes the breaker.
	eng, _ := testEngine(p, Options{
		Workers: 1, MaxRetries: 5, RetryBudget: 100,
		BreakerThreshold: 2, BreakerCooldown: time.Nanosecond, Seed: 11,
	})

	vantages := []simnet.Vantage{simnet.VantageNewYork, simnet.VantageFrankfurt}
	results, stats := eng.Run(context.Background(), []string{"blip.example.com"}, vantages)
	if results[0].Class != ClassNone {
		t.Fatalf("want recovery through half-open trial, got %+v", results[0])
	}
	// The closed breaker passes the second vantage's probes, and one
	// failure stays under the threshold: an open or half-open breaker
	// would have fast-failed the first probe or reopened on it.
	if got := p.callCount("blip.example.com", simnet.VantageFrankfurt); got != 2 || results[1].Class != ClassNone {
		t.Fatalf("second vantage: %d probes, class %v; want 2 and recovered", got, results[1].Class)
	}
	if stats.BreakerOpens != 1 || stats.BreakerFastFails != 0 || stats.RecoveredAfterRetry != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

// traceView strips Chain (cert pointers differ between worlds) down to the
// comparable retry-trace shape.
type traceView struct {
	SNI      string
	Vantage  simnet.Vantage
	Attempts int
	Class    Class
	Err      string
	Trace    []AttemptRecord
}

func runFaultyWorld(t *testing.T, workers int) []traceView {
	t.Helper()
	ds := dataset.Generate(dataset.Config{Seed: 99, Scale: 0.15})
	snis := ds.SNIsByMinUsers(2)
	clock := NewFakeClock(probeEpoch)
	world := simnet.Build(simnet.Config{Seed: 1, SNIs: snis, Faults: &simnet.Faults{
		Seed:          4,
		TransientRate: 0.3,
		LatencyBase:   5 * time.Millisecond,
		LatencyJitter: 20 * time.Millisecond,
		Sleep:         clock.Sleep,
	}})
	// Each host's budget and breaker belong to the worker sweeping it,
	// but the cooldown reads the one FakeClock every worker's sleeps
	// advance, so where a cooldown ends would depend on interleaving:
	// the threshold keeps the breaker closed.
	eng := New(WorldProber{World: world}, Options{
		Workers: workers, Seed: 8, BreakerThreshold: 1000, Clock: clock,
	})
	results, _ := eng.Run(context.Background(), snis, simnet.Vantages())
	views := make([]traceView, len(results))
	for i, r := range results {
		views[i] = traceView{SNI: r.SNI, Vantage: r.Vantage, Attempts: r.Attempts, Class: r.Class, Trace: r.Trace}
		if r.Err != nil {
			views[i].Err = r.Err.Error()
		}
	}
	return views
}

func TestDeterministicRetryTraces(t *testing.T) {
	a := runFaultyWorld(t, 8)
	b := runFaultyWorld(t, 3) // different worker count: interleaving must not matter
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		av, bv := a[i], b[i]
		if av.SNI != bv.SNI || av.Vantage != bv.Vantage {
			t.Fatalf("result %d ordering differs: (%s,%s) vs (%s,%s)", i, av.SNI, av.Vantage, bv.SNI, bv.Vantage)
		}
		if av.Attempts != bv.Attempts || av.Class != bv.Class || av.Err != bv.Err {
			t.Fatalf("%s@%s: outcome differs:\n  %+v\nvs\n  %+v", av.SNI, av.Vantage, av, bv)
		}
		if len(av.Trace) != len(bv.Trace) {
			t.Fatalf("%s@%s: trace lengths differ", av.SNI, av.Vantage)
		}
		for j := range av.Trace {
			if av.Trace[j] != bv.Trace[j] {
				t.Fatalf("%s@%s: trace[%d] differs: %+v vs %+v", av.SNI, av.Vantage, j, av.Trace[j], bv.Trace[j])
			}
		}
	}
}

// TestFaultRecoveryAcceptance is the issue's acceptance scenario: under a
// seeded 20% transient-fault rate the engine recovers ≥ 99% of reachable
// (SNI, vantage) jobs via retries, and unreachable hosts fail exactly
// once per vantage with no retry.
func TestFaultRecoveryAcceptance(t *testing.T) {
	ds := dataset.Generate(dataset.Config{Seed: 99, Scale: 0.15})
	snis := ds.SNIsByMinUsers(2)
	clock := NewFakeClock(probeEpoch)
	world := simnet.Build(simnet.Config{Seed: 1, SNIs: snis, Faults: &simnet.Faults{
		Seed:          20231024,
		TransientRate: 0.2,
		Sleep:         clock.Sleep,
	}})
	unreachable := map[string]bool{}
	for sni, srv := range world.Servers {
		if srv.Unreachable {
			unreachable[sni] = true
		}
	}
	if len(unreachable) == 0 {
		t.Fatal("world has no unreachable hosts; acceptance scenario needs them")
	}

	eng := New(WorldProber{World: world}, Options{Workers: 8, Seed: 20231024, Clock: clock})
	results, stats := eng.Run(context.Background(), snis, simnet.Vantages())

	reachableJobs, recovered := 0, 0
	for _, r := range results {
		if unreachable[r.SNI] {
			if r.Class != ClassTerminal {
				t.Errorf("%s@%s: unreachable host classified %v", r.SNI, r.Vantage, r.Class)
			}
			if r.Attempts != 1 {
				t.Errorf("%s@%s: unreachable host took %d attempts, want exactly 1", r.SNI, r.Vantage, r.Attempts)
			}
			continue
		}
		reachableJobs++
		if r.Err == nil {
			recovered++
		}
	}
	if want := 3 * len(unreachable); stats.TerminalFailures != want {
		t.Errorf("terminal failures = %d, want %d (one per vantage per unreachable host)", stats.TerminalFailures, want)
	}
	rate := float64(recovered) / float64(reachableJobs)
	if rate < 0.99 {
		t.Fatalf("recovered %d/%d reachable jobs (%.2f%%), want >= 99%%", recovered, reachableJobs, 100*rate)
	}
	if stats.RecoveredAfterRetry == 0 {
		t.Fatal("no job recovered via retry at a 20% fault rate — retries not exercised")
	}
	t.Logf("recovered %d/%d reachable jobs (%.3f%%); retries=%d recovered-after-retry=%d terminal=%d",
		recovered, reachableJobs, 100*rate, stats.Retries, stats.RecoveredAfterRetry, stats.TerminalFailures)
}

// slowProber blocks ~its latency on the real clock, honouring ctx — the
// cancellation test needs genuinely in-flight attempts to interrupt.
type slowProber struct {
	latency time.Duration
}

func (p slowProber) Probe(ctx context.Context, sni string, v simnet.Vantage) (Response, error) {
	if err := simnet.RealSleep(ctx, p.latency); err != nil {
		return Response{}, err
	}
	return Response{}, nil
}

func TestWorkerPoolCancellation(t *testing.T) {
	snis := make([]string, 40)
	for i := range snis {
		snis[i] = fmt.Sprintf("host-%02d.example.com", i)
	}
	eng := New(slowProber{latency: 30 * time.Millisecond}, Options{Workers: 4})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(45 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, stats := eng.Run(ctx, snis, simnet.Vantages())
	elapsed := time.Since(start)

	// 120 jobs x 30ms / 4 workers would be ~900ms uncancelled; a graceful
	// shutdown must come back far sooner.
	if elapsed > 500*time.Millisecond {
		t.Fatalf("Run took %v after cancellation", elapsed)
	}
	if len(results) != len(snis)*3 {
		t.Fatalf("got %d results, want %d (every job must report)", len(results), len(snis)*3)
	}
	aborted := 0
	for _, r := range results {
		if r.SNI == "" {
			t.Fatal("zero-value result slipped through")
		}
		if r.Class == ClassAborted {
			aborted++
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("aborted job carries %v, want context.Canceled", r.Err)
			}
		}
	}
	if aborted == 0 {
		t.Fatal("cancellation aborted no jobs")
	}
	if stats.Aborted != aborted {
		t.Fatalf("stats.Aborted = %d, results say %d", stats.Aborted, aborted)
	}
	if stats.Successes+stats.Aborted != stats.Jobs {
		t.Fatalf("stats don't add up: %+v", stats)
	}
}

func TestResultOrderDeterministic(t *testing.T) {
	p := newScriptedProber()
	snis := []string{"c.example.com", "a.example.com", "b.example.com", "a.example.com"}
	eng, _ := testEngine(p, Options{Workers: 8})
	results, stats := eng.Run(context.Background(), snis, simnet.Vantages())

	wantSNIs := []string{"a.example.com", "b.example.com", "c.example.com"}
	if stats.Jobs != len(wantSNIs)*3 {
		t.Fatalf("jobs = %d, want %d (duplicates collapsed)", stats.Jobs, len(wantSNIs)*3)
	}
	for i, r := range results {
		wantSNI := wantSNIs[i/3]
		wantV := simnet.Vantages()[i%3]
		if r.SNI != wantSNI || r.Vantage != wantV {
			t.Fatalf("results[%d] = (%s,%s), want (%s,%s)", i, r.SNI, r.Vantage, wantSNI, wantV)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassNone},
		{fmt.Errorf("wrap: %w", simnet.ErrUnknownHost), ClassTerminal},
		{fmt.Errorf("wrap: %w", simnet.ErrUnreachable), ClassTerminal},
		{fmt.Errorf("wrap: %w", simnet.ErrConnReset), ClassTransient},
		{fmt.Errorf("wrap: %w", simnet.ErrStalled), ClassTransient},
		{fmt.Errorf("wrap: %w", ErrCircuitOpen), ClassTransient},
		{context.DeadlineExceeded, ClassTransient},
		{context.Canceled, ClassAborted},
		{errors.New("x509: malformed certificate"), ClassTerminal},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
