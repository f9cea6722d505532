package probe

import (
	"sync"
	"time"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int

const (
	// BreakerClosed: probes flow normally; consecutive transient failures
	// are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: probes fast-fail until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one trial probe is in flight; its outcome decides
	// between closed and open.
	BreakerHalfOpen
)

// String names the state for summaries.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// Breaker is a per-peer circuit breaker. The probe engine arms one per
// host for each sweep (only transient failures move it: terminal hosts
// fail once and never reach the failure path, and an aborted run says
// nothing about the host); the ingest service arms one per submitting
// source to shut out peers whose batches keep poisoning the pipeline.
type Breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state       BreakerState
	consecutive int
	openedAt    time.Time
}

// NewBreaker builds a closed breaker that opens after threshold
// consecutive failures and half-opens once cooldown elapses.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Allow reports whether an operation may proceed at time now. In the open
// state, the first call after the cooldown transitions to half-open and
// claims the single trial slot; concurrent callers keep fast-failing
// until that trial settles.
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default: // BreakerHalfOpen: trial already claimed
		return false
	}
}

// Success closes the breaker and clears the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	b.state = BreakerClosed
	b.consecutive = 0
	b.mu.Unlock()
}

// Failure records a failure at time now and reports whether the
// breaker opened on this call.
func (b *Breaker) Failure(now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		// The trial failed: straight back to open for another cooldown.
		b.state = BreakerOpen
		b.openedAt = now
		return true
	case BreakerClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = now
			b.consecutive = 0
			return true
		}
	}
	return false
}
