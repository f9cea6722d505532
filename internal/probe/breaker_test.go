package probe

import (
	"testing"
	"time"
)

// stateOf reads the breaker's position; nothing outside the breaker
// needs it, since a state shows only in what Allow grants.
func stateOf(b *Breaker) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func TestBreakerStateMachine(t *testing.T) {
	start := time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC)
	b := NewBreaker(3, 10*time.Second)

	if got := stateOf(b); got != BreakerClosed {
		t.Fatalf("initial state %v, want closed", got)
	}
	// Two failures stay closed; the third opens.
	for i := 0; i < 2; i++ {
		if b.Failure(start) {
			t.Fatalf("failure %d opened breaker early", i+1)
		}
		if !b.Allow(start) {
			t.Fatalf("closed breaker rejected probe after %d failures", i+1)
		}
	}
	if !b.Failure(start) {
		t.Fatal("threshold failure did not open breaker")
	}
	if got := stateOf(b); got != BreakerOpen {
		t.Fatalf("state %v after threshold, want open", got)
	}

	// Open: fast-fail until the cooldown elapses.
	if b.Allow(start.Add(5 * time.Second)) {
		t.Fatal("open breaker allowed probe before cooldown")
	}
	// After the cooldown: exactly one half-open trial.
	trialTime := start.Add(10 * time.Second)
	if !b.Allow(trialTime) {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if got := stateOf(b); got != BreakerHalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", got)
	}
	if b.Allow(trialTime) {
		t.Fatal("half-open breaker allowed a second concurrent trial")
	}

	// Failed trial: straight back to open, new cooldown window.
	if !b.Failure(trialTime) {
		t.Fatal("half-open failure did not reopen breaker")
	}
	if b.Allow(trialTime.Add(5 * time.Second)) {
		t.Fatal("reopened breaker allowed probe before new cooldown")
	}

	// Successful trial closes and clears the streak.
	if !b.Allow(trialTime.Add(10 * time.Second)) {
		t.Fatal("breaker did not half-open after second cooldown")
	}
	b.Success()
	if got := stateOf(b); got != BreakerClosed {
		t.Fatalf("state %v after successful trial, want closed", got)
	}
	// The streak restarted: two failures must not reopen.
	if b.Failure(trialTime) || b.Failure(trialTime) {
		t.Fatal("streak not cleared by success")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	now := time.Date(2022, 4, 15, 0, 0, 0, 0, time.UTC)
	b := NewBreaker(2, time.Second)
	b.Failure(now)
	b.Success()
	if b.Failure(now) {
		t.Fatal("breaker opened after success + single failure")
	}
	if !b.Failure(now) {
		t.Fatal("breaker did not open at threshold after reset")
	}
}
