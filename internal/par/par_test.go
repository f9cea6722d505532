package par

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRunsEveryIndexOnce checks that every index runs exactly once
// before For returns, and that no more calls run at once than the
// resolved bound allows, for bounds that resolve to GOMAXPROCS (-1, 0),
// run inline (1), or exceed n.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, n + 3} {
			calls := make([]atomic.Int32, n)
			var running, peak atomic.Int32
			For(workers, n, func(i int) {
				r := running.Add(1)
				for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
				}
				calls[i].Add(1)
				runtime.Gosched()
				running.Add(-1)
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
			if bound := int32(min(Workers(workers), n)); peak.Load() > bound {
				t.Fatalf("n=%d workers=%d: %d calls ran at once, bound %d", n, workers, peak.Load(), bound)
			}
		}
	}
}

// TestForChainCompletes runs a chain in which each call waits for the
// one before it. It completes only if indices are claimed in
// increasing order: a goroutine that claimed a later index first would
// wait on an index no free goroutine is left to run.
func TestForChainCompletes(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		done := make([]chan struct{}, n)
		for i := range done {
			done[i] = make(chan struct{})
		}
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			For(workers, n, func(i int) {
				if i > 0 {
					<-done[i-1]
				}
				close(done[i])
			})
		}()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("workers=%d: chain of %d calls did not complete in 10s", workers, n)
		}
	}
}

// TestForReraisesLowestPanicAfterEveryCall panics at one index, then at
// two, the lower one last, and checks that the caller recovers the
// lower one's value, and only once no call is in flight. A panic stops
// only its own goroutine, so with more goroutines than panics every
// other index has run by then.
func TestForReraisesLowestPanicAfterEveryCall(t *testing.T) {
	const n = 1000
	for _, panics := range [][]int{{300}, {300, 700}} {
		for _, workers := range []int{1, 2, 8} {
			var running, returned atomic.Int32
			var inFlight, ran int32
			func() {
				defer func() {
					inFlight, ran = running.Load(), returned.Load()
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "boom at 300") {
						t.Fatalf("panics %v, workers=%d: recovered %v, want the panic of index 300", panics, workers, r)
					}
				}()
				For(workers, n, func(i int) {
					running.Add(1)
					defer running.Add(-1)
					if slices.Contains(panics, i) {
						if i == 300 && len(panics) > 1 {
							time.Sleep(10 * time.Millisecond)
						}
						panic(fmt.Sprintf("boom at %d", i))
					}
					runtime.Gosched()
					returned.Add(1)
				})
				t.Fatalf("panics %v, workers=%d: For returned after a call panicked", panics, workers)
			}()
			if inFlight != 0 {
				t.Fatalf("panics %v, workers=%d: panic reached the caller with %d calls in flight", panics, workers, inFlight)
			}
			if want := int32(n - len(panics)); workers > len(panics) && ran != want {
				t.Fatalf("panics %v, workers=%d: %d calls returned before the panic reached the caller, want %d", panics, workers, ran, want)
			}
		}
	}
}

// TestForInlineAtOneWorker checks that a bound of 1 runs every call on
// the calling goroutine.
func TestForInlineAtOneWorker(t *testing.T) {
	caller := goroutineID()
	For(1, 5, func(i int) {
		if id := goroutineID(); id != caller {
			t.Errorf("index %d ran on goroutine %s, caller is %s", i, id, caller)
		}
	})
}

// goroutineID reads the running goroutine's number from its stack
// header ("goroutine 7 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}
