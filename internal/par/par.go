// Package par is the study's one bounded parallel loop. Every fan-out
// of the pipeline runs on it: client ingest shards, certificate
// minting, probing, chain validation, table rendering and ctquery's
// proof checks.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker bound: n when it is positive, GOMAXPROCS
// otherwise.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// For calls f(i) for every i in [0, n) on at most min(Workers(workers), n)
// goroutines, and returns once every call has returned. The goroutines
// claim indices in increasing order from one counter, so f(i) may wait
// for an effect of f(j) with j < i: j is already claimed, by a goroutine
// that is not waiting for i. When at most one goroutine is needed, f
// runs on the calling goroutine.
//
// A panicking call stops its goroutine; the others carry on. Once every
// goroutine has stopped, For re-raises on the caller the panic of the
// lowest index that panicked, the first a loop on the caller would have
// met, as a string holding its value and the stack of the goroutine it
// was raised on. When f runs on the calling goroutine, its panic simply
// propagates.
func For(workers, n int, f func(i int)) {
	workers = min(Workers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		// lowest is the lowest index whose call panicked, and msg that
		// panic's value and stack.
		lowest = n
		msg    string
	)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			i := 0
			defer func() {
				if r := recover(); r != nil {
					s := fmt.Sprintf("%v\n\ngoroutine of index %d:\n%s", r, i, debug.Stack())
					mu.Lock()
					if i < lowest {
						lowest, msg = i, s
					}
					mu.Unlock()
				}
			}()
			for i = int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
	if lowest < n {
		panic(msg)
	}
}
