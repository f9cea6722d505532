// Package probe is the resilient certificate-collection engine: it wraps
// any backend implementing Prober (today the simulated world of
// internal/simnet, tomorrow a live scanner) with per-attempt timeouts,
// exponential backoff with full jitter, a per-host retry budget, a
// per-host circuit breaker, and a bounded sweep that hands each host to
// one worker, with graceful cancellation and deterministic result
// ordering.
//
// The engine classifies every failure before deciding whether to retry:
// transient failures (timeouts, resets, stalled handshakes) are retried
// under backoff; terminal failures (unknown host, unreachable host, bad
// chain material) fail exactly once — the paper's 43 unreachable SNIs
// cost one attempt per vantage, never a retry budget.
package probe

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"

	"repro/internal/simnet"
	"repro/internal/tlswire"
)

// Response is the structured outcome of one successful probe attempt,
// the world's negotiation: the certificate chain plus the evidence the
// server exhibited. A server refusing the hello with a TLS alert is
// still a successful probe — Alert carries the refusal and Chain is
// empty — because the refusal is evidence, not a transport failure.
type Response = simnet.Negotiation

// Prober is one probing backend: a single attempt against (SNI, vantage)
// honouring the context deadline. Implementations decide what a probe
// means (real TLS handshake, fast chain lookup, live network dial).
type Prober interface {
	Probe(ctx context.Context, sni string, vantage simnet.Vantage) (Response, error)
}

// HelloProber extends Prober with crafted-hello attempts: the backend
// answers an arbitrary ClientHello instead of its canonical one. The
// battery runner (RunBattery) requires this interface.
type HelloProber interface {
	Prober
	ProbeHello(ctx context.Context, sni string, vantage simnet.Vantage, hello *tlswire.ClientHello) (Response, error)
}

// WorldProber adapts a simulated world to the Prober interface.
type WorldProber struct {
	World *simnet.World
	// RealTLS selects genuine crypto/tls handshakes over the fast chain
	// path.
	RealTLS bool
}

// Probe runs one attempt against the world.
func (p WorldProber) Probe(ctx context.Context, sni string, vantage simnet.Vantage) (Response, error) {
	if p.RealTLS {
		return p.World.ProbeContext(ctx, sni, vantage)
	}
	return p.World.ProbeFastContext(ctx, sni, vantage)
}

// ProbeHello answers a crafted hello with the server's stack-model
// response. Crafted hellos always take the model path: the stack model
// is what a crafted hello interrogates, in both probe modes.
func (p WorldProber) ProbeHello(ctx context.Context, sni string, vantage simnet.Vantage, hello *tlswire.ClientHello) (Response, error) {
	return p.World.NegotiateFast(ctx, sni, vantage, hello)
}

// ErrCircuitOpen: the per-host circuit breaker rejected the attempt
// without probing. Classified transient — the host may recover once the
// cooldown elapses.
var ErrCircuitOpen = errors.New("probe: circuit open")

// Class is the failure taxonomy driving retry decisions.
type Class int

const (
	// ClassNone: the probe succeeded.
	ClassNone Class = iota
	// ClassTransient: timeout, reset, stall, or open breaker — retried.
	ClassTransient
	// ClassTerminal: unknown host, unreachable host, or bad chain
	// material — never retried.
	ClassTerminal
	// ClassAborted: the run-level context was cancelled — not retried and
	// not counted against the host.
	ClassAborted
)

// String names the class for summaries and traces.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "ok"
	case ClassTransient:
		return "transient"
	case ClassTerminal:
		return "terminal"
	default:
		return "aborted"
	}
}

// Classify maps a probe error onto the taxonomy. Unknown errors are
// terminal: retrying a failure we cannot explain repeats it.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	switch {
	case errors.Is(err, context.Canceled):
		return ClassAborted
	case errors.Is(err, simnet.ErrUnknownHost), errors.Is(err, simnet.ErrUnreachable):
		return ClassTerminal
	case errors.Is(err, simnet.ErrConnReset), errors.Is(err, simnet.ErrStalled),
		errors.Is(err, ErrCircuitOpen),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return ClassTransient
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return ClassTransient
	}
	return ClassTerminal
}

// HashFrac derives a deterministic fraction in [0,1) from the seed and
// the event coordinates (kind, two free-form strings, a sequence
// number); it is the engine's only randomness source, so retry traces
// are reproducible across runs and worker interleavings. The ingest
// service reuses it for seeded load-shedding decisions. The FNV sum is
// finalized with an avalanche mix: FNV-1a alone barely moves the high
// bits when only the trailing byte (the sequence number) changes, and
// the high bits are what the fraction is made of.
func HashFrac(seed int64, kind, a, b string, n int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%d", seed, kind, a, b, n)
	return float64(mix64(h.Sum64())>>11) / float64(uint64(1)<<53)
}

// mix64 is the 64-bit murmur3 finalizer: full avalanche, so every input
// bit flips every output bit with probability ~1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
