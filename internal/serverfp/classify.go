package serverfp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/probe"
	"repro/internal/simnet"
	"repro/internal/tlswire"
)

// Observation is one battery probe's outcome, reduced to the fields the
// classifier scores. Exactly one of Failed / Alerted / a negotiated
// ServerHello holds per observation.
type Observation struct {
	// Probe names the battery probe that produced the observation.
	Probe string
	// Failed: the engine gave up on this probe (transport failure after
	// retries). Failed observations carry no evidence and score nothing.
	Failed bool
	// Alerted: the server refused the hello with a TLS alert.
	Alerted bool
	// Alert is the refusal description when Alerted.
	Alert tlswire.AlertDescription
	// Version the server negotiated (when not Alerted).
	Version tlswire.Version
	// Cipher the server selected (when not Alerted).
	Cipher uint16
	// Echoed lists the ServerHello extension types in emission order.
	Echoed []uint16
	// HRR: the answer was a TLS 1.3 HelloRetryRequest asking for
	// RetryGroup. Folded into the outcome-shape score component, so the
	// confidence denominator is unchanged for pre-1.3 vectors.
	HRR bool
	// RetryGroup is the named group an HRR requested.
	RetryGroup uint16
}

// ObservationOf reduces an engine result to its observation.
func ObservationOf(r probe.Result) Observation {
	o := Observation{Probe: r.Probe}
	switch {
	case r.Err != nil:
		o.Failed = true
	case r.Response.Alert != nil:
		o.Alerted = true
		o.Alert = r.Response.Alert.Description
	default:
		o.Version = r.Response.Version
		o.Cipher = r.Response.Cipher
		o.Echoed = r.Response.Echoed
		o.HRR = r.Response.HelloRetryRequest
		o.RetryGroup = r.Response.RetryGroup
	}
	return o
}

// Key canonically encodes the observation for signature comparison and
// debugging output.
func (o Observation) Key() string {
	switch {
	case o.Failed:
		return o.Probe + "|failed"
	case o.Alerted:
		return fmt.Sprintf("%s|alert:%s", o.Probe, o.Alert)
	}
	parts := make([]string, len(o.Echoed))
	for i, e := range o.Echoed {
		parts[i] = fmt.Sprintf("%04x", e)
	}
	key := fmt.Sprintf("%s|v=%04x|c=%04x|e=%s", o.Probe, uint16(o.Version), o.Cipher, strings.Join(parts, ","))
	if o.HRR {
		key += fmt.Sprintf("|hrr=%s", tlswire.GroupName(o.RetryGroup))
	}
	return key
}

// Classification is the classifier's verdict for one target.
type Classification struct {
	// Label is the best-matching stack name ("unknown" when no probe
	// yielded evidence).
	Label string
	// Confidence is the matched fraction of scoreable components in
	// [0,1]; 1.0 is an exact signature match.
	Confidence float64
	// Runner is the second-best label, for margin diagnostics.
	Runner string
	// Margin is Confidence minus the runner-up's score fraction.
	Margin float64
}

// componentsPerProbe is the score granularity: outcome shape (alert vs
// hello, and which alert), negotiated version, selected cipher, and the
// echoed-extension sequence each contribute one component.
const componentsPerProbe = 4

// Classifier matches response vectors against the expected vectors of
// the modeled server stacks. Expected vectors are derived offline by
// replaying the battery against each stack model, so the classifier
// needs no network and is a pure function afterwards.
type Classifier struct {
	labels   []string                          // sorted for deterministic ties
	expected map[string]map[string]Observation // label -> probe -> expectation
}

// NewClassifier derives signatures for every modeled stack — including
// the firmware-drift successors, so censuses of post-paper worlds
// classify against the full label space — from the given battery.
func NewClassifier(battery []probe.BatteryProbe) *Classifier {
	c := &Classifier{expected: make(map[string]map[string]Observation)}
	for _, st := range simnet.AllServerStacks() {
		sig := make(map[string]Observation, len(battery))
		for _, bp := range battery {
			sig[bp.Name] = expect(st, bp)
		}
		c.labels = append(c.labels, st.Name)
		c.expected[st.Name] = sig
	}
	sort.Strings(c.labels)
	return c
}

// expect replays one battery probe against a stack model. The SNI is a
// fixed placeholder: stack behaviour is SNI-independent by construction
// (only the chain differs per host, and observations don't score it).
func expect(st *simnet.ServerStack, bp probe.BatteryProbe) Observation {
	sh, alert := st.Respond(bp.Hello("fingerprint.invalid"))
	o := Observation{Probe: bp.Name}
	if alert != nil {
		o.Alerted = true
		o.Alert = alert.Description
		return o
	}
	o.Version = sh.SelectedVersion()
	o.Cipher = sh.CipherSuite
	o.Echoed = sh.ExtensionTypes()
	if sh.IsHelloRetryRequest() {
		o.HRR = true
		if g, ok := sh.KeyShareGroup(); ok {
			o.RetryGroup = g
		}
	}
	return o
}

// score counts matching components between an observation and an
// expectation. Failed observations are skipped by the caller.
func score(got, want Observation) int {
	s := 0
	if got.Alerted == want.Alerted && (!got.Alerted || got.Alert == want.Alert) &&
		got.HRR == want.HRR && got.RetryGroup == want.RetryGroup {
		s++
	}
	if got.Version == want.Version {
		s++
	}
	if got.Cipher == want.Cipher {
		s++
	}
	if equalU16(got.Echoed, want.Echoed) {
		s++
	}
	return s
}

func equalU16(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Classify scores a response vector against every stack signature and
// returns the best match. Only non-failed observations are scoreable; a
// vector with no evidence at all classifies as "unknown" with zero
// confidence. Ties break to the lexicographically first label, keeping
// the verdict deterministic.
func (c *Classifier) Classify(vec []Observation) Classification {
	scoreable := 0
	for _, o := range vec {
		if !o.Failed {
			scoreable++
		}
	}
	if scoreable == 0 {
		return Classification{Label: "unknown"}
	}
	denom := float64(scoreable * componentsPerProbe)
	best, runner := Classification{}, Classification{}
	for _, label := range c.labels {
		sig := c.expected[label]
		total := 0
		for _, o := range vec {
			if o.Failed {
				continue
			}
			if want, ok := sig[o.Probe]; ok {
				total += score(o, want)
			}
		}
		conf := float64(total) / denom
		switch {
		case best.Label == "" || conf > best.Confidence:
			runner = best
			best = Classification{Label: label, Confidence: conf}
		case runner.Label == "" || conf > runner.Confidence:
			runner = Classification{Label: label, Confidence: conf}
		}
	}
	best.Runner = runner.Label
	best.Margin = best.Confidence - runner.Confidence
	return best
}
