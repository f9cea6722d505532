package service

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/fingerprint"
)

// Snapshot is one immutable epoch of the merged analysis state. The
// merger publishes a fresh snapshot after each merge group through an
// atomic pointer, so any number of readers — the /report endpoint,
// metrics scrapers, the drain path — see a fully consistent epoch
// without taking a lock or blocking ingestion. Its Client is a
// copy-on-write clone of the live client: it shares the live client's
// shards, sets and fingerprint records, which later merges copy before
// they write, so the snapshot costs the pointer arrays alone and never
// changes. Every snapshot is the analysis of a prefix of the accepted
// record log.
type Snapshot struct {
	// Epoch is the number of accepted batches folded in. It only moves
	// forward, and it skips values when several batches publish
	// together; Stats.Publications counts snapshots.
	Epoch int64
	// Records is the number of accepted records folded in.
	Records int64
	// At is the publication time (the injected clock's view).
	At time.Time
	// Client is the client-side analysis state at this epoch (see
	// analysis.Client.Clone).
	Client *analysis.Client

	// report returns the service's render of this epoch, made by its
	// first call (see Service.newSnapshot). It lives and dies with the
	// snapshot. The bytes are shared: callers must not modify them.
	report func() []byte
}

// newSnapshot makes an epoch whose report is rendered with the service's
// shared library matcher by its first read and kept for every later one.
// sync.OnceValue makes concurrent first reads wait for that one render,
// and after a render that panics it keeps no bytes and panics with the
// same value on every call.
func (s *Service) newSnapshot(epoch, records int64, at time.Time, client *analysis.Client) *Snapshot {
	sn := &Snapshot{Epoch: epoch, Records: records, At: at, Client: client}
	sn.report = sync.OnceValue(func() []byte {
		s.reportRenders.Add(1)
		var b bytes.Buffer
		sn.WriteReport(&b, s.matcher(), s.opts.Workers)
		return b.Bytes()
	})
	return sn
}

// Snapshot returns the current epoch. Never nil: epoch 0 with an empty
// client precedes the first merge.
func (s *Service) Snapshot() *Snapshot {
	return s.snap.Load()
}

// WriteReport renders the snapshot's client-side analysis (the Section
// 4 + Appendix B tables) with a service header. Server-side tables need
// the probe world and exist only in the drained FinalReport. Every call
// renders afresh.
func (sn *Snapshot) WriteReport(w io.Writer, matcher *fingerprint.Matcher, workers int) {
	fmt.Fprintf(w, "IoT TLS Service Snapshot — epoch %d, %d batches, %d records, %d fingerprints\n\n",
		sn.Epoch, sn.Epoch, sn.Records, sn.Client.NumFingerprints())
	st := core.Study{Config: core.Config{Workers: workers}, Client: sn.Client, Matcher: matcher}
	for _, t := range st.ClientTables() {
		t.WriteText(w)
		fmt.Fprintln(w)
	}
}

// WriteSnapshotReport writes the current epoch's report, rendered with
// the service's shared library matcher. A snapshot and the matcher never
// change, so the report is a pure function of the epoch: its first read
// renders it into bytes, concurrent first reads wait for that one render,
// and every later read of the snapshot writes the same bytes. A render
// that panics keeps no bytes, and every read of that epoch panics with
// the first one's value, so no read writes a partial report.
func (s *Service) WriteSnapshotReport(w io.Writer) {
	w.Write(s.Snapshot().report())
}
