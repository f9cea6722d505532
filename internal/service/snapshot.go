package service

import (
	"fmt"
	"io"
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
}

// Snapshot returns the current epoch. Never nil: epoch 0 with an empty
// client precedes the first merge.
func (s *Service) Snapshot() *Snapshot {
	return s.snap.Load()
}

// WriteReport renders the snapshot's client-side analysis (the Section
// 4 + Appendix B tables) with a service header. Server-side tables need
// the probe world and exist only in the drained FinalReport.
func (sn *Snapshot) WriteReport(w io.Writer, matcher *fingerprint.Matcher, workers int) {
	fmt.Fprintf(w, "IoT TLS Service Snapshot — epoch %d, %d batches, %d records, %d fingerprints\n\n",
		sn.Epoch, sn.Epoch, sn.Records, sn.Client.NumFingerprints())
	st := core.Study{Config: core.Config{Workers: workers}, Client: sn.Client, Matcher: matcher}
	for _, t := range st.ClientTables() {
		t.WriteText(w)
		fmt.Fprintln(w)
	}
}

// WriteSnapshotReport renders the current epoch with the service's
// shared library matcher.
func (s *Service) WriteSnapshotReport(w io.Writer) {
	s.Snapshot().WriteReport(w, s.matcher, s.opts.Workers)
}
