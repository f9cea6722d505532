package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/libcorpus"
)

// TestConcurrentSnapshotReadersDuringIngest is the race soak: sustained
// concurrent submissions from several sources while reader goroutines
// continuously load snapshots, render reports, and poll readiness and
// stats. Under -race this proves the epoch-snapshot publication is
// data-race free; afterwards the drained state must be conserved and
// the final snapshot must account for every accepted record. A snapshot
// taken before the load must render the same bytes after it: the
// merges that followed share its state but may not write into it.
func TestConcurrentSnapshotReadersDuringIngest(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{Seed: 13, Workers: 4, QueueDepth: 256, SourceBudget: 256})

	const writers = 4
	const batchesPerWriter = 30
	const earlyBatches = 5
	for i := 0; i < earlyBatches; i++ {
		s.Submit("early", recs[i*10:i*10+10])
	}
	waitFor(t, "early batches merged", func() bool { return s.Stats().AcceptedBatches == earlyBatches })
	early := s.Snapshot()
	var earlyReport bytes.Buffer
	early.WriteReport(&earlyReport, s.matcher, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: hammer the lock-free read surface.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				if snap.Client.NumFingerprints() < 0 {
					t.Error("impossible fingerprint count")
					return
				}
				_ = snap.Client.Table2()
				s.Ready()
				s.Stats()
				if n%50 == 0 {
					s.WriteSnapshotReport(io.Discard)
				}
			}
		}(i)
	}

	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < batchesPerWriter; i++ {
				lo := ((w*batchesPerWriter + i) * 7) % (len(recs) - 10)
				s.Submit(fmt.Sprintf("writer-%d", w), recs[lo:lo+10])
			}
		}(w)
	}
	writerWg.Wait()
	drain(t, s)
	close(stop)
	wg.Wait()

	st := s.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation violated after soak: %+v", st)
	}
	if st.SubmittedBatches != writers*batchesPerWriter+earlyBatches {
		t.Fatalf("submitted %d, want %d", st.SubmittedBatches, writers*batchesPerWriter+earlyBatches)
	}
	snap := s.Snapshot()
	if snap.Epoch <= early.Epoch {
		t.Fatalf("no merge after the early snapshot (epoch %d, final %d)", early.Epoch, snap.Epoch)
	}
	var again bytes.Buffer
	early.WriteReport(&again, s.matcher, 2)
	if !bytes.Equal(again.Bytes(), earlyReport.Bytes()) {
		t.Fatalf("early snapshot (epoch %d) renders different bytes after %d later batches",
			early.Epoch, snap.Epoch-early.Epoch)
	}
	if snap.Records != st.AcceptedRecords {
		t.Fatalf("final snapshot has %d records, stats accepted %d", snap.Records, st.AcceptedRecords)
	}
	if snap.Epoch != st.AcceptedBatches {
		t.Fatalf("final epoch %d, accepted batches %d", snap.Epoch, st.AcceptedBatches)
	}
}

// TestDrainMidLoadWithinDeadline: a drain initiated while submitters
// are still firing (the SIGTERM scenario) finishes inside its deadline,
// sheds the late arrivals as draining, and conserves every batch.
func TestDrainMidLoadWithinDeadline(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{
		Seed: 17, Workers: 2, QueueDepth: 64, SourceBudget: 64,
		ChaosSlow: time.Millisecond, // keep the queue non-trivially full at drain time
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := ((w*1000 + i) * 3) % (len(recs) - 5)
				s.Submit(fmt.Sprintf("load-%d", w), recs[lo:lo+5])
			}
		}(w)
	}

	waitFor(t, "sustained load", func() bool { return s.Stats().SubmittedBatches > 20 })
	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.AwaitDrain(ctx); err != nil {
		t.Fatalf("drain missed its deadline: %v", err)
	}
	close(stop)
	wg.Wait()

	st := s.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("drained queue still holds %d batches", st.QueueDepth)
	}
	if ok, reason := s.Ready(); ok || reason != "draining" {
		t.Fatalf("drained service readiness: ok=%v reason=%q", ok, reason)
	}
}

// TestSnapshotsArePrefixesOfAcceptedLog is the coalescing soak: four
// submitters post 200 small batches back to back while readers keep
// every distinct snapshot they load. After the drain, every kept
// snapshot must be an epoch of whole batches (Epoch == Batches), epochs
// and record counts must never decrease in any reader's load order, and
// each snapshot's report must equal a fresh batch analysis of the
// accepted log's first snap.Records records. Run it under -race.
func TestSnapshotsArePrefixesOfAcceptedLog(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{Seed: 19, Workers: 4, QueueDepth: 1024, SourceBudget: 1024})

	const writers, batchesPerWriter, batchSize = 4, 50, 4
	const readers = 3
	kept := make([][]*Snapshot, readers)
	stop := make(chan struct{})
	var readWg sync.WaitGroup
	for r := 0; r < readers; r++ {
		readWg.Add(1)
		go func(r int) {
			defer readWg.Done()
			var last *Snapshot
			for {
				if snap := s.Snapshot(); snap != last {
					kept[r] = append(kept[r], snap)
					last = snap
				}
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}(r)
	}

	var writeWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWg.Add(1)
		go func(w int) {
			defer writeWg.Done()
			for i := 0; i < batchesPerWriter; i++ {
				lo := ((w*batchesPerWriter + i) * 5) % (len(recs) - batchSize)
				if o := s.Submit(fmt.Sprintf("writer-%d", w), recs[lo:lo+batchSize]); !o.Accepted() {
					t.Errorf("writer %d batch %d: outcome %v", w, i, o)
				}
			}
		}(w)
	}
	writeWg.Wait()
	drain(t, s)
	close(stop)
	readWg.Wait()

	st := s.Stats()
	if !st.Conserved() || st.AcceptedBatches != writers*batchesPerWriter {
		t.Fatalf("want all %d batches accepted and conserved: %+v", writers*batchesPerWriter, st)
	}
	if final := s.Snapshot(); final.Epoch != st.AcceptedBatches || final.Records != st.AcceptedRecords {
		t.Fatalf("final snapshot epoch %d records %d, stats accepted %d batches %d records",
			final.Epoch, final.Records, st.AcceptedBatches, st.AcceptedRecords)
	}
	if st.Publications < 1 || st.Publications > st.AcceptedBatches {
		t.Fatalf("publications %d outside [1, %d]", st.Publications, st.AcceptedBatches)
	}

	distinct := map[*Snapshot]bool{}
	for r, snaps := range kept {
		for i, snap := range snaps {
			distinct[snap] = true
			if snap.Epoch != snap.Batches {
				t.Fatalf("reader %d: snapshot epoch %d covers %d batches", r, snap.Epoch, snap.Batches)
			}
			if i > 0 && (snap.Epoch < snaps[i-1].Epoch || snap.Records < snaps[i-1].Records) {
				t.Fatalf("reader %d: snapshot went back from epoch %d (%d records) to epoch %d (%d records)",
					r, snaps[i-1].Epoch, snaps[i-1].Records, snap.Epoch, snap.Records)
			}
		}
	}
	accepted := s.AcceptedRecords()
	for snap := range distinct {
		if snap.Epoch == 0 {
			continue // the empty epoch before the first publication
		}
		batch, err := analysis.NewClientWorkers(dataset.FromRecords(accepted[:snap.Records]), 2)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		snap.WriteReport(&got, s.matcher, 2)
		ref := &Snapshot{Epoch: snap.Epoch, Batches: snap.Batches, Records: snap.Records, Client: batch}
		ref.WriteReport(&want, s.matcher, 2)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("epoch %d (%d records): report differs from a batch analysis of the accepted prefix",
				snap.Epoch, snap.Records)
		}
	}
	t.Logf("%d batches, %d publications, %d distinct snapshots checked", st.AcceptedBatches, st.Publications, len(distinct))
}

// TestSnapshotTablesRenderConcurrently renders every client table of
// one published snapshot from 4 goroutines at once, with 2 table
// workers each, while the live client keeps merging. The first render
// builds the snapshot's table index while the others read it, and
// every render must equal a sequential one of an independently merged
// client over the same batches.
func TestSnapshotTablesRenderConcurrently(t *testing.T) {
	recs := testRecords(t)
	s := New(Options{Seed: 17, Workers: 2, QueueDepth: 256, SourceBudget: 256})
	const batches, size = 12, 10
	ref := analysis.NewClientEmpty()
	for i := 0; i < batches; i++ {
		b := recs[i*size : (i+1)*size]
		s.Submit("early", b)
		d, err := analysis.NewDelta(b)
		if err != nil {
			t.Fatal(err)
		}
		ref.MergeDelta(d)
	}
	waitFor(t, "early batches merged", func() bool { return s.Stats().AcceptedBatches == batches })
	snap := s.Snapshot()
	var want bytes.Buffer
	(&Snapshot{Epoch: snap.Epoch, Batches: snap.Batches, Records: snap.Records, Client: ref}).
		WriteReport(&want, libcorpus.NewMatcher(), 1)

	matcher := libcorpus.NewMatcher()
	start := make(chan struct{})
	var wg sync.WaitGroup
	got := make([]bytes.Buffer, 4)
	for i := range got {
		wg.Add(1)
		go func(buf *bytes.Buffer) {
			defer wg.Done()
			<-start
			snap.WriteReport(buf, matcher, 2)
		}(&got[i])
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := batches; i < batches+20; i++ {
			lo := (i * size) % (len(recs) - size)
			s.Submit("late", recs[lo:lo+size])
		}
	}()
	close(start)
	wg.Wait()
	drain(t, s)
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want.Bytes()) {
			t.Fatalf("concurrent render %d (%d bytes) differs from the sequential render (%d bytes)",
				i, got[i].Len(), want.Len())
		}
	}
	if s.Snapshot().Epoch == snap.Epoch {
		t.Fatal("no merge ran beside the renders")
	}
}
