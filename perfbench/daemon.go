package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/service"
)

const (
	// batchSize is records per POST /v1/batch in every phase.
	batchSize = 25
	// openRate is the fixed open-loop arrival rate in batches per second:
	// 4k records/s, about 30% of the saturation throughput (~13k records/s)
	// measured at the commit that introduced the benchmark on a 2-core
	// machine. At half that throughput, back-to-back runs of one seed
	// moved visible_p50_s by 3x as the shared machine's speed drifted.
	openRate = 160
	// readEvery schedules one GET /report per that many due batches.
	readEvery = 80
	// genLagLimit: an open-loop phase whose p99 send lateness exceeds this
	// did not offer the load it claims, so the run is invalid. Lateness
	// below it is mostly a poster waiting on a slow response over its one
	// connection; visibility is timed from due times, so it already
	// carries that wait.
	genLagLimit = 250 * time.Millisecond
	// rounds is how many saturation bursts and open-loop windows alternate
	// after the warm-up; ingest_records_per_s is the median burst rate.
	rounds = 4
	// burstBatches is the size of one saturation burst.
	burstBatches = 250
	// openShare is the share of the measurement window spent in the
	// open-loop windows, split evenly across rounds.
	openShare = 0.7
	// idleReads is the number of GET /report reads on the quiescent daemon.
	idleReads = 15
	// sources is how many source identities batches round-robin over.
	sources = 4
)

// daemonPopulation is the population the daemon ingests: paper scale.
var daemonPopulation = studySpec{name: "daemon-ingest", scale: 1}

// batch is one pre-encoded POST body and the records it carries.
type batch struct {
	index   int // position in the pool
	source  string
	records []dataset.Record
	body    []byte
}

// batchPool chunks the paper-scale population at seed into batches. The
// warm-up sends every batch once; later phases cycle through the pool, so
// they re-send records the daemon has seen (merges stay commutative) and
// the state stays at paper scale.
func batchPool(seed int64) ([]batch, int, error) {
	ds := dataset.Generate(dataset.Config{Seed: seed, Scale: 1})
	rows := ds.Records.Rows()
	var pool []batch
	for lo := 0; lo < len(rows); lo += batchSize {
		hi := min(lo+batchSize, len(rows))
		source := fmt.Sprintf("source-%02d", len(pool)%sources)
		body, err := service.EncodeBatch(source, rows[lo:hi])
		if err != nil {
			return nil, 0, fmt.Errorf("encode batch: %w", err)
		}
		pool = append(pool, batch{index: len(pool), source: source, records: rows[lo:hi], body: body})
	}
	return pool, len(rows), nil
}

// daemon is a running service behind a loopback HTTP listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan error
}

// startDaemon starts the service and serves its handler on 127.0.0.1.
// The queue and per-source budget are sized so that nothing sheds.
func startDaemon(seed int64) (*daemon, error) {
	svc := service.New(service.Options{
		Seed:          seed,
		QueueDepth:    1 << 16,
		SourceBudget:  1 << 16,
		ShedWatermark: 1,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		svc:  svc,
		srv:  &http.Server{Handler: service.Handler(svc, service.HTTPOptions{})},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop drains the service and shuts the listener down, waiting for both.
func (d *daemon) stop() error {
	drainErr := d.svc.Drain(context.Background())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := d.srv.Shutdown(ctx)
	if err := <-d.done; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	return errors.Join(drainErr, shutErr)
}

// httpClient keeps at most conns connections to the daemon.
func httpClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// post sends one batch and reports the HTTP status.
func (d *daemon) post(c *http.Client, b batch) (int, error) {
	resp, err := c.Post(d.url+"/v1/batch", "application/json", bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// readReport fetches GET /report and checks it is a snapshot report.
func (d *daemon) readReport(c *http.Client) ([]byte, error) {
	resp, err := c.Get(d.url + "/report")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /report: status %d", resp.StatusCode)
	}
	if !bytes.HasPrefix(body, []byte("IoT TLS Service Snapshot — epoch ")) {
		return nil, fmt.Errorf("GET /report: unexpected body %.60q", body)
	}
	return body, nil
}

// waitCovered polls until the published snapshot covers records and
// returns that snapshot's publication time.
func (d *daemon) waitCovered(records int64) (time.Time, error) {
	deadline := wall.Now().Add(60 * time.Second)
	for {
		snap := d.svc.Snapshot()
		if snap.Records >= records {
			return snap.At, nil
		}
		if wall.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("snapshot stuck at %d records, want %d", snap.Records, records)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// ledger is the generator's own account of what it sent. It keeps the
// pool indices of accepted batches, not their records, so the generator's
// bookkeeping stays out of the daemon's peak resident set.
type ledger struct {
	mu              sync.Mutex
	submitted       int
	accepted        []int
	acceptedRecords int
	failed          []string
}

func (l *ledger) record(b batch, status int, err error) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.submitted++
	if err == nil && status == http.StatusAccepted {
		l.accepted = append(l.accepted, b.index)
		l.acceptedRecords += len(b.records)
		return true
	}
	l.failed = append(l.failed, fmt.Sprintf("POST /v1/batch (%s): status %d, err %v", b.source, status, err))
	return false
}

// closedLoop sends batches back to back from conns connections until
// next reports none is left, and returns the number of accepted records.
func (d *daemon) closedLoop(c *http.Client, conns int, led *ledger, next func() (batch, bool)) int64 {
	var mu sync.Mutex
	var accepted int64
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				b, ok := next()
				mu.Unlock()
				if !ok {
					return
				}
				status, err := d.post(c, b)
				if led.record(b, status, err) {
					mu.Lock()
					accepted += int64(len(b.records))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return accepted
}

// warmUp starts a daemon and posts the whole pool once, back to back.
// Set-up time runs from service.New until a published snapshot covers
// every warm-up record.
func warmUp(seed int64, pool []batch, led *ledger) (*daemon, float64, error) {
	conns := runtime.NumCPU()
	c := httpClient(conns)
	defer c.CloseIdleConnections()
	t0 := wall.Now()
	d, err := startDaemon(seed)
	if err != nil {
		return nil, 0, err
	}
	i := 0
	accepted := d.closedLoop(c, conns, led, func() (batch, bool) {
		if i == len(pool) {
			return batch{}, false
		}
		i++
		return pool[i-1], true
	})
	if _, err := d.waitCovered(accepted); err != nil {
		return d, 0, fmt.Errorf("warm-up: %w", err)
	}
	return d, since(t0), nil
}

// daemonSetup measures one warm-up in the current (fresh) process; its
// digest is the warm snapshot's report.
func daemonSetup(seed int64) (setupOut, error) {
	pool, _, err := batchPool(seed)
	if err != nil {
		return setupOut{}, err
	}
	d, secs, err := warmUp(seed, pool, &ledger{})
	if d == nil {
		return setupOut{}, err
	}
	var buf bytes.Buffer
	d.svc.WriteSnapshotReport(&buf)
	return setupOut{Seconds: secs, Digest: digest(buf.Bytes())}, errors.Join(err, d.stop())
}

// daemonRun is the end-to-end run of daemon-ingest: cold warm-ups in
// fresh processes, then on one daemon the warm-up, rounds of a saturation
// burst and a fixed-rate open-loop window with concurrent reads, idle
// reads, drain, and the drained-report equivalence check. Every POST and
// read is one operation.
func daemonRun(res *result, seed int64, budget time.Duration) {
	pool, warmRecords, err := batchPool(seed)
	if err != nil {
		res.fail(err)
		return
	}
	children, err := coldSetups("daemon-ingest", seed, setupRuns)
	if err != nil {
		res.fail(err)
		return
	}
	led := &ledger{}
	// This process has built the pool already, so its warm-up is not cold:
	// it only brings the daemon to paper scale and is not timed.
	d, _, err := warmUp(seed, pool, led)
	if err != nil {
		res.fail(err)
		if d != nil {
			d.stop()
		}
		return
	}
	var warm bytes.Buffer
	d.svc.WriteSnapshotReport(&warm)
	var setup []float64
	for i, c := range children {
		setup = append(setup, c.Seconds)
		res.op(c.Digest == digest(warm.Bytes()), "daemon-ingest: cold child %d warm snapshot digest differs", i)
	}
	res.op(d.svc.Snapshot().Records == int64(warmRecords), "daemon-ingest: warm snapshot has %d records, want %d",
		d.svc.Snapshot().Records, warmRecords)

	base := d.svc.Snapshot().Records
	var satRates []float64
	var ol openLoopResult
	for r := 0; r < rounds; r++ {
		runtime.GC() // each phase starts from a collected heap
		rate, err := saturate(d, pool, led, burstBatches)
		if err != nil {
			res.fail(err)
			break
		}
		satRates = append(satRates, rate)
		runtime.GC()
		o, err := openLoop(d, pool, led, time.Duration(openShare*float64(budget)/rounds))
		if err != nil {
			res.fail(err)
			break
		}
		ol.visible = append(ol.visible, o.visible...)
		ol.reads = append(ol.reads, o.reads...)
		ol.readErrs = append(ol.readErrs, o.readErrs...)
		ol.lagP99 = max(ol.lagP99, o.lagP99)
	}
	for _, e := range ol.readErrs {
		res.op(false, "%s", e)
	}
	for range ol.reads {
		res.op(true, "")
	}
	res.op(ol.lagP99 <= genLagLimit.Seconds(), "daemon-ingest: generator lateness p99 %.4fs exceeds the %s limit: run invalid",
		ol.lagP99, genLagLimit)

	c := httpClient(1)
	var idle []float64
	var idleRef []byte
	for i := 0; i < idleReads; i++ {
		t0 := wall.Now()
		body, err := d.readReport(c)
		idle = append(idle, since(t0))
		if i == 0 {
			idleRef = body
		}
		res.op(err == nil && bytes.Equal(body, idleRef), "daemon-ingest: idle read %d: %v (or bytes differ from the first idle read)", i, err)
	}
	c.CloseIdleConnections()

	stopErr := d.stop()
	res.op(stopErr == nil, "daemon-ingest: drain/shutdown: %v", stopErr)
	// The peak while serving: the equivalence check below runs two batch
	// studies over every accepted record, which is not daemon work.
	peakRSS := peakRSSMB()
	st := d.svc.Stats()
	for _, f := range led.failed {
		res.op(false, "%s", f)
	}
	res.attempted += led.submitted - len(led.failed)
	res.op(st.Conserved() && st.QueueDepth == 0, "daemon-ingest: not drained or not conserved: %+v", st)
	res.op(st.SubmittedBatches == int64(led.submitted) && st.AcceptedRecords == int64(led.acceptedRecords) &&
		st.ShedBatches == 0 && st.QuarantinedBatches == 0,
		"daemon-ingest: daemon counted submitted=%d accepted_records=%d shed=%d quarantined=%d; generator sent %d batches, %d accepted records",
		st.SubmittedBatches, st.AcceptedRecords, st.ShedBatches, st.QuarantinedBatches, led.submitted, led.acceptedRecords)
	res.op(st.AcceptedRecords-base > 0, "daemon-ingest: nothing ingested after warm-up")
	var accepted []dataset.Record
	for _, i := range led.accepted {
		accepted = append(accepted, pool[i].records...)
	}
	finalOK, err := finalReportMatches(d.svc, accepted, seed)
	res.op(finalOK, "daemon-ingest: FinalReport differs from core.Run over the accepted records (%v)", err)

	fmt.Printf("# samples: setup_s n=%d (fresh processes), visible n=%d batches at %d batches/s, read n=%d, report_s n=%d idle reads\n",
		len(setup), len(ol.visible), openRate, len(ol.reads), len(idle))
	fmt.Printf("# health: gen_lag_p99_s=%.6f (limit %.3f) connections<=%d accepted_records=%d\n",
		ol.lagP99, genLagLimit.Seconds(), max(2, runtime.NumCPU()), st.AcceptedRecords)
	res.set("setup_s", median(setup), "s")
	res.set("report_s", median(idle), "s")
	res.set("peak_rss_mb", peakRSS, "MiB")
	res.set("ingest_records_per_s", median(satRates), "records/s")
	res.set("visible_p50_s", median(ol.visible), "s")
	res.set("read_p50_s", median(ol.reads), "s")
	res.tail("visible_p99_s", ol.visible, 0.99, "s")
	res.tail("read_p95_s", ol.reads, 0.95, "s")
}

// saturate posts n pool batches back to back from nproc connections and
// returns accepted records per second from the first send until a
// published snapshot covers them all.
func saturate(d *daemon, pool []batch, led *ledger, n int) (float64, error) {
	conns := runtime.NumCPU()
	c := httpClient(conns)
	defer c.CloseIdleConnections()
	base := d.svc.Snapshot().Records
	i := 0
	t0 := wall.Now()
	accepted := d.closedLoop(c, conns, led, func() (batch, bool) {
		if i == n {
			return batch{}, false
		}
		i++
		return pool[(i-1)%len(pool)], true
	})
	at, err := d.waitCovered(base + accepted)
	if err != nil {
		return 0, fmt.Errorf("saturation: %w", err)
	}
	return float64(accepted) / at.Sub(t0).Seconds(), nil
}

// openLoopResult holds the fixed-rate phase's latencies in seconds.
type openLoopResult struct {
	visible  []float64
	reads    []float64
	readErrs []string
	lagP99   float64
}

// publication is one observed snapshot.
type publication struct {
	records int64
	at      time.Time
}

// openLoop offers batches at openRate for dur: batch i is due at
// t0 + i/openRate whatever happened to earlier ones. Posters share
// max(1, nproc-1) connections and a reader on its own connection issues a
// GET /report every readEvery due batches. Visibility is timed from each
// batch's due time to the publication of the first snapshot whose record
// count covers it; reads are timed from their due time too.
func openLoop(d *daemon, pool []batch, led *ledger, dur time.Duration) (openLoopResult, error) {
	var out openLoopResult
	posters := max(1, runtime.NumCPU()-1)
	n := int(dur.Seconds() * openRate)
	base := d.svc.Snapshot().Records
	t0 := wall.Now().Add(20 * time.Millisecond)
	due := func(i int) time.Time { return t0.Add(time.Duration(float64(i) * float64(time.Second) / openRate)) }

	// The watcher records every snapshot publication it sees.
	var pubs []publication
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		var last *service.Snapshot
		for {
			if s := d.svc.Snapshot(); s != last {
				last = s
				pubs = append(pubs, publication{s.Records, s.At})
			}
			select {
			case <-stopWatch:
				return
			default:
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	accepted := make([]bool, n)
	lags := make([]float64, n)
	c := httpClient(posters)
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += posters {
				time.Sleep(due(i).Sub(wall.Now()))
				lags[i] = since(due(i))
				b := pool[i%len(pool)]
				status, err := d.post(c, b)
				accepted[i] = led.record(b, status, err)
			}
		}(p)
	}
	rc := httpClient(1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i += readEvery {
			time.Sleep(due(i).Sub(wall.Now()))
			_, err := d.readReport(rc)
			if err != nil {
				out.readErrs = append(out.readErrs, err.Error())
				continue
			}
			out.reads = append(out.reads, since(due(i)))
		}
	}()
	wg.Wait()
	c.CloseIdleConnections()
	rc.CloseIdleConnections()

	var total int64
	for i := 0; i < n; i++ {
		if accepted[i] {
			total += int64(len(pool[i%len(pool)].records))
		}
	}
	_, err := d.waitCovered(base + total)
	close(stopWatch)
	<-watchDone
	if err != nil {
		return out, fmt.Errorf("open loop: %w", err)
	}
	// The watcher may stop between the covering publication and its next
	// poll; that snapshot carries its own publication time.
	if s := d.svc.Snapshot(); pubs[len(pubs)-1].records != s.Records {
		pubs = append(pubs, publication{s.Records, s.At})
	}
	// Batch i is visible at the first publication covering every record
	// of the accepted batches due up to and including it.
	cum, j := base, 0
	for i := 0; i < n; i++ {
		if !accepted[i] {
			continue
		}
		cum += int64(len(pool[i%len(pool)].records))
		for j < len(pubs) && pubs[j].records < cum {
			j++
		}
		if j == len(pubs) {
			return out, fmt.Errorf("open loop: no observed publication covers batch %d", i)
		}
		out.visible = append(out.visible, pubs[j].at.Sub(due(i)).Seconds())
	}
	out.lagP99 = quantile(lags, 0.99)
	return out, nil
}

// finalReportMatches checks that the drained daemon's FinalReport is
// byte-identical to core.Run over the records the generator saw accepted.
func finalReportMatches(svc *service.Service, accepted []dataset.Record, seed int64) (bool, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	var got bytes.Buffer
	if err := svc.FinalReport(context.Background(), &got, cfg); err != nil {
		return false, err
	}
	cfg.Dataset = dataset.FromRecords(accepted)
	st, err := core.Run(context.Background(), cfg)
	if err != nil {
		return false, err
	}
	var want bytes.Buffer
	st.WriteReport(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return false, fmt.Errorf("%d vs %d bytes; first lines %q", got.Len(), want.Len(), strings.SplitN(got.String(), "\n", 2)[0])
	}
	return true, nil
}
