package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
)

// HTTPOptions tunes the HTTP layer around a Service.
type HTTPOptions struct {
	// RequestTimeout bounds each request's handling (decode + admission
	// or render); 0 means 10s. Slow-client read/write protection is the
	// http.Server's Read/WriteTimeout, configured by cmd/iotlsd.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a batch POST body; 0 means 8 MiB.
	MaxBodyBytes int64
	// Metrics optionally serves /metrics and counts requests.
	Metrics *obs.Registry
}

func (o HTTPOptions) withDefaults() HTTPOptions {
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 10 * time.Second
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	return o
}

// wireRecord is the JSON shape of one ClientHello record on the ingest
// API. Raw is standard base64 (encoding/json's []byte convention).
type wireRecord struct {
	DeviceID string    `json:"device_id"`
	Vendor   string    `json:"vendor"`
	Model    string    `json:"model"`
	Type     string    `json:"type"`
	User     string    `json:"user"`
	Time     time.Time `json:"time"`
	SNI      string    `json:"sni"`
	StackID  string    `json:"stack_id"`
	Raw      []byte    `json:"raw"`
}

func (w wireRecord) record() dataset.Record {
	return dataset.Record{
		DeviceID: w.DeviceID, Vendor: w.Vendor, Model: w.Model, Type: w.Type,
		User: w.User, Time: w.Time, SNI: w.SNI, StackID: w.StackID, Raw: w.Raw,
	}
}

// EncodeBatch marshals a batch into the POST /v1/batch body — the
// encoder HTTP-driving load generators use.
func EncodeBatch(source string, records []dataset.Record) ([]byte, error) {
	b := wireBatch{Source: source, Records: make([]wireRecord, len(records))}
	for i, r := range records {
		b.Records[i] = wireRecord{
			DeviceID: r.DeviceID, Vendor: r.Vendor, Model: r.Model, Type: r.Type,
			User: r.User, Time: r.Time, SNI: r.SNI, StackID: r.StackID, Raw: r.Raw,
		}
	}
	return json.Marshal(b)
}

// wireBatch is the POST /v1/batch request body.
type wireBatch struct {
	Source  string       `json:"source"`
	Records []wireRecord `json:"records"`
}

// bodyBufs recycles body read buffers: nothing decodeBatch returns
// points into the bytes it read.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeBatch reads a POST /v1/batch body to its end and decodes the
// one batch it carries. A body in EncodeBatch's form takes scanCanonical;
// any other body, and any body the scanner gives up on, is decoded by
// encoding/json from the same bytes, so encoding/json decides what is
// accepted and what it decodes to. Only whitespace may follow the batch
// value, and the batch needs a source and at least one record.
func decodeBatch(body io.Reader) (string, []dataset.Record, error) {
	b := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(b)
	b.Reset()
	if _, err := b.ReadFrom(body); err != nil {
		return "", nil, err
	}
	buf := b.Bytes()
	source, records, end, ok := scanCanonical(buf)
	if !ok {
		var batch wireBatch
		dec := json.NewDecoder(bytes.NewReader(buf))
		if err := dec.Decode(&batch); err != nil {
			return "", nil, err
		}
		source, end = batch.Source, int(dec.InputOffset())
		records = make([]dataset.Record, len(batch.Records))
		for i, wr := range batch.Records {
			records[i] = wr.record()
		}
	}
	if len(bytes.TrimLeft(buf[end:], " \t\r\n")) > 0 {
		return "", nil, errors.New("trailing data after batch")
	}
	if source == "" {
		return "", nil, errors.New("source required")
	}
	if len(records) == 0 {
		return "", nil, errors.New("no records")
	}
	return source, records, nil
}

// Handler wires the service's HTTP surface:
//
//	POST /v1/batch  — submit a record batch; 202 accepted, 429 + Retry-After shed
//	GET  /healthz   — liveness: 200 while the process serves
//	GET  /readyz    — readiness: 503 while draining or stalled
//	GET  /statz     — conservation counters, queue depth, latency quantiles (JSON)
//	GET  /v1/serverfp — per-vendor server-stack census for the current epoch (JSON)
//	GET  /quarantinez — retained quarantined-batch log (JSON)
//	GET  /report    — current epoch snapshot report (text)
//	GET  /metrics   — Prometheus exposition (when metrics are attached)
func Handler(s *Service, opts HTTPOptions) http.Handler {
	opts = opts.withDefaults()
	mux := http.NewServeMux()

	withDeadline := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), opts.RequestTimeout)
			defer cancel()
			start := time.Now() //lint:allow noclock HTTP request latency is operator wall-clock telemetry, never analysis input
			h(w, r.WithContext(ctx))
			if m := opts.Metrics; m != nil {
				m.Histogram("service_http_seconds", obs.DurationBuckets, obs.L("path", r.URL.Path)).
					Observe(time.Since(start).Seconds()) //lint:allow noclock paired with the wall-clock start above
			}
		}
	}

	mux.HandleFunc("POST /v1/batch", withDeadline(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, opts.MaxBodyBytes)
		decode := startPhase(s.phases.decode)
		source, records, err := decodeBatch(r.Body)
		decode.stop()
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad batch: %v", err))
			return
		}
		if err := r.Context().Err(); err != nil {
			httpError(w, http.StatusServiceUnavailable, "request deadline exceeded")
			return
		}
		outcome := s.Submit(source, records)
		w.Header().Set("Content-Type", "application/json")
		if !outcome.Accepted() {
			retry := int(s.RetryAfter(outcome) / time.Second)
			if retry < 1 {
				retry = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{
				"status": outcome.String(), "retry_after_seconds": retry,
			})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]any{"status": outcome.String()})
	}))

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		status := "ok"
		if s.Draining() {
			status = "draining"
		}
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, status)
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		ready, reason := s.Ready()
		w.Header().Set("Content-Type", "text/plain")
		if !ready {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, reason)
	})

	mux.HandleFunc("GET /statz", withDeadline(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Stats())
	}))

	mux.HandleFunc("GET /v1/serverfp", withDeadline(func(w http.ResponseWriter, r *http.Request) {
		view, err := s.ServerFP(r.Context())
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(view)
	}))

	mux.HandleFunc("GET /quarantinez", withDeadline(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.QuarantineLog())
	}))

	mux.HandleFunc("GET /report", withDeadline(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		s.WriteSnapshotReport(w)
	}))

	if opts.Metrics != nil {
		mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			opts.Metrics.WritePrometheus(w)
		})
	}
	return mux
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
