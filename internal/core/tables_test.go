package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/libcorpus"
	"repro/internal/report"
)

// TestBuildTablesReraisesJobPanic runs a panicking table job on a
// worker pool: the panic must reach the calling goroutine, as it would
// with one worker, rather than end the process from a worker.
func TestBuildTablesReraisesJobPanic(t *testing.T) {
	s := &Study{Config: Config{Workers: 3}}
	jobs := []tableJob{
		{build: report.Table13},
		{indexed: true, build: func() report.Table { panic("table job boom") }},
		{build: report.Table13},
		{indexed: true, build: report.Table13},
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "table job boom") {
			t.Fatalf("recovered %v, want the job's panic", r)
		}
	}()
	s.buildTables(jobs)
	t.Fatal("buildTables returned after a job panicked")
}

// TestDispatchOrder pins the order buildTables hands out jobs: the first
// indexed job, then the jobs without the flag, then the other indexed
// jobs.
func TestDispatchOrder(t *testing.T) {
	jobs := []tableJob{{}, {indexed: true}, {indexed: true}, {}, {indexed: true}, {}}
	if got, want := dispatchOrder(jobs), []int{1, 0, 3, 5, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatchOrder = %v, want %v", got, want)
	}
	if got, want := dispatchOrder(jobs[:1]), []int{0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dispatchOrder without indexed jobs = %v, want %v", got, want)
	}
}

// tablesSink keeps the benchmarked tables live.
var tablesSink []report.Table

// BenchmarkClientTables renders Study.ClientTables on a fresh clone of
// a study's Client with a fresh matcher, which is what an `iotls
// report` render or a daemon read of a new snapshot pays: the clone
// builds its table index and the matcher's memo starts empty. Scale 10
// is skipped under -short.
func BenchmarkClientTables(b *testing.B) {
	for _, scale := range []float64{1, 10} {
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			if scale > 1 && testing.Short() {
				b.Skip("scale 10 is skipped in -short")
			}
			c, err := analysis.NewClientWorkers(dataset.Generate(dataset.Config{Seed: 20231024, Scale: scale}), 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := Study{Client: c.Clone(), Matcher: libcorpus.NewMatcher()}
				b.StartTimer()
				tablesSink = st.ClientTables()
			}
		})
	}
}
