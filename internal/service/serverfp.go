package service

import (
	"context"
	"fmt"

	"repro/internal/probe"
	"repro/internal/serverfp"
	"repro/internal/simnet"
)

// ServerFPView is the JSON shape of GET /v1/serverfp: the active
// server-stack fingerprinting census over the SNIs observed in the
// current epoch snapshot, grouped per stack and per vendor.
type ServerFPView struct {
	// Epoch is the snapshot the census was computed against.
	Epoch int64 `json:"epoch"`
	// Targets is the number of fingerprinted hosts.
	Targets int `json:"targets"`
	// BatterySize is the number of crafted hellos sent per host.
	BatterySize int `json:"battery_size"`
	// Accuracy against the simulated world's ground truth.
	Accuracy float64 `json:"accuracy"`
	// Stacks aggregates targets per classified stack label.
	Stacks []ServerFPStack `json:"stacks"`
	// Vendors correlates device vendors with backend stacks.
	Vendors []ServerFPVendor `json:"vendors"`
}

// ServerFPStack is one per-label aggregate row.
type ServerFPStack struct {
	Stack          string  `json:"stack"`
	Servers        int     `json:"servers"`
	MeanConfidence float64 `json:"mean_confidence"`
}

// ServerFPVendor is one (vendor, stack) correlation row.
type ServerFPVendor struct {
	Vendor  string `json:"vendor"`
	Stack   string `json:"stack"`
	Servers int    `json:"servers"`
}

// ServerFP computes (or returns the cached) fingerprinting census for
// the current epoch snapshot. The census is derived state: it is
// rebuilt only when the epoch moves, so repeated reads are free and two
// reads of the same epoch see the identical view. Snapshot reads stay
// lock-free; only census computation serializes on its own mutex.
func (s *Service) ServerFP(ctx context.Context) (*ServerFPView, error) {
	snap := s.Snapshot()
	s.sfpMu.Lock()
	defer s.sfpMu.Unlock()
	if s.sfpView != nil && s.sfpView.Epoch == snap.Epoch {
		return s.sfpView, nil
	}
	// simnet.Build seeds per-server state off its own rng stream, so the
	// SNI list enters in a canonical (sorted) order for the census to be
	// a pure function of the snapshot.
	snis := snap.Client.SNIs()
	view := &ServerFPView{Epoch: snap.Epoch}
	if len(snis) > 0 {
		// The world seed mirrors the batch pipeline's (cfg.Seed + 1), so
		// the daemon fingerprints the same simulated backends a core.Run
		// over the accepted records would probe.
		world := simnet.Build(simnet.Config{Seed: s.opts.Seed + 1, SNIs: snis, Workers: s.opts.Workers})
		census, err := serverfp.Fingerprint(ctx, world, snis, simnet.VantageNewYork, probe.Options{
			Workers: s.opts.Workers,
			Seed:    s.opts.Seed,
			Clock:   s.opts.Clock,
		})
		if err != nil {
			return nil, fmt.Errorf("service: serverfp: %w", err)
		}
		view.Targets = len(census.Targets)
		view.BatterySize = census.BatterySize
		view.Accuracy = census.Accuracy()
		for _, lc := range census.LabelCounts() {
			view.Stacks = append(view.Stacks, ServerFPStack{
				Stack: lc.Label, Servers: lc.Servers, MeanConfidence: lc.MeanConf,
			})
		}
		for _, vs := range census.VendorStacks() {
			view.Vendors = append(view.Vendors, ServerFPVendor{
				Vendor: vs.Vendor, Stack: vs.Label, Servers: vs.Servers,
			})
		}
	}
	s.sfpView = view
	s.sfpRuns.Add(1)
	s.sfpTargets.Store(int64(view.Targets))
	return view, nil
}
