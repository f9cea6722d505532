// Command ctquery exercises the Certificate Transparency log of the
// study: it builds the simulated world, reports per-issuer CT coverage
// (the crt.sh-style lookup of Section 5.4), and verifies RFC 6962
// inclusion proofs for a sample of logged certificates plus a consistency
// proof between two tree sizes.
//
// Usage:
//
//	ctquery [-seed N] [-scale F] [-workers N] [-timeout D] [-verify N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"repro/internal/cliflags"
	"repro/internal/ctlog"
	"repro/internal/dataset"
	"repro/internal/pki"
	"repro/internal/simnet"
)

func main() {
	common := cliflags.Common{Seed: 20231024, Scale: 0.3}
	common.Register(flag.CommandLine)
	verify := flag.Int("verify", 16, "number of inclusion proofs to verify")
	flag.Parse()
	seed, scale := &common.Seed, &common.Scale

	ds := dataset.Generate(dataset.Config{Seed: *seed, Scale: *scale})
	world := simnet.Build(simnet.Config{Seed: *seed + 1, SNIs: ds.SNIsByMinUsers(2), Workers: common.Workers})
	log := world.Log
	head := log.Head()
	fmt.Printf("log %s: size=%d root=%s\n\n", log.ID, head.Size, head.RootHash)

	// Per-issuer CT coverage.
	type cover struct{ logged, total int }
	coverage := map[string]*cover{}
	for _, srv := range world.Servers {
		c := coverage[srv.IssuerOrg]
		if c == nil {
			c = &cover{}
			coverage[srv.IssuerOrg] = c
		}
		c.total++
		if srv.InCT {
			c.logged++
		}
	}
	issuers := make([]string, 0, len(coverage))
	for i := range coverage {
		issuers = append(issuers, i)
	}
	sort.Strings(issuers)
	fmt.Println("== CT coverage by issuer (servers logged/total) ==")
	for _, i := range issuers {
		c := coverage[i]
		kind := "private"
		if world.Stores.ContainsOrg(i) {
			kind = "public"
		}
		fmt.Printf("%-32s %-8s %d/%d\n", i, kind, c.logged, c.total)
	}

	// Verify inclusion proofs for a sample of logged leaves. Candidate
	// selection is deterministic (sorted SNIs, first -verify logged
	// entries); verification fans out across -workers goroutines and the
	// results print in candidate order, so the output is identical for
	// any worker count. -timeout bounds the whole verification phase.
	fmt.Printf("\n== Verifying %d inclusion proofs ==\n", *verify)
	snis := make([]string, 0, len(world.Servers))
	for sni := range world.Servers {
		snis = append(snis, sni)
	}
	sort.Strings(snis)
	candidates := make([]string, 0, *verify)
	for _, sni := range snis {
		if len(candidates) >= *verify {
			break
		}
		if world.Servers[sni].InCT {
			candidates = append(candidates, sni)
		}
	}
	// Ctrl-C / SIGTERM cancel the verification fan-out instead of
	// hard-killing the process: completed proofs still print, the
	// partial summary survives, and the exit code says "interrupted".
	ctx, stop := cliflags.SignalContext(context.Background())
	defer stop()
	if common.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, common.Timeout)
		defer cancel()
	}
	type proofOut struct {
		idx  uint64
		path int
		err  error
	}
	outs := make([]proofOut, len(candidates))
	workers := common.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(candidates) && len(candidates) > 0 {
		workers = len(candidates)
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sni := candidates[i]
				srv := world.Servers[sni]
				if err := ctx.Err(); err != nil {
					outs[i].err = fmt.Errorf("proof for %s: %w", sni, err)
					continue
				}
				idx, proof, err := log.InclusionProofForCert(srv.Leaf.Cert)
				if err != nil {
					outs[i].err = fmt.Errorf("proof for %s: %w", sni, err)
					continue
				}
				if !ctlog.VerifyInclusion(ctlog.LeafHashOfCert(srv.Leaf.Cert), idx, head.Size, proof, head.RootHash) {
					outs[i].err = fmt.Errorf("inclusion proof for %s FAILED", sni)
					continue
				}
				outs[i] = proofOut{idx: idx, path: len(proof)}
			}
		}()
	}
	for i := range candidates {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	verified, aborted := 0, 0
	for i, out := range outs {
		if out.err != nil {
			if errors.Is(out.err, context.Canceled) || errors.Is(out.err, context.DeadlineExceeded) {
				aborted++
				continue
			}
			fatal(out.err)
		}
		verified++
		fmt.Printf("%-40s leaf=%d path=%d OK\n", candidates[i], out.idx, out.path)
	}
	if aborted > 0 {
		fmt.Fprintf(os.Stderr,
			"ctquery: cancelled (%v): verified %d/%d inclusion proofs, %d aborted; skipping consistency and private-CA checks\n",
			context.Cause(ctx), verified, len(candidates), aborted)
		os.Exit(130)
	}

	// Consistency proof between half and full tree.
	if head.Size >= 2 {
		first := head.Size / 2
		proof, err := log.ConsistencyProof(first, head.Size)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nconsistency proof %d -> %d: %d hashes (full verification across tree heads is exercised in the ctlog tests)\n",
			first, head.Size, len(proof))
	}

	// A private-CA certificate must never be present.
	for _, sni := range snis {
		srv := world.Servers[sni]
		if srv.IssuerKind == pki.PrivateCA && log.Contains(srv.Leaf.Cert) {
			fatal(fmt.Errorf("private-CA certificate of %s found in CT", sni))
		}
	}
	fmt.Println("\nno private-CA certificate appears in the log (Section 5.4)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ctquery:", err)
	os.Exit(1)
}
