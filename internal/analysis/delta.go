package analysis

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/tlswire"
)

// This file is the incremental half of the client analysis: the batch
// path shards a full dataset and merges once in symbol space, while a
// resident service parses record batches into Deltas as they arrive
// and folds each into a long-lived Client. A Delta decodes its batch
// straight into a per-batch columnar store with its own intern table,
// runs the same clientShard ingest, and finalizes into string form;
// MergeDelta then unions sorted StringSets — and a union of sorted
// sets is itself sorted, so a Client grown delta-by-delta is identical
// to one built by NewClientWorkers over the union of the records. That
// is the equivalence the service's drain invariant relies on.

// Delta is the parsed, aggregated form of one record batch, ready to
// merge into a Client. A Delta is single-use: merging moves its
// internal state into the Client.
type Delta struct {
	frag *Client
}

// NewDelta parses one record batch into a mergeable Delta. The batch
// decodes straight into a columnar store (fresh intern table, one
// contiguous raw buffer) before ingestion. A record whose wire bytes
// fail to parse poisons the whole batch: the error names the offending
// index and the caller quarantines the batch rather than merging a
// partial aggregate.
func NewDelta(records []dataset.Record) (*Delta, error) {
	recs := dataset.RecordsFromRows(records)
	cx := newIngestCtx(recs.Table())
	var shard clientShard
	shard.init(cx)
	shard.ingest(recs, 0)
	if shard.err != nil {
		return nil, fmt.Errorf("analysis: record %d: %w", shard.errIdx, shard.err)
	}
	d := &Delta{frag: NewClientEmpty()}
	shard.finalize(d.frag)
	d.frag.rebuildOrderedKeys()
	for _, r := range records {
		d.frag.DeviceVendor[r.DeviceID] = r.Vendor
		d.frag.DeviceType[r.DeviceID] = r.Type
	}
	return d, nil
}

// MergeDelta folds a delta into the client. The merge is commutative
// and associative (sorted-set unions and count additions), so any
// arrival order of the same deltas yields the same Client. The delta
// must not be reused afterwards. Unions never mutate an existing set
// in place — they either keep it or replace it with a fresh slice —
// so snapshots published by Clone stay immutable while the original
// keeps merging. orderedKeys is rebuilt eagerly, so table methods stay
// read-only, but only when the delta added a fingerprint: a delta of
// already-known prints leaves the key set, and so its order, unchanged.
func (c *Client) MergeDelta(d *Delta) {
	f := d.frag
	added := false
	for key, part := range f.Prints {
		info := c.Prints[key]
		if info == nil {
			c.Prints[key] = part
			added = true
			continue
		}
		info.Devices = unionSets(info.Devices, part.Devices)
		info.Vendors = unionSets(info.Vendors, part.Vendors)
		info.Types = unionSets(info.Types, part.Types)
		info.SNIs = unionSets(info.SNIs, part.SNIs)
		info.Records += part.Records
	}
	for dev, keys := range f.DevicePrints {
		c.DevicePrints[dev] = unionSets(c.DevicePrints[dev], keys)
	}
	for sni, devs := range f.SNIDevices {
		c.SNIDevices[sni] = unionSets(c.SNIDevices[sni], devs)
	}
	for v, n := range f.VersionCounts {
		c.VersionCounts[v] += n
	}
	for id, v := range f.DeviceVendor {
		c.DeviceVendor[id] = v
	}
	for id, t := range f.DeviceType {
		c.DeviceType[id] = t
	}
	if added {
		c.rebuildOrderedKeys()
	}
}

// Clone copies the client's aggregate state so the copy can be
// published as an immutable snapshot while the original keeps merging
// deltas. StringSets and fingerprint tuples are shared, not deep-
// copied: merging replaces sets rather than mutating them, so a
// snapshot's slices never change underneath a reader — and a clone
// costs one FingerprintInfo struct plus map headers instead of
// re-copying every element.
func (c *Client) Clone() *Client {
	out := &Client{
		DS:            c.DS,
		Prints:        make(map[string]*FingerprintInfo, len(c.Prints)),
		DevicePrints:  make(map[string]StringSet, len(c.DevicePrints)),
		DeviceVendor:  make(map[string]string, len(c.DeviceVendor)),
		DeviceType:    make(map[string]string, len(c.DeviceType)),
		VersionCounts: make(map[tlswire.Version]int, len(c.VersionCounts)),
		SNIDevices:    make(map[string]StringSet, len(c.SNIDevices)),
		orderedKeys:   append([]string(nil), c.orderedKeys...),
	}
	for key, info := range c.Prints {
		cp := *info
		out.Prints[key] = &cp
	}
	for dev, keys := range c.DevicePrints {
		out.DevicePrints[dev] = keys
	}
	for id, v := range c.DeviceVendor {
		out.DeviceVendor[id] = v
	}
	for id, t := range c.DeviceType {
		out.DeviceType[id] = t
	}
	for v, n := range c.VersionCounts {
		out.VersionCounts[v] = n
	}
	for sni, devs := range c.SNIDevices {
		out.SNIDevices[sni] = devs
	}
	return out
}
