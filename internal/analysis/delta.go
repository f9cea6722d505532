package analysis

import (
	"fmt"

	"repro/internal/dataset"
)

// This file is the incremental half of the client analysis: the batch
// path shards a full dataset and merges once in symbol space, while a
// resident service parses record batches into Deltas as they arrive
// and folds each into a long-lived Client. A Delta decodes its batch
// straight into a per-batch columnar store over the service's
// IngestState, runs the same clientShard ingest, and finalizes into
// string form; MergeDelta then unions sorted StringSets — and a union
// of sorted sets is itself sorted, so a Client grown delta-by-delta is
// identical to one built by NewClientWorkers over the union of the
// records. That is the equivalence the service's drain invariant relies
// on.

// Delta is the parsed, aggregated form of one record batch, ready to
// merge into a Client. A Delta is single-use: merging moves its
// internal state into the Client.
type Delta struct {
	agg     aggregate
	records []dataset.Record
}

// NewDelta parses one record batch into a mergeable Delta through a
// fresh ingest state of its own; see IngestState.NewDelta. It drops the
// state without committing to it, since nothing would read what a
// commit wrote.
func NewDelta(records []dataset.Record) (*Delta, error) {
	d, _, err := NewIngestState().stage(records)
	return d, err
}

// NewDelta parses one record batch into a mergeable Delta and, if the
// batch parses, commits its new strings and prints to st. A record whose
// wire bytes fail to parse poisons the whole batch: the error names the
// offending index, st is left as it was, and the caller quarantines the
// batch rather than merging a partial aggregate. Safe for concurrent
// use.
func (st *IngestState) NewDelta(records []dataset.Record) (*Delta, error) {
	d, cx, err := st.stage(records)
	if err != nil {
		return nil, err
	}
	cx.commit()
	return d, nil
}

// stage parses one record batch without writing to st. The batch
// decodes straight into a columnar store over an overlay of st's intern
// table, then ingests with its own parse memo and dense print index;
// only a fingerprint st has never seen builds its Key(). It returns the
// ingest, whose commit adds what it staged to st.
func (st *IngestState) stage(records []dataset.Record) (*Delta, *ingestCtx, error) {
	tab := st.tab.Overlay()
	cx := st.newCtx(tab)
	var shard clientShard
	shard.init(cx)
	shard.ingest(dataset.RecordsFromRows(tab, records), 0)
	if shard.err != nil {
		return nil, nil, fmt.Errorf("analysis: record %d: %w", shard.errIdx, shard.err)
	}
	return &Delta{agg: shard.finalize(), records: records}, cx, nil
}

// MergeDelta folds a delta into the client. The merge is commutative
// and associative (sorted-set unions and count additions), so any
// arrival order of the same deltas yields the same Client. The delta
// must not be reused afterwards. It runs the same merge as
// NewClientWorkers, so everything a Clone shares stays untouched: the
// first write to a shard or a FingerprintInfo after a Clone copies it,
// writes that change nothing are skipped, and orderedKeys is replaced
// only when the delta adds a fingerprint.
func (c *Client) MergeDelta(d *Delta) {
	c.merge(&d.agg)
	for _, r := range d.records {
		c.setDevice(r.DeviceID, r.Vendor, r.Type)
	}
}

// Clone returns a copy of the client that can be published as an
// immutable snapshot while the original keeps merging deltas. It copies
// the fixed shard-pointer arrays of the six indexes, not their entries,
// so its cost does not grow with the state: both Clients then share
// every shard, FingerprintInfo, StringSet and orderedKeys, and each gets
// a fresh generation, so whichever writes first copies the shard or
// info it writes. Merges never modify a shared value in place.
func (c *Client) Clone() *Client {
	out := new(Client)
	*out = *c
	out.gen = nextGen()
	c.gen = nextGen()
	return out
}
