package dataset

import (
	"math/rand"
	"sort"

	"repro/internal/intern"
)

// Generate runs as a two-goroutine pipeline. The plan (the calling
// goroutine) makes every rng draw, the 32-byte client randoms
// included, and fills one planRow per record. The stamp goroutine
// writes each record's wire bytes: it marshals a hello once per
// distinct (stack, SNI) pair, for the first record that sends it, and
// later records copy that record's bytes with their own random patched
// in; records sharing a stack and SNI differ in nothing else. The plan
// hands records over in fixed blocks, and once it ends the records are
// sorted by time once, through a permutation.

const (
	// stampBlockBits sizes a block: 1<<stampBlockBits records.
	stampBlockBits = 12
	stampBlockSize = 1 << stampBlockBits
	// stampBlocks blocks are in flight at once: one the plan fills,
	// the rest queued for or being written by the stamp.
	stampBlocks = 3
)

// tmplKey identifies one hello template by interned (stack, SNI)
// symbols — a comparable struct, so the lookup allocates nothing.
type tmplKey struct {
	stack, sni intern.Symbol
}

// planRow is one record as the plan draws it: its symbols and time,
// and the wire-byte span the stamp fills in.
type planRow struct {
	device, vendor, model, typ, user, sni, stack intern.Symbol
	timeNS                                       int64
	rawOff, rawLen                               uint32
}

// stampBlock carries up to stampBlockSize records from the plan to the
// stamp: their rows, and for each its client random (32 bytes), the
// stack that sends it and its SNI. The rows stay with the plan's row
// chunks; the rest of a block is recycled.
type stampBlock struct {
	rows   []planRow
	random []byte
	stacks []*Stack
	snis   []string
}

// helloStamper is the plan's end of the pipeline.
type helloStamper struct {
	cols *columns
	// chunks holds every row in generation order, stampBlockSize rows
	// per chunk. Once sent, a chunk's rawOff and rawLen belong to the
	// stamp until it is done; the plan writes no row of it again.
	chunks [][]planRow
	cur    *stampBlock
	// full carries blocks to the stamp and free brings them back. Each
	// is buffered for all stampBlocks blocks, so neither side's send
	// ever waits.
	full, free chan *stampBlock
	done       chan struct{}
	// hits and misses count the records that copied an earlier
	// record's hello and those that marshaled one. The stamp writes
	// them; they are read after finish.
	hits, misses int64
}

// newHelloStamper starts the stamp goroutine. Until finish returns, the
// stamp alone owns cols.raw and cols.rawFill.
func newHelloStamper(cols *columns) *helloStamper {
	p := &helloStamper{
		cols: cols,
		full: make(chan *stampBlock, stampBlocks),
		free: make(chan *stampBlock, stampBlocks),
		done: make(chan struct{}),
	}
	for i := 0; i < stampBlocks; i++ {
		p.free <- &stampBlock{
			random: make([]byte, 32*stampBlockSize),
			stacks: make([]*Stack, stampBlockSize),
			snis:   make([]string, stampBlockSize),
		}
	}
	p.next()
	go p.stamp()
	return p
}

// add appends one record, sent by stack to sni. r carries its symbols
// and time. The client random is the record's last rng draw, one
// 32-byte read as a direct marshal would make it.
func (p *helloStamper) add(r planRow, stack *Stack, sni string, rng *rand.Rand) {
	b := p.cur
	k := len(b.rows)
	b.rows = append(b.rows, r)
	b.stacks[k], b.snis[k] = stack, sni
	rng.Read(b.random[32*k : 32*k+32])
	if k+1 == stampBlockSize {
		p.send()
		p.next()
	}
}

// next takes a recycled block and gives it a fresh row chunk.
func (p *helloStamper) next() {
	b := <-p.free
	b.rows = make([]planRow, 0, stampBlockSize)
	p.cur = b
}

func (p *helloStamper) send() {
	p.chunks = append(p.chunks, p.cur.rows)
	p.full <- p.cur
}

// stamp writes every record's wire bytes in generation order, so each
// rawOff is where a single loop would have put it. The chunks never
// move, so a template is the span of the first record that sent it.
func (p *helloStamper) stamp() {
	tmpls := map[tmplKey]span{}
	for b := range p.full {
		for k := range b.rows {
			r := &b.rows[k]
			key := tmplKey{stack: r.stack, sni: r.sni}
			t, hit := tmpls[key]
			var src []byte
			if hit {
				src = p.cols.rawSpan(t.off, t.n)
				p.hits++
			} else {
				src = buildHelloTemplate(b.stacks[k].Print, b.snis[k])
				p.misses++
			}
			off, buf := p.cols.rawAppend(len(src))
			copy(buf, src)
			copy(buf[helloRandomOff:helloRandomOff+32], b.random[32*k:])
			r.rawOff, r.rawLen = off, uint32(len(src))
			if !hit {
				tmpls[key] = span{off: off, n: r.rawLen}
			}
		}
		p.free <- b
	}
	close(p.done)
}

// span addresses one record's wire bytes in the raw chunks.
type span struct{ off, n uint32 }

// finish sends the last block, sorts the records by time and lays the
// columns out in that order. The sort runs while the stamp writes its
// last blocks.
func (p *helloStamper) finish() {
	if len(p.cur.rows) > 0 {
		p.send()
	}
	close(p.full)
	n := 0
	for _, chunk := range p.chunks {
		n += len(chunk)
	}
	order := make(timeOrder, 0, n)
	for _, chunk := range p.chunks {
		for k := range chunk {
			order = append(order, timeIdx{timeNS: chunk[k].timeNS, i: int32(len(order))})
		}
	}
	sort.Sort(order)
	<-p.done
	c := p.cols
	c.device = make([]intern.Symbol, n)
	c.vendor = make([]intern.Symbol, n)
	c.model = make([]intern.Symbol, n)
	c.typ = make([]intern.Symbol, n)
	c.user = make([]intern.Symbol, n)
	c.sni = make([]intern.Symbol, n)
	c.stack = make([]intern.Symbol, n)
	c.timeNS = make([]int64, n)
	c.rawOff = make([]uint32, n)
	c.rawLen = make([]uint32, n)
	for k, o := range order {
		r := &p.chunks[o.i>>stampBlockBits][o.i&(stampBlockSize-1)]
		c.device[k], c.vendor[k], c.model[k], c.typ[k], c.user[k] = r.device, r.vendor, r.model, r.typ, r.user
		c.sni[k], c.stack[k] = r.sni, r.stack
		c.timeNS[k], c.rawOff[k], c.rawLen[k] = o.timeNS, r.rawOff, r.rawLen
	}
	p.chunks = nil
}

// timeIdx is one record's time and generation index.
type timeIdx struct {
	timeNS int64
	i      int32
}

// timeOrder orders records by time alone. sort.Sort's pdqsort makes its
// choices from Less and Len only, so sorting these pairs moves every
// record exactly as sorting the columns in place did, equal times
// included; a stable sort or a tie-breaker would order equal times
// differently.
type timeOrder []timeIdx

func (s timeOrder) Len() int           { return len(s) }
func (s timeOrder) Less(i, j int) bool { return s[i].timeNS < s[j].timeNS }
func (s timeOrder) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
