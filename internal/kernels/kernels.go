// Package kernels builds per-channel PIM command stacks for the operations
// the paper offloads to PIM: fully-connected GEMV, attention score
// computation (QK^T) and attention value aggregation (SV), including the
// GQA variants and the row-reuse mapping of Sec. V-C.
//
// The builders are shape-faithful: they enumerate the exact WR-INP / MAC /
// RD-OUT / ACT / PRE command sequence a compiler would emit for the given
// buffer geometry, including input re-streaming when the Global Buffer
// cannot hold the operand and partial output drains when the accumulator
// file (baseline OutReg vs PIMphony OBuf) is too small to keep all live
// partial sums resident.
//
// Each builder has one body, which emits every command through a
// pim.Checker into a pim.Sink. The stack-returning forms (GEMV, QKT, SV)
// emit into a new pim.Stack. A sink that implements pim.Periodic, such as
// the static controller's sched.Stream, is never handed the repeated part
// of a token loop: the builder detects when its state, taken relative to
// the loop iteration, repeats and advances whole periods at once.
package kernels

import (
	"fmt"
	"slices"

	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// Buffers selects the channel buffer geometry a stack is built for.
type Buffers struct {
	GBufEntries int // input tiles resident in the Global Buffer
	OutEntries  int // per-bank accumulators (2 = baseline OutReg, 32 = OBuf)
}

// BaselineBuffers returns the conventional PIM buffer geometry: full GBuf
// but only the 4-byte per-bank output register file.
func BaselineBuffers(d timing.Device) Buffers {
	return Buffers{GBufEntries: d.GBufEntries(), OutEntries: d.OutRegEntries()}
}

// OBufBuffers returns PIMphony's I/O-aware buffer geometry with the
// expanded output buffer.
func OBufBuffers(d timing.Device) Buffers {
	return Buffers{GBufEntries: d.GBufEntries(), OutEntries: d.OBufEntries()}
}

// Config carries everything the builders need.
type Config struct {
	Dev timing.Device
	Buf Buffers
}

// NewConfig pairs a device with a buffer geometry.
func NewConfig(d timing.Device, b Buffers) Config { return Config{Dev: d, Buf: b} }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// validate rejects buffer geometries no kernel can be built for: without
// at least one GBuf entry and one accumulator the builders would never
// advance or would divide by zero.
func (b Buffers) validate() error {
	if b.GBufEntries <= 0 || b.OutEntries <= 0 {
		return fmt.Errorf("kernels: buffers need at least one GBuf entry and one accumulator, got %+v", b)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

// emitter queues commands; flush numbers them densely, checks them with a
// pim.Checker and hands them to the sink in one call. The first rejected
// command ends the stream; err reports it.
type emitter struct {
	chk   *pim.Checker
	sink  pim.Sink
	queue []pim.Command
	err   error
}

// queueLen bounds the commands an emitter holds before it flushes.
const queueLen = 128

func (e *emitter) put(c pim.Command) {
	if e.queue = append(e.queue, c); len(e.queue) == queueLen {
		e.flush()
	}
}

// flush numbers and checks the queued commands and hands the accepted
// ones to the sink.
func (e *emitter) flush() {
	if e.err == nil {
		n := e.chk.Len()
		for i := range e.queue {
			e.queue[i].ID = n + i
		}
		e.err = e.chk.Check(e.queue...)
		e.sink.Put(e.queue[:e.chk.Len()-n]...)
	}
	e.queue = e.queue[:0]
}

// ---------------------------------------------------------------------------
// Allocator helpers
// ---------------------------------------------------------------------------

// negOnes returns a slice of n entries all set to -1 ("none").
func negOnes(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = -1
	}
	return s
}

// residency maps the entries of a buffer to the keys they hold and back,
// filling entries round-robin. Keys are dense in [0, keys).
type residency struct {
	owner []int32 // entry -> key (-1 free)
	slot  []int32 // key -> entry (-1 not resident)
	next  int
}

func newResidency(entries, keys int) residency {
	return residency{owner: negOnes(entries), slot: negOnes(keys)}
}

// place returns the entry holding key and whether it was placed there
// just now, in the round-robin victim's entry.
func (r *residency) place(key int) (int, bool) {
	if e := r.slot[key]; e >= 0 {
		return int(e), false
	}
	e := r.next
	r.next = (r.next + 1) % len(r.owner)
	if old := r.owner[e]; old >= 0 {
		r.slot[old] = -1
	}
	r.owner[e] = int32(key)
	r.slot[key] = int32(e)
	return e, true
}

// appendKeys appends each entry's key less keyBase, free entries as
// pim.None.
func (r *residency) appendKeys(dst []int64, keyBase int) []int64 {
	for _, key := range r.owner {
		if key < 0 {
			dst = append(dst, pim.None)
		} else {
			dst = append(dst, int64(key)-int64(keyBase))
		}
	}
	return dst
}

// shift moves every resident key up by d, in both tables.
func (r *residency) shift(d int) {
	if d == 0 {
		return
	}
	for _, key := range r.owner {
		if key >= 0 {
			r.slot[key] = -1
		}
	}
	for e, key := range r.owner {
		if key >= 0 {
			r.owner[e] = key + int32(d)
			r.slot[key+int32(d)] = int32(e)
		}
	}
}

// gbufAlloc manages Global Buffer residency for input tiles. Acquiring a
// non-resident tile emits a WR-INP into a round-robin entry; acquiring a
// resident tile is free (data reuse).
type gbufAlloc struct {
	residency
	e *emitter
}

// acquire returns the GBuf entry holding the tile, streaming it in first if
// needed.
func (a *gbufAlloc) acquire(key int) int {
	e, placed := a.place(key)
	if placed {
		a.e.put(pim.Command{Kind: pim.WRINP, GBuf: e, Out: -1, Row: -1, Col: -1})
	}
	return e
}

// invalidateAll drops residency info (e.g. when a kernel phase reuses keys).
func (a *gbufAlloc) invalidateAll() {
	for e, key := range a.owner {
		if key >= 0 {
			a.slot[key] = -1
			a.owner[e] = -1
		}
	}
}

// outAlloc manages per-bank accumulator entries. Acquiring an accumulator
// for a new logical output while all entries are live evicts the
// round-robin victim with a partial RD-OUT drain (the EPU merges partial
// sums in the GPR).
type outAlloc struct {
	residency
	dirty []bool
	e     *emitter
}

// acquire returns the accumulator entry for the logical output key,
// draining a victim if necessary. A free entry is never dirty.
func (a *outAlloc) acquire(key int) int {
	e, placed := a.place(key)
	if placed {
		a.drain(e)
	}
	return e
}

// mac records an accumulation into the entry.
func (a *outAlloc) mac(e int) { a.dirty[e] = true }

// drain emits an RD-OUT of the entry if it holds an undrained sum.
func (a *outAlloc) drain(e int) {
	if a.dirty[e] {
		a.e.put(pim.Command{Kind: pim.RDOUT, GBuf: -1, Out: e, Row: -1, Col: -1})
		a.dirty[e] = false
	}
}

// release drains the accumulator of key if live and dirty (a completed
// logical output).
func (a *outAlloc) release(key int) {
	e := a.slot[key]
	if e < 0 {
		return
	}
	a.drain(int(e))
	a.slot[key] = -1
	a.owner[e] = -1
}

// flush drains every dirty accumulator (end of kernel).
func (a *outAlloc) flush() {
	for e := range a.owner {
		if a.owner[e] >= 0 {
			a.drain(e)
		}
	}
}

// rowTracker emits PRE/ACT pairs when the DRAM row of a MAC changes.
type rowTracker struct {
	e           *emitter
	tilesPerRow int
	open        int // -1 = closed
}

// mac emits the row commands needed for tile address addr and then the MAC.
func (r *rowTracker) mac(gbuf, out, addr int) {
	row, col := addr/r.tilesPerRow, addr%r.tilesPerRow
	if r.open != row {
		r.close()
		r.e.put(pim.Command{Kind: pim.ACT, GBuf: -1, Out: -1, Row: row, Col: -1})
		r.open = row
	}
	r.e.put(pim.Command{Kind: pim.MAC, GBuf: gbuf, Out: out, Row: row, Col: col})
}

// close precharges the open row, if any.
func (r *rowTracker) close() {
	if r.open >= 0 {
		r.e.put(pim.Command{Kind: pim.PRE, GBuf: -1, Out: -1, Row: r.open, Col: -1})
		r.open = -1
	}
}

// ---------------------------------------------------------------------------
// Builder and period skipping
// ---------------------------------------------------------------------------

// builder is one kernel's emission state: the checked stream, the GBuf
// and accumulator allocators and the open DRAM row.
type builder struct {
	emitter
	gb   gbufAlloc
	out  outAlloc
	rows rowTracker

	// per is the sink when it can take part in skipping periods, nil
	// otherwise. base holds the checker's and the sink's counters at the
	// anchor iteration.
	per         pim.Periodic
	base        [2][]int64
	anchor, cur []int64
}

// newBuilder starts a kernel over gbKeys input tiles and outKeys logical
// outputs. The builders open a row before their first MAC, so the checker
// checks MAC rows from the first command on.
func (c Config) newBuilder(sink pim.Sink, gbKeys, outKeys int) *builder {
	b := &builder{}
	b.emitter = emitter{chk: pim.NewChecker(c.Buf.GBufEntries, c.Buf.OutEntries, true), sink: sink,
		queue: make([]pim.Command, 0, queueLen)}
	b.gb = gbufAlloc{residency: newResidency(c.Buf.GBufEntries, gbKeys), e: &b.emitter}
	b.out = outAlloc{residency: newResidency(c.Buf.OutEntries, outKeys), dirty: make([]bool, c.Buf.OutEntries), e: &b.emitter}
	b.rows = rowTracker{e: &b.emitter, tilesPerRow: c.Dev.TilesPerRow(), open: -1}
	b.per, _ = sink.(pim.Periodic)
	return b
}

// finish closes the open row, drains every live accumulator, flushes the
// stream and reports the first rejected command, if any.
func (b *builder) finish() error {
	b.rows.close()
	b.out.flush()
	b.flush()
	return b.err
}

// span is a token-proportional loop of n iterations. Iteration j uses GBuf
// and accumulator keys j*gbStride and j*outStride above those of iteration
// 0 (stride 0 for keys that do not move with the loop), its first MAC
// reads tile address addr0 + j*addrStride, and only the last iteration
// may differ in shape.
type span struct {
	n, gbStride, outStride, addr0, addrStride int
}

// loop runs body for every iteration of sp, skipping whole periods when
// the sink takes part (see skip).
func (b *builder) loop(sp span, body func(j int)) {
	j := 0
	if b.per != nil {
		j = b.skip(sp, body)
	}
	for ; j < sp.n; j++ {
		body(j)
	}
}

// skip runs body until the builder's state at the start of an iteration,
// taken relative to that iteration, repeats; it then advances every
// iteration but the last by whole periods and returns the first iteration
// left to run. It flushes the emitter before taking a state, so the
// checker and the sink have seen every command emitted. It compares against one saved anchor state, re-anchored at
// power-of-two distances (Brent's cycle detection), so a period P is found
// within about prologue + 2P iterations. Matching states at iterations a
// and i mean iterations i, i+1, ... repeat a, a+1, ... with keys, rows and
// times shifted: every command a skipped period would emit is a shifted
// copy of one the checker accepted. The last iteration may be partial, so
// it always runs in full.
func (b *builder) skip(sp span, body func(j int)) int {
	a, power := 0, 1
	b.flush()
	b.anchor = b.state(b.anchor[:0], sp, 0)
	b.mark()
	for i := 0; i < sp.n-1; i++ {
		if i > a {
			b.flush()
			if b.matches(sp, i) {
				p := i - a
				m := (sp.n - 1 - i) / p
				b.advance(sp, p, m)
				return i + m*p
			}
			if i-a == power {
				a, power = i, 2*power
				b.anchor = b.state(b.anchor[:0], sp, i)
				b.mark()
			}
		}
		body(i)
	}
	return max(sp.n-1, 0)
}

// state appends everything the rest of a loop reads, at the start of
// iteration j and relative to it (see head and tables).
func (b *builder) state(dst []int64, sp span, j int) []int64 {
	return b.tables(b.head(dst, sp, j), sp, j)
}

// matches reports whether the state at the start of iteration j equals
// the anchor's. It compares the head first, which rarely matches, and
// appends the tables only when it does.
func (b *builder) matches(sp span, j int) bool {
	b.cur = b.head(b.cur[:0], sp, j)
	if len(b.cur) > len(b.anchor) || !slices.Equal(b.cur, b.anchor[:len(b.cur)]) {
		return false
	}
	b.cur = b.tables(b.cur, sp, j)
	return slices.Equal(b.cur, b.anchor)
}

// head appends the small part of the state: both allocators' round-robin
// pointers, the column phase of iteration j's first tile address, the open
// row relative to that address's row, and the sink's state on the same
// row base.
func (b *builder) head(dst []int64, sp span, j int) []int64 {
	addr := sp.addr0 + j*sp.addrStride
	rowBase := addr / b.rows.tilesPerRow
	dst = append(dst, int64(b.gb.next), int64(b.out.next), int64(addr%b.rows.tilesPerRow))
	if b.rows.open < 0 {
		dst = append(dst, pim.None)
	} else {
		dst = append(dst, int64(b.rows.open-rowBase))
	}
	return b.per.AppendState(dst, rowBase)
}

// tables appends the rest: each allocator's keys less iteration j's key
// offset, the dirty flags and the checker's state.
func (b *builder) tables(dst []int64, sp span, j int) []int64 {
	dst = b.gb.appendKeys(dst, j*sp.gbStride)
	dst = b.out.appendKeys(dst, j*sp.outStride)
	dst = pim.AppendFlags(dst, b.out.dirty)
	addr := sp.addr0 + j*sp.addrStride
	return b.chk.AppendState(dst, addr/b.rows.tilesPerRow)
}

// periodic lists the checker and the sink, the two parts of the stream
// with counters.
func (b *builder) periodic() [2]pim.Periodic { return [2]pim.Periodic{b.chk, b.per} }

// mark saves the counters at the anchor.
func (b *builder) mark() {
	for k, p := range b.periodic() {
		b.base[k] = p.AppendCounters(b.base[k][:0])
	}
}

// advance moves the builder m periods of p iterations ahead: keys by
// m*p*stride, the open row by as many rows as the tile addresses moved
// (a whole number, since the column phases matched), and every counter by
// m times its change since the anchor.
func (b *builder) advance(sp span, p, m int) {
	if m == 0 {
		return
	}
	b.gb.shift(m * p * sp.gbStride)
	b.out.shift(m * p * sp.outStride)
	if b.rows.open >= 0 {
		b.rows.open += m * (p * sp.addrStride / b.rows.tilesPerRow)
	}
	for k, per := range b.periodic() {
		delta := per.AppendCounters(b.cur[:0])
		for x := range delta {
			delta[x] -= b.base[k][x]
		}
		per.Advance(delta, m)
	}
}

// stack materializes a kernel: emit writes it into a new stack.
func (c Config) stack(emit func(pim.Sink) error) (*pim.Stack, error) {
	s := pim.NewStack(c.Buf.GBufEntries, c.Buf.OutEntries)
	if err := emit(s); err != nil {
		return nil, err
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// GEMV / FC
// ---------------------------------------------------------------------------

// GEMV builds the command stack of a (1 x din) * (din x dout) GEMV with the
// weight matrix resident in the channel's DRAM (see EmitGEMV).
func (c Config) GEMV(din, dout int) (*pim.Stack, error) {
	return c.stack(func(s pim.Sink) error { return c.EmitGEMV(s, din, dout) })
}

// EmitGEMV emits the GEMV's command stream into sink. The input vector
// streams into GBuf in blocks (the whole vector when it fits); for each
// resident block every output group accumulates its MACs, with the
// accumulator file bounding how many groups stay live before a partial
// drain. The compiler owns the weight layout, so tiles are stored in
// traversal order — each weight tile is read exactly once and rows are
// walked sequentially.
func (c Config) EmitGEMV(sink pim.Sink, din, dout int) error {
	if din <= 0 || dout <= 0 {
		return fmt.Errorf("kernels: GEMV dims must be positive, got (%d,%d)", din, dout)
	}
	if err := c.Buf.validate(); err != nil {
		return err
	}
	d := c.Dev
	inTiles := ceilDiv(din, d.ElemsPerTile())
	groups := ceilDiv(dout, d.Banks)
	block := min(c.Buf.GBufEntries, inTiles)
	b := c.newBuilder(sink, inTiles, groups)

	addr := 0 // weights laid out in traversal order
	for k0 := 0; k0 < inTiles; k0 += block {
		k1 := min(k0+block, inTiles)
		for g := 0; g < groups; g++ {
			oe := b.out.acquire(g)
			for k := k0; k < k1; k++ {
				ge := b.gb.acquire(k)
				b.rows.mac(ge, oe, addr)
				addr++
				b.out.mac(oe)
			}
			if k1 == inTiles {
				b.out.release(g) // final block: the group is complete
			}
		}
	}
	if err := b.finish(); err != nil {
		return fmt.Errorf("kernels: GEMV(%d,%d) built invalid stack: %w", din, dout, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Attention QK^T
// ---------------------------------------------------------------------------

// QKT builds the score kernel's command stack (see EmitQKT).
func (c Config) QKT(tokens, dh, queries int, rowReuse bool) (*pim.Stack, error) {
	return c.stack(func(s pim.Sink) error { return c.EmitQKT(s, tokens, dh, queries, rowReuse) })
}

// EmitQKT emits the score kernel for one attention head slice on one
// channel into sink: `tokens` keys resident in DRAM, `queries` query
// vectors of dimension dh (queries > 1 models GQA where a group of query
// heads shares the keys).
//
// With rowReuse=true the kernel iterates DRAM rows in the outer loop and
// queries in the inner loop, re-streaming each query's tiles at every row
// visit (the paper's row-reuse mapping: fewer ACT/PRE, more WR-INP). With
// rowReuse=false each query performs a full pass over the key rows with its
// tiles resident in GBuf (more ACT/PRE, fewer WR-INP).
func (c Config) EmitQKT(sink pim.Sink, tokens, dh, queries int, rowReuse bool) error {
	if tokens <= 0 || dh <= 0 || queries <= 0 {
		return fmt.Errorf("kernels: QKT args must be positive, got tokens=%d dh=%d queries=%d", tokens, dh, queries)
	}
	if err := c.Buf.validate(); err != nil {
		return err
	}
	d := c.Dev
	dhTiles := ceilDiv(dh, d.ElemsPerTile())
	groups := ceilDiv(tokens, d.Banks) // one score group = Banks keys
	slotsPerRow := max(d.TilesPerRow()/dhTiles, 1)
	nRows := ceilDiv(groups, slotsPerRow)
	b := c.newBuilder(sink, queries*dhTiles, queries*groups)

	macGroup := func(q, g int) {
		key := q*groups + g
		oe := b.out.acquire(key)
		for k := 0; k < dhTiles; k++ {
			ge := b.gb.acquire(q*dhTiles + k)
			b.rows.mac(ge, oe, g*dhTiles+k)
			b.out.mac(oe)
		}
		b.out.release(key) // a score group is complete after dhTiles MACs
	}

	if rowReuse {
		b.loop(span{n: nRows, outStride: slotsPerRow, addrStride: slotsPerRow * dhTiles}, func(r int) {
			lo, hi := r*slotsPerRow, min((r+1)*slotsPerRow, groups)
			for q := 0; q < queries; q++ {
				// Row-reuse swaps this query's tiles back in at every row.
				if queries > 1 {
					b.gb.invalidateAll()
				}
				for g := lo; g < hi; g++ {
					macGroup(q, g)
				}
			}
		})
	} else {
		for q := 0; q < queries; q++ {
			b.loop(span{n: groups, outStride: 1, addrStride: dhTiles}, func(g int) { macGroup(q, g) })
		}
	}
	if err := b.finish(); err != nil {
		return fmt.Errorf("kernels: QKT(tokens=%d dh=%d q=%d rowReuse=%v) invalid: %w", tokens, dh, queries, rowReuse, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Attention SV
// ---------------------------------------------------------------------------

// SV builds the value-aggregation kernel's command stack (see EmitSV).
func (c Config) SV(tokens, dh, queries int, rowReuse bool) (*pim.Stack, error) {
	return c.stack(func(s pim.Sink) error { return c.EmitSV(s, tokens, dh, queries, rowReuse) })
}

// EmitSV emits the value-aggregation kernel for one head slice on one
// channel into sink: y = s * V where s holds `tokens` softmax scores (per
// query) and V is the tokens x dh value cache. The score vector is the
// streamed input (low reuse: the paper's I/O-bound case); the dh outputs
// form dh/Banks groups.
//
// The accumulator file bounds how many output groups can stay live during
// one streaming pass: with the baseline 2-entry OutReg the scores must be
// re-streamed ceil(groups/2) times, while PIMphony's OBuf usually holds all
// groups and streams the scores once. With rowReuse=true and queries > 1,
// DRAM rows are the outer loop and each query's score chunks are re-streamed
// per row visit.
func (c Config) EmitSV(sink pim.Sink, tokens, dh, queries int, rowReuse bool) error {
	if tokens <= 0 || dh <= 0 || queries <= 0 {
		return fmt.Errorf("kernels: SV args must be positive, got tokens=%d dh=%d queries=%d", tokens, dh, queries)
	}
	if err := c.Buf.validate(); err != nil {
		return err
	}
	d := c.Dev
	chunks := ceilDiv(tokens, d.ElemsPerTile()) // score tiles per query
	groups := ceilDiv(dh, d.Banks)              // output groups (dh across banks)
	b := c.newBuilder(sink, queries*chunks, queries*groups)

	// V layout is token-major per group batch: addr = k*groups + o so a
	// streaming pass over chunks walks rows sequentially. chunk streams
	// score chunk k of query q against output groups [g0, g1).
	chunk := func(q, k, g0, g1 int) {
		ge := b.gb.acquire(q*chunks + k)
		for o := g0; o < g1; o++ {
			oe := b.out.acquire(q*groups + o)
			b.rows.mac(ge, oe, k*groups+o)
			b.out.mac(oe)
		}
	}

	if rowReuse && queries > 1 {
		// Row-outer mapping: every V row is activated once; all queries'
		// score chunks touching that row are streamed per visit.
		chunksPerRow := max(ceilDiv(d.TilesPerRow(), groups), 1)
		nRows := ceilDiv(chunks, chunksPerRow)
		b.loop(span{n: nRows, gbStride: chunksPerRow, addrStride: chunksPerRow * groups}, func(r int) {
			lo, hi := r*chunksPerRow, min((r+1)*chunksPerRow, chunks)
			for q := 0; q < queries; q++ {
				b.gb.invalidateAll() // scores swapped in per row visit
				for k := lo; k < hi; k++ {
					chunk(q, k, 0, groups)
				}
			}
		})
	} else {
		// Query-outer mapping: per query, output groups are processed in
		// batches bounded by the accumulator file; scores are re-streamed
		// once per batch.
		batch := min(c.Buf.OutEntries, groups)
		for q := 0; q < queries; q++ {
			for g0 := 0; g0 < groups; g0 += batch {
				g1 := min(g0+batch, groups)
				b.gb.invalidateAll() // a new streaming pass over the scores
				b.loop(span{n: chunks, gbStride: 1, addr0: g0, addrStride: groups}, func(k int) { chunk(q, k, g0, g1) })
				for o := g0; o < g1; o++ {
					b.out.release(q*groups + o)
				}
			}
		}
	}
	if err := b.finish(); err != nil {
		return fmt.Errorf("kernels: SV(tokens=%d dh=%d q=%d rowReuse=%v) invalid: %w", tokens, dh, queries, rowReuse, err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Introspection helpers used by experiments and tests
// ---------------------------------------------------------------------------

// Stats summarises a built stack.
type Stats struct {
	WrInp, Mac, RdOut, Act, Pre int
}

// StackStats tallies a stack by command kind.
func StackStats(s *pim.Stack) Stats {
	c := s.Counts()
	return Stats{
		WrInp: c[pim.WRINP],
		Mac:   c[pim.MAC],
		RdOut: c[pim.RDOUT],
		Act:   c[pim.ACT],
		Pre:   c[pim.PRE],
	}
}
