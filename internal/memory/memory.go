// Package memory implements the two KV-cache management schemes compared in
// Sec. VI of the paper: conventional static allocation, which reserves
// T_max-sized regions per request because PIM instruction streams embed
// fixed physical addresses, and PIMphony's Dynamic PIM Access (DPA)
// allocation, which lazily maps 1 MB chunks through a VA2PA table as a
// request's KV cache grows.
package memory

import (
	"fmt"
)

// DefaultChunkBytes is the paper's DPA allocation granularity.
const DefaultChunkBytes = 1 << 20

// Allocator is a KV-cache capacity manager for one memory pool (a module or
// a whole system partition).
type Allocator interface {
	Name() string
	// Admit reserves space for a new request with the given current
	// context length; it fails if capacity is insufficient.
	Admit(reqID, tokens int) error
	// Grow extends a request's context to newTokens (monotonically).
	Grow(reqID, newTokens int) error
	// Release frees all memory of a request.
	Release(reqID int) error
	// CanAdmit reports whether a request of the given length would fit.
	CanAdmit(tokens int) bool
	// GrowBudget is the batched next-boundary query behind the serving
	// engine's multi-step fast-forward: how many additional tokens each
	// of the given admitted requests can absorb, all growing one token
	// per step in lockstep, before a Grow call could fail (the
	// preemption/eviction trigger a fast-forward must not skip past).
	// The answer is min(budget, limit): a caller that will not leap past
	// limit anyway lets the allocator stop probing there. Growth within
	// the budget may still map memory — allocation that cannot fail is
	// not an event, and a single batched Grow to the final count leaves
	// the allocator in the same observable state as one call per token.
	// Zero means the very next lockstep Grow could hit a boundary; an
	// unknown request ID or a non-positive limit also yields zero.
	GrowBudget(reqIDs []int, limit int) int
	// LiveBytes is the memory holding actual KV data.
	LiveBytes() int64
	// ReservedBytes is the memory unavailable to other requests.
	ReservedBytes() int64
	// CapacityBytes is the pool size.
	CapacityBytes() int64
}

// Utilization is live / reserved bytes: how much of the memory an
// allocator has claimed actually holds KV data. When nothing is reserved
// it is defined as zero.
func Utilization(a Allocator) float64 {
	r := a.ReservedBytes()
	if r == 0 {
		return 0
	}
	return float64(a.LiveBytes()) / float64(r)
}

// PoolUtilization is live / pool capacity — the Fig. 19 metric, evaluated
// when the admission loop has filled the pool: static T_max reservations
// strand most of the pool (the paper measures 31.0-40.5%), while DPA's
// lazy chunks reach ~75%.
func PoolUtilization(a Allocator) float64 {
	c := a.CapacityBytes()
	if c == 0 {
		return 0
	}
	return float64(a.LiveBytes()) / float64(c)
}

// ---------------------------------------------------------------------------
// Static allocator
// ---------------------------------------------------------------------------

// Static reserves a fixed T_max-sized KV region per admitted request,
// mirroring conventional PIM systems whose compiled instruction streams
// address physical memory directly (Fig. 10a).
type Static struct {
	capacity      int64
	bytesPerToken int64
	tmax          int
	live          map[int]int64 // request -> live KV bytes
	reservePer    int64
	liveSum       int64 // Σ live, so LiveBytes is O(1) on the sampling path
}

// NewStatic builds a static allocator for a pool of the given capacity.
func NewStatic(capacity, bytesPerToken int64, tmax int) (*Static, error) {
	if capacity <= 0 || bytesPerToken <= 0 || tmax <= 0 {
		return nil, fmt.Errorf("memory: static allocator params must be positive")
	}
	return &Static{
		capacity:      capacity,
		bytesPerToken: bytesPerToken,
		tmax:          tmax,
		live:          make(map[int]int64),
		reservePer:    int64(tmax) * bytesPerToken,
	}, nil
}

// Name implements Allocator.
func (s *Static) Name() string { return "static" }

// Admit implements Allocator.
func (s *Static) Admit(reqID, tokens int) error {
	if _, ok := s.live[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	if tokens > s.tmax {
		return fmt.Errorf("memory: request %d context %d exceeds T_max %d", reqID, tokens, s.tmax)
	}
	if !s.CanAdmit(tokens) {
		return fmt.Errorf("memory: static pool full (%d reserved of %d)", s.ReservedBytes(), s.capacity)
	}
	s.live[reqID] = int64(tokens) * s.bytesPerToken
	s.liveSum += s.live[reqID]
	return nil
}

// Grow implements Allocator. Static growth never allocates — the region was
// pre-reserved — but overflowing T_max is fatal.
func (s *Static) Grow(reqID, newTokens int) error {
	cur, ok := s.live[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens > s.tmax {
		return fmt.Errorf("memory: request %d grew past T_max %d", reqID, s.tmax)
	}
	nb := int64(newTokens) * s.bytesPerToken
	if nb < cur {
		return fmt.Errorf("memory: request %d shrank (%d -> %d tokens)", reqID, cur/s.bytesPerToken, newTokens)
	}
	s.liveSum += nb - cur
	s.live[reqID] = nb
	return nil
}

// Release implements Allocator.
func (s *Static) Release(reqID int) error {
	b, ok := s.live[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	s.liveSum -= b
	delete(s.live, reqID)
	return nil
}

// CanAdmit implements Allocator.
func (s *Static) CanAdmit(tokens int) bool {
	if tokens > s.tmax {
		return false
	}
	return s.ReservedBytes()+s.reservePer <= s.capacity
}

// GrowBudget implements Allocator: static regions are pre-reserved, so
// growth never allocates and can only fail past T_max — each request's
// budget is its headroom to the window.
func (s *Static) GrowBudget(reqIDs []int, limit int) int {
	if len(reqIDs) == 0 || limit <= 0 {
		return 0
	}
	budget := limit
	for _, id := range reqIDs {
		b, ok := s.live[id]
		if !ok {
			return 0
		}
		budget = min(budget, s.tmax-int(b/s.bytesPerToken))
	}
	return budget
}

// LiveBytes implements Allocator.
func (s *Static) LiveBytes() int64 { return s.liveSum }

// ReservedBytes implements Allocator.
func (s *Static) ReservedBytes() int64 { return int64(len(s.live)) * s.reservePer }

// CapacityBytes implements Allocator.
func (s *Static) CapacityBytes() int64 { return s.capacity }

// MaxBatch is the static batch-size bound: capacity / T_max reservation.
func (s *Static) MaxBatch() int { return int(s.capacity / s.reservePer) }

// ---------------------------------------------------------------------------
// DPA allocator
// ---------------------------------------------------------------------------

// ChunkID is a physical chunk index within the pool.
type ChunkID int

// maxGrowBudget caps every DPA GrowBudget answer: a budget this large
// outlasts any leap, and the cap keeps chunk-demand probes far from
// integer overflow.
const maxGrowBudget = 1 << 30

// DPA implements lazy chunked allocation with virtual-to-physical chunk
// translation, the software model of the on-module dispatcher's VA2PA table
// (Fig. 11). Chunks are handed out on demand as requests grow, so internal
// fragmentation is limited to the final chunk of each request.
//
// The host-side bookkeeping is lazy too, so its cost follows the live
// requests, not the pool size. Chunks that were never mapped are only a
// high-water mark; released chunks sit on a stack above them. Chunks
// come off in the order of an eager free list holding every
// never-mapped ID in descending order beneath the released stack,
// popped from the back. A released request's VA2PA row is kept for a
// later admission, so a steady admit/grow/release cycle allocates
// nothing.
type DPA struct {
	capacity      int64
	bytesPerToken int64
	chunkBytes    int64
	nChunks       int
	fresh         int       // chunks [fresh, nChunks) have never been mapped
	released      []ChunkID // freed chunks; the next one handed out is last
	reqs          map[int]*dpaReq
	spare         []*dpaReq // released entries, rows kept for reuse
	hostMessages  int       // host<->module allocation messages (Sec. VI-C)

	// Running aggregates so LiveBytes/ReservedBytes are O(1) — the
	// serving engine samples capacity on every leap, which made the map
	// walks here a measurable share of the whole simulation.
	liveTokSum int64 // Σ live tokens
	mappedSum  int64 // Σ mapped chunks

	// growScratch snapshots (live tokens, mapped chunks) per request so
	// GrowBudget's probes walk a slice instead of the map.
	growScratch []growSnap
}

// dpaReq is one admitted request: its live token count and its VA2PA
// row (virtual chunk order -> physical chunk).
type dpaReq struct {
	live int
	row  []ChunkID
}

type growSnap struct{ live, have int }

// NewDPA builds a DPA allocator with the given chunk granularity. Its
// cost does not depend on the pool size: no chunk is listed until one is
// released.
func NewDPA(capacity, bytesPerToken, chunkBytes int64) (*DPA, error) {
	if capacity <= 0 || bytesPerToken <= 0 || chunkBytes <= 0 {
		return nil, fmt.Errorf("memory: DPA allocator params must be positive")
	}
	n := int(capacity / chunkBytes)
	if n == 0 {
		return nil, fmt.Errorf("memory: capacity %d below one chunk (%d)", capacity, chunkBytes)
	}
	return &DPA{
		capacity:      capacity,
		bytesPerToken: bytesPerToken,
		chunkBytes:    chunkBytes,
		nChunks:       n,
		reqs:          make(map[int]*dpaReq),
	}, nil
}

// Name implements Allocator.
func (d *DPA) Name() string { return "dpa" }

// chunksFor is the chunk count needed for a context length.
func (d *DPA) chunksFor(tokens int) int {
	b := int64(tokens) * d.bytesPerToken
	return int((b + d.chunkBytes - 1) / d.chunkBytes)
}

// free is the number of unmapped chunks.
func (d *DPA) free() int { return d.nChunks - d.fresh + len(d.released) }

// take appends k free chunks to row, in the order the eager free list's
// tail held them: when the released stack runs short, the lowest
// never-mapped IDs first, highest first; then the top of the stack in
// stack order.
func (d *DPA) take(row []ChunkID, k int) []ChunkID {
	if r := len(d.released); k > r {
		for c := d.fresh + k - r - 1; c >= d.fresh; c-- {
			row = append(row, ChunkID(c))
		}
		d.fresh += k - r
		k = r
	}
	n := len(d.released) - k
	row = append(row, d.released[n:]...)
	d.released = d.released[:n]
	return row
}

// entry returns a request entry whose row can hold need chunks: the
// spare with the smallest row that fits, else the spare with the
// largest row given a new one sized exactly (a fresh entry when there
// are no spares). Best fit keeps long rows for long requests, so the
// rows a pool keeps track its concurrent demand instead of each growing
// to the longest request it ever served.
func (d *DPA) entry(need int) *dpaReq {
	best, largest := -1, -1
	for i, r := range d.spare {
		c := cap(r.row)
		if c >= need && (best < 0 || c < cap(d.spare[best].row)) {
			best = i
		}
		if largest < 0 || c > cap(d.spare[largest].row) {
			largest = i
		}
	}
	if best < 0 {
		best = largest
	}
	if best < 0 {
		return &dpaReq{row: make([]ChunkID, 0, need)}
	}
	r := d.spare[best]
	last := len(d.spare) - 1
	d.spare[best], d.spare[last] = d.spare[last], nil
	d.spare = d.spare[:last]
	if cap(r.row) < need {
		r.row = make([]ChunkID, 0, need)
	}
	return r
}

// Admit implements Allocator.
func (d *DPA) Admit(reqID, tokens int) error {
	if _, ok := d.reqs[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	need := d.chunksFor(tokens)
	if free := d.free(); need > free {
		return fmt.Errorf("memory: DPA pool has %d free chunks, need %d", free, need)
	}
	r := d.entry(need)
	r.live = tokens
	r.row = d.take(r.row[:0], need)
	d.reqs[reqID] = r
	d.liveTokSum += int64(tokens)
	d.mappedSum += int64(need)
	d.hostMessages++ // initial VA2PA setup
	return nil
}

// Grow implements Allocator: allocates additional chunks only when the new
// context spills past the last mapped chunk (lazy allocation).
func (d *DPA) Grow(reqID, newTokens int) error {
	r, ok := d.reqs[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens < r.live {
		return fmt.Errorf("memory: request %d shrank (%d -> %d)", reqID, r.live, newTokens)
	}
	if extra := d.chunksFor(newTokens) - len(r.row); extra > 0 {
		if free := d.free(); extra > free {
			return fmt.Errorf("memory: DPA pool exhausted growing request %d (need %d chunks, %d free)", reqID, extra, free)
		}
		r.row = d.take(r.row, extra)
		d.mappedSum += int64(extra)
		d.hostMessages++ // one host message per chunk-allocation event
	}
	d.liveTokSum += int64(newTokens - r.live)
	r.live = newTokens
	return nil
}

// Release implements Allocator: the request's chunks go on top of the
// released stack and its entry to the spares.
func (d *DPA) Release(reqID int) error {
	r, ok := d.reqs[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	d.released = append(d.released, r.row...)
	d.mappedSum -= int64(len(r.row))
	d.liveTokSum -= int64(r.live)
	delete(d.reqs, reqID)
	r.row = r.row[:0]
	d.spare = append(d.spare, r)
	d.hostMessages++
	return nil
}

// CanAdmit implements Allocator.
func (d *DPA) CanAdmit(tokens int) bool { return d.chunksFor(tokens) <= d.free() }

// GrowBudget implements Allocator: the largest lockstep growth, up to
// limit, whose chunk demand across the whole batch fits the free
// chunks. Growth within the budget cannot fail at any step prefix
// (chunk demand is monotone in the step count), so the fast-forward can
// leap through it; lazy allocation past the budget can exhaust the pool
// — the preemption trigger. One probe at the limit settles the common
// case; only a pool too tight for it pays a binary search below it. A
// batched Grow covering several chunks coalesces the per-chunk host
// messages into one, which only the host-message counter (not any
// capacity or serving metric) can observe.
func (d *DPA) GrowBudget(reqIDs []int, limit int) int {
	if len(reqIDs) == 0 || limit <= 0 {
		return 0
	}
	limit = min(limit, maxGrowBudget)
	// Snapshot each request's live tokens and mapped chunks once; the
	// probes below then walk a slice instead of the map.
	snap := d.growScratch[:0]
	for _, id := range reqIDs {
		r, ok := d.reqs[id]
		if !ok {
			return 0
		}
		snap = append(snap, growSnap{live: r.live, have: len(r.row)})
	}
	d.growScratch = snap
	free := d.free()
	// Chunks the batch must allocate to grow n tokens per request.
	need := func(n int) int {
		total := 0
		for _, s := range snap {
			total += d.chunksFor(s.live+n) - s.have
		}
		return total
	}
	if need(limit) <= free {
		return limit
	}
	// need(0) <= 0 <= free < need(limit): every row already maps its
	// live tokens. Search for the largest affordable n below the limit.
	lo, hi := 0, limit
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if need(mid) <= free {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// LiveBytes implements Allocator.
func (d *DPA) LiveBytes() int64 { return d.liveTokSum * d.bytesPerToken }

// ReservedBytes implements Allocator.
func (d *DPA) ReservedBytes() int64 { return d.mappedSum * d.chunkBytes }

// CapacityBytes implements Allocator.
func (d *DPA) CapacityBytes() int64 { return d.capacity }

// HostMessages counts host<->module management messages so far; the paper
// argues these are rare (not per decode step).
func (d *DPA) HostMessages() int { return d.hostMessages }

// Translate resolves a request-relative virtual byte address to a physical
// byte address through the VA2PA table, mirroring the on-module
// dispatcher's decode step. Negative addresses are rejected before the
// division: truncation toward zero would put (-chunkBytes, 0) in virtual
// chunk 0 and resolve into the physically preceding chunk, which may
// belong to another request.
func (d *DPA) Translate(reqID int, vaddr int64) (int64, error) {
	r, ok := d.reqs[reqID]
	if !ok {
		return 0, fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if vaddr < 0 || vaddr/d.chunkBytes >= int64(len(r.row)) {
		return 0, fmt.Errorf("memory: request %d vaddr %d beyond mapped region", reqID, vaddr)
	}
	return int64(r.row[vaddr/d.chunkBytes])*d.chunkBytes + vaddr%d.chunkBytes, nil
}

// Chunks returns a copy of the request's physical chunk list (for tests and
// the chunk-size ablation's VA2PA entry counts).
func (d *DPA) Chunks(reqID int) []ChunkID {
	var src []ChunkID
	if r, ok := d.reqs[reqID]; ok {
		src = r.row
	}
	out := make([]ChunkID, len(src))
	copy(out, src)
	return out
}

// ---------------------------------------------------------------------------
// Paged allocator
// ---------------------------------------------------------------------------

// Paged reserves exactly the bytes a request's token count occupies —
// the software model of GPU paged-attention, whose page tables make
// reservation granularity effectively the token (the page-size
// fragmentation is already folded into the pool's paged-attention
// efficiency derate). Unlike Static there is no fixed T_max region, and
// unlike DPA there is no chunk rounding: admission and growth succeed
// while the byte sum fits the pool. The GPU backend admits batch decode
// at the full context+window horizon (upfront reservation) and serving
// at the live context (growth may fail mid-decode, triggering
// preemption — the vLLM recompute path).
type Paged struct {
	capacity      int64
	bytesPerToken int64
	tokens        map[int]int // request -> reserved tokens
	reserved      int64
}

// NewPaged builds a paged allocator for a pool of the given capacity.
func NewPaged(capacity, bytesPerToken int64) (*Paged, error) {
	if capacity <= 0 || bytesPerToken <= 0 {
		return nil, fmt.Errorf("memory: paged allocator params must be positive")
	}
	return &Paged{capacity: capacity, bytesPerToken: bytesPerToken, tokens: make(map[int]int)}, nil
}

// Name implements Allocator.
func (p *Paged) Name() string { return "paged" }

// Admit implements Allocator.
func (p *Paged) Admit(reqID, tokens int) error {
	if _, ok := p.tokens[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	need := int64(tokens) * p.bytesPerToken
	if p.reserved+need > p.capacity {
		return fmt.Errorf("memory: paged pool full (%d of %d bytes)", p.reserved, p.capacity)
	}
	p.tokens[reqID] = tokens
	p.reserved += need
	return nil
}

// Grow implements Allocator: extends the request's reservation to
// newTokens, failing when the pool cannot hold the extra bytes. Growth
// at or below the current reservation is a no-op — the reservation is a
// high-water mark, and decode within an upfront context+window
// reservation never allocates.
func (p *Paged) Grow(reqID, newTokens int) error {
	cur, ok := p.tokens[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens <= cur {
		return nil
	}
	extra := int64(newTokens-cur) * p.bytesPerToken
	if p.reserved+extra > p.capacity {
		return fmt.Errorf("memory: paged pool full (%d of %d bytes)", p.reserved, p.capacity)
	}
	p.tokens[reqID] = newTokens
	p.reserved += extra
	return nil
}

// Release implements Allocator.
func (p *Paged) Release(reqID int) error {
	cur, ok := p.tokens[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	p.reserved -= int64(cur) * p.bytesPerToken
	delete(p.tokens, reqID)
	return nil
}

// CanAdmit implements Allocator.
func (p *Paged) CanAdmit(tokens int) bool {
	return p.reserved+int64(tokens)*p.bytesPerToken <= p.capacity
}

// GrowBudget implements Allocator: paged growth reserves every token but
// can only fail at pool exhaustion, so the lockstep budget is the free
// pool split evenly across the growing requests (conservative for
// requests still decoding inside an upfront high-water reservation,
// whose Grow calls no-op).
func (p *Paged) GrowBudget(reqIDs []int, limit int) int {
	if len(reqIDs) == 0 || limit <= 0 {
		return 0
	}
	for _, id := range reqIDs {
		if _, ok := p.tokens[id]; !ok {
			return 0
		}
	}
	return min(limit, int((p.capacity-p.reserved)/p.bytesPerToken/int64(len(reqIDs))))
}

// LiveBytes implements Allocator: every reserved byte is backed by KV
// data (no over-reservation).
func (p *Paged) LiveBytes() int64 { return p.reserved }

// ReservedBytes implements Allocator.
func (p *Paged) ReservedBytes() int64 { return p.reserved }

// CapacityBytes implements Allocator.
func (p *Paged) CapacityBytes() int64 { return p.capacity }

var (
	_ Allocator = (*Static)(nil)
	_ Allocator = (*DPA)(nil)
	_ Allocator = (*Paged)(nil)
)
