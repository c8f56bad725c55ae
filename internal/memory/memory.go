// Package memory implements the two KV-cache management schemes compared in
// Sec. VI of the paper: conventional static allocation, which reserves
// T_max-sized regions per request because PIM instruction streams embed
// fixed physical addresses, and PIMphony's Dynamic PIM Access (DPA)
// allocation, which lazily maps 1 MB chunks as a request's KV cache
// grows. The DPA model counts each request's mapped chunks (its VA2PA
// entries) rather than naming them: capacity, not placement, is what
// the evaluation measures. A third allocator, Paged, models the GPU
// baseline's paged-attention pool.
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

// ---------------------------------------------------------------------------
// DPA allocator
// ---------------------------------------------------------------------------

// maxGrowBudget caps every DPA GrowBudget answer: a budget this large
// outlasts any leap, and the cap keeps chunk-demand probes far from
// integer overflow.
const maxGrowBudget = 1 << 30

// DPA implements lazy chunked allocation, the host-side capacity model of
// the Dynamic PIM Access controller (Fig. 11). Chunks are mapped on
// demand as requests grow, so internal fragmentation is limited to the
// final chunk of each request.
//
// The model counts chunks rather than naming them: which physical chunk
// backs a virtual one changes no capacity, timing or serving result, so
// each request keeps only its live tokens and mapped-chunk count (the
// length of its VA2PA row), and the pool's free chunks are the capacity
// less the mapped sum. Released entries are recycled, so a steady
// admit/grow/release cycle allocates nothing and the cost follows the
// live requests, not the pool size.
type DPA struct {
	capacity      int64
	bytesPerToken int64
	chunkBytes    int64
	nChunks       int
	reqs          map[int]*dpaReq
	spare         []*dpaReq // released entries, recycled by Admit

	// Running aggregates so LiveBytes/ReservedBytes are O(1) — the
	// serving engine samples capacity on every leap, which made the map
	// walks here a measurable share of the whole simulation.
	liveTokSum int64 // Σ live tokens
	mappedSum  int64 // Σ mapped chunks

	// growScratch snapshots each request so GrowBudget's probes walk a
	// slice instead of the map.
	growScratch []dpaReq
}

// dpaReq is one admitted request: its live token count and how many
// chunks its VA2PA row maps.
type dpaReq struct{ live, mapped int }

// NewDPA builds a DPA allocator with the given chunk granularity. Its
// cost does not depend on the pool size.
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
func (d *DPA) free() int { return d.nChunks - int(d.mappedSum) }

// Admit implements Allocator.
func (d *DPA) Admit(reqID, tokens int) error {
	if _, ok := d.reqs[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	need := d.chunksFor(tokens)
	if free := d.free(); need > free {
		return fmt.Errorf("memory: DPA pool has %d free chunks, need %d", free, need)
	}
	var r *dpaReq
	if n := len(d.spare); n > 0 {
		r, d.spare = d.spare[n-1], d.spare[:n-1]
	} else {
		r = new(dpaReq)
	}
	*r = dpaReq{live: tokens, mapped: need}
	d.reqs[reqID] = r
	d.liveTokSum += int64(tokens)
	d.mappedSum += int64(need)
	return nil
}

// Grow implements Allocator: maps additional chunks only when the new
// context spills past the last mapped chunk (lazy allocation).
func (d *DPA) Grow(reqID, newTokens int) error {
	r, ok := d.reqs[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens < r.live {
		return fmt.Errorf("memory: request %d shrank (%d -> %d)", reqID, r.live, newTokens)
	}
	if extra := d.chunksFor(newTokens) - r.mapped; extra > 0 {
		if free := d.free(); extra > free {
			return fmt.Errorf("memory: DPA pool exhausted growing request %d (need %d chunks, %d free)", reqID, extra, free)
		}
		r.mapped += extra
		d.mappedSum += int64(extra)
	}
	d.liveTokSum += int64(newTokens - r.live)
	r.live = newTokens
	return nil
}

// Release implements Allocator: the request's chunks return to the pool
// and its entry to the spares.
func (d *DPA) Release(reqID int) error {
	r, ok := d.reqs[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	d.mappedSum -= int64(r.mapped)
	d.liveTokSum -= int64(r.live)
	delete(d.reqs, reqID)
	d.spare = append(d.spare, r)
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
// case; only a pool too tight for it pays a binary search below it.
func (d *DPA) GrowBudget(reqIDs []int, limit int) int {
	if len(reqIDs) == 0 || limit <= 0 {
		return 0
	}
	limit = min(limit, maxGrowBudget)
	snap := d.growScratch[:0]
	for _, id := range reqIDs {
		r, ok := d.reqs[id]
		if !ok {
			return 0
		}
		snap = append(snap, *r)
	}
	d.growScratch = snap
	free := d.free()
	// Chunks the batch must map to grow n tokens per request.
	need := func(n int) int {
		total := 0
		for _, s := range snap {
			total += d.chunksFor(s.live+n) - s.mapped
		}
		return total
	}
	if need(limit) <= free {
		return limit
	}
	// need(0) <= 0 <= free < need(limit): every request already maps its
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

// MappedChunks is the number of chunks a request maps — its VA2PA entry
// count (zero for an unknown request). The chunk-size ablation reads it.
func (d *DPA) MappedChunks(reqID int) int {
	if r, ok := d.reqs[reqID]; ok {
		return r.mapped
	}
	return 0
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
// while the byte sum fits the pool. The GPU backend admits at the live
// context, so growth may fail mid-decode and trigger preemption — the
// vLLM recompute path.
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
// at or below the current reservation is a no-op: the reservation is a
// high-water mark.
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
// pool split evenly across the growing requests.
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
