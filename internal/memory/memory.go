// Package memory implements the two KV-cache management schemes compared in
// Sec. VI of the paper: conventional static allocation, which reserves
// T_max-sized regions per request because PIM instruction streams embed
// fixed physical addresses, and PIMphony's Dynamic PIM Access (DPA)
// allocation, which lazily maps 1 MB chunks as a request's KV cache
// grows. Both, and the GPU baseline's paged-attention pool, are one
// chunk-counting Pool that differs only in chunk size: a whole T_max
// region, the DPA chunk, or one token. The pool counts each request's
// mapped chunks (its VA2PA entries) rather than naming them: capacity,
// not placement, is what the evaluation measures.
package memory

import (
	"fmt"
	"math"
)

// DefaultChunkBytes is the paper's DPA allocation granularity.
const DefaultChunkBytes = 1 << 20

// maxGrowBudget caps every GrowBudget answer: a budget this large
// outlasts any leap, and the cap keeps chunk-demand probes far from
// integer overflow.
const maxGrowBudget = 1 << 30

// Pool is a KV-cache capacity manager for one memory pool (a module or a
// whole system partition) that maps fixed-size chunks on demand as
// requests grow, the host-side capacity model of the Dynamic PIM Access
// controller (Fig. 11). Internal fragmentation is limited to the final
// chunk of each request. The constructors pick the chunk:
//   - NewStatic: one T_max region per request, capped at T_max tokens,
//     so admission reserves the whole window and growth never allocates
//     (Fig. 10a);
//   - NewDPA: the given chunk, lazily mapped;
//   - NewPaged: one token, so reserved bytes equal live bytes (the GPU's
//     page-size fragmentation is folded into its pool derate).
//
// The model counts chunks rather than naming them: which physical chunk
// backs a virtual one changes no capacity, timing or serving result, so
// each request keeps only its live tokens and mapped-chunk count (the
// length of its VA2PA row), and the pool's free chunks are the capacity
// less the mapped sum. A pool smaller than one chunk has no chunks and
// admits nothing. Released entries are recycled, so a steady
// admit/grow/release cycle allocates nothing and the cost follows the
// live requests, not the pool size.
type Pool struct {
	capacity      int64
	bytesPerToken int64
	chunkBytes    int64
	nChunks       int
	maxTokens     int // per-request token cap (T_max for a static pool)
	reqs          map[int]*poolReq
	spare         []*poolReq // released entries, recycled by Admit

	// Running aggregates so LiveBytes/ReservedBytes are O(1) — the
	// serving engine samples capacity on every leap, which made the map
	// walks here a measurable share of the whole simulation.
	liveTokSum int64 // Σ live tokens
	mappedSum  int64 // Σ mapped chunks

	// growScratch snapshots each request so GrowBudget's probes walk a
	// slice instead of the map.
	growScratch []poolReq
}

// poolReq is one admitted request: its live token count and how many
// chunks its VA2PA row maps.
type poolReq struct{ live, mapped int }

// NewStatic builds a pool that reserves a fixed T_max-sized KV region per
// admitted request, mirroring conventional PIM systems whose compiled
// instruction streams address physical memory directly.
func NewStatic(capacity, bytesPerToken int64, tmax int) (*Pool, error) {
	if capacity <= 0 || bytesPerToken <= 0 || tmax <= 0 {
		return nil, fmt.Errorf("memory: static allocator params must be positive")
	}
	return newPool(capacity, bytesPerToken, int64(tmax)*bytesPerToken, tmax), nil
}

// NewDPA builds a DPA pool with the given chunk granularity. Its cost
// does not depend on the pool size.
func NewDPA(capacity, bytesPerToken, chunkBytes int64) (*Pool, error) {
	if capacity <= 0 || bytesPerToken <= 0 || chunkBytes <= 0 {
		return nil, fmt.Errorf("memory: DPA allocator params must be positive")
	}
	return newPool(capacity, bytesPerToken, chunkBytes, math.MaxInt), nil
}

// NewPaged builds the GPU baseline's paged-attention pool, whose page
// tables make the reservation granularity effectively the token.
func NewPaged(capacity, bytesPerToken int64) (*Pool, error) {
	if capacity <= 0 || bytesPerToken <= 0 {
		return nil, fmt.Errorf("memory: paged allocator params must be positive")
	}
	return newPool(capacity, bytesPerToken, bytesPerToken, math.MaxInt), nil
}

func newPool(capacity, bytesPerToken, chunkBytes int64, maxTokens int) *Pool {
	return &Pool{
		capacity:      capacity,
		bytesPerToken: bytesPerToken,
		chunkBytes:    chunkBytes,
		nChunks:       int(capacity / chunkBytes),
		maxTokens:     maxTokens,
		reqs:          make(map[int]*poolReq),
	}
}

// chunksFor is the chunk count needed for a context length.
func (p *Pool) chunksFor(tokens int) int {
	b := int64(tokens) * p.bytesPerToken
	return int((b + p.chunkBytes - 1) / p.chunkBytes)
}

// free is the number of unmapped chunks.
func (p *Pool) free() int { return p.nChunks - int(p.mappedSum) }

// Admit maps the chunks a new request's current context needs; it fails
// if the request is already admitted, exceeds the token cap or needs
// more chunks than are free.
func (p *Pool) Admit(reqID, tokens int) error {
	if _, ok := p.reqs[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	if tokens > p.maxTokens {
		return fmt.Errorf("memory: request %d context %d exceeds T_max %d", reqID, tokens, p.maxTokens)
	}
	need := p.chunksFor(tokens)
	if free := p.free(); need > free {
		return fmt.Errorf("memory: KV pool has %d free chunks, need %d", free, need)
	}
	var r *poolReq
	if n := len(p.spare); n > 0 {
		r, p.spare = p.spare[n-1], p.spare[:n-1]
	} else {
		r = new(poolReq)
	}
	*r = poolReq{live: tokens, mapped: need}
	p.reqs[reqID] = r
	p.liveTokSum += int64(tokens)
	p.mappedSum += int64(need)
	return nil
}

// Grow extends a request's context to newTokens, mapping additional
// chunks only when the new context spills past the last mapped chunk
// (lazy allocation). Shrinking and growing past the token cap fail.
func (p *Pool) Grow(reqID, newTokens int) error {
	r, ok := p.reqs[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens < r.live {
		return fmt.Errorf("memory: request %d shrank (%d -> %d)", reqID, r.live, newTokens)
	}
	if newTokens > p.maxTokens {
		return fmt.Errorf("memory: request %d grew past T_max %d", reqID, p.maxTokens)
	}
	if extra := p.chunksFor(newTokens) - r.mapped; extra > 0 {
		if free := p.free(); extra > free {
			return fmt.Errorf("memory: KV pool exhausted growing request %d (need %d chunks, %d free)", reqID, extra, free)
		}
		r.mapped += extra
		p.mappedSum += int64(extra)
	}
	p.liveTokSum += int64(newTokens - r.live)
	r.live = newTokens
	return nil
}

// Release returns a request's chunks to the pool and its entry to the
// spares.
func (p *Pool) Release(reqID int) error {
	r, ok := p.reqs[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	p.mappedSum -= int64(r.mapped)
	p.liveTokSum -= int64(r.live)
	delete(p.reqs, reqID)
	p.spare = append(p.spare, r)
	return nil
}

// CanAdmit reports whether a request of the given length would fit.
func (p *Pool) CanAdmit(tokens int) bool {
	return tokens <= p.maxTokens && p.chunksFor(tokens) <= p.free()
}

// GrowBudget is the batched next-boundary query behind the serving
// engine's multi-step leap: how many additional tokens each of the given
// admitted requests can absorb, all growing one token per step in
// lockstep, before a Grow call could fail (the preemption trigger a leap
// must not skip past). That is the largest lockstep growth, up to limit
// and to every request's token cap, whose chunk demand across the whole
// batch fits the free chunks. Growth within the budget cannot fail at
// any step prefix (chunk demand is monotone in the step count), and a
// single batched Grow to the final count leaves the pool in the same
// observable state as one call per token. One probe at the limit settles
// the common case; only a pool too tight for it pays a binary search
// below it. Zero means the very next lockstep Grow could hit a boundary;
// an unknown request ID or a non-positive limit also yields zero.
func (p *Pool) GrowBudget(reqIDs []int, limit int) int {
	if len(reqIDs) == 0 || limit <= 0 {
		return 0
	}
	limit = min(limit, maxGrowBudget)
	snap := p.growScratch[:0]
	for _, id := range reqIDs {
		r, ok := p.reqs[id]
		if !ok {
			return 0
		}
		limit = min(limit, p.maxTokens-r.live)
		snap = append(snap, *r)
	}
	p.growScratch = snap
	free := p.free()
	// Chunks the batch must map to grow n tokens per request.
	need := func(n int) int {
		total := 0
		for _, s := range snap {
			total += p.chunksFor(s.live+n) - s.mapped
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

// LiveBytes is the memory holding actual KV data.
func (p *Pool) LiveBytes() int64 { return p.liveTokSum * p.bytesPerToken }

// ReservedBytes is the memory unavailable to other requests: the mapped
// chunks.
func (p *Pool) ReservedBytes() int64 { return p.mappedSum * p.chunkBytes }

// CapacityBytes is the pool size.
func (p *Pool) CapacityBytes() int64 { return p.capacity }

// Utilization is live bytes over pool capacity — the Fig. 19 metric,
// evaluated when the admission loop has filled the pool: static T_max
// reservations strand most of the pool (the paper measures 31.0-40.5%),
// while DPA's lazy chunks reach ~75%.
func (p *Pool) Utilization() float64 { return float64(p.LiveBytes()) / float64(p.capacity) }

// MappedChunks is the number of chunks a request maps — its VA2PA entry
// count (zero for an unknown request). The chunk-size ablation reads it.
func (p *Pool) MappedChunks(reqID int) int {
	if r, ok := p.reqs[reqID]; ok {
		return r.mapped
	}
	return 0
}
