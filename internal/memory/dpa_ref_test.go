package memory

import "fmt"

// refDPA is the eager DPA allocator the counting pool replaced, kept as
// the differential oracle's reference: NewDPA built an O(pool)
// descending free list of physical chunk IDs, every Admit allocated a
// fresh VA2PA row naming its chunks, and GrowBudget ran an
// exponential-plus-binary search with no caller limit. It takes the
// same per-request token cap as a static pool. The oracle compares each
// request's mapped-chunk count with its row length.
type refDPA struct {
	capacity      int64
	bytesPerToken int64
	chunkBytes    int64
	nChunks       int
	maxTokens     int
	freeList      []int
	va2pa         map[int][]int // request -> virtual chunk order -> physical
	liveTokens    map[int]int

	liveTokSum int64 // Σ liveTokens
	mappedSum  int64 // Σ len(va2pa[id])

	growScratch []refGrowSnap
}

type refGrowSnap struct{ live, have int }

func newRefDPA(capacity, bytesPerToken, chunkBytes int64, maxTokens int) (*refDPA, error) {
	if capacity <= 0 || bytesPerToken <= 0 || chunkBytes <= 0 || maxTokens <= 0 {
		return nil, fmt.Errorf("memory: DPA allocator params must be positive")
	}
	n := int(capacity / chunkBytes)
	free := make([]int, n)
	for i := range free {
		free[i] = n - 1 - i // pop from the end -> ascending IDs
	}
	return &refDPA{
		capacity:      capacity,
		bytesPerToken: bytesPerToken,
		chunkBytes:    chunkBytes,
		nChunks:       n,
		maxTokens:     maxTokens,
		freeList:      free,
		va2pa:         make(map[int][]int),
		liveTokens:    make(map[int]int),
	}, nil
}

func (d *refDPA) chunksFor(tokens int) int {
	b := int64(tokens) * d.bytesPerToken
	return int((b + d.chunkBytes - 1) / d.chunkBytes)
}

func (d *refDPA) Admit(reqID, tokens int) error {
	if _, ok := d.va2pa[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	if tokens > d.maxTokens {
		return fmt.Errorf("memory: request %d context %d exceeds T_max %d", reqID, tokens, d.maxTokens)
	}
	need := d.chunksFor(tokens)
	if need > len(d.freeList) {
		return fmt.Errorf("memory: KV pool has %d free chunks, need %d", len(d.freeList), need)
	}
	d.va2pa[reqID] = d.pop(need)
	d.liveTokens[reqID] = tokens
	d.liveTokSum += int64(tokens)
	d.mappedSum += int64(need)
	return nil
}

func (d *refDPA) Grow(reqID, newTokens int) error {
	cur, ok := d.liveTokens[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens < cur {
		return fmt.Errorf("memory: request %d shrank (%d -> %d)", reqID, cur, newTokens)
	}
	if newTokens > d.maxTokens {
		return fmt.Errorf("memory: request %d grew past T_max %d", reqID, d.maxTokens)
	}
	have := len(d.va2pa[reqID])
	need := d.chunksFor(newTokens)
	if extra := need - have; extra > 0 {
		if extra > len(d.freeList) {
			return fmt.Errorf("memory: KV pool exhausted growing request %d (need %d chunks, %d free)", reqID, extra, len(d.freeList))
		}
		tail := d.freeList[len(d.freeList)-extra:]
		d.va2pa[reqID] = append(d.va2pa[reqID], tail...)
		d.freeList = d.freeList[:len(d.freeList)-extra]
		d.mappedSum += int64(extra)
	}
	d.liveTokSum += int64(newTokens - cur)
	d.liveTokens[reqID] = newTokens
	return nil
}

func (d *refDPA) Release(reqID int) error {
	chunks, ok := d.va2pa[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	d.freeList = append(d.freeList, chunks...)
	d.mappedSum -= int64(len(chunks))
	d.liveTokSum -= int64(d.liveTokens[reqID])
	delete(d.va2pa, reqID)
	delete(d.liveTokens, reqID)
	return nil
}

func (d *refDPA) CanAdmit(tokens int) bool {
	return tokens <= d.maxTokens && d.chunksFor(tokens) <= len(d.freeList)
}

// GrowBudget is the chunk search's answer, cut at the tightest
// request's headroom to the token cap.
func (d *refDPA) GrowBudget(reqIDs []int) int {
	if len(reqIDs) == 0 {
		return 0
	}
	snap := d.growScratch[:0]
	headroom := d.maxTokens
	for _, id := range reqIDs {
		live, ok := d.liveTokens[id]
		if !ok {
			return 0
		}
		snap = append(snap, refGrowSnap{live: live, have: len(d.va2pa[id])})
		headroom = min(headroom, d.maxTokens-live)
	}
	d.growScratch = snap
	return min(d.chunkBudget(snap), headroom)
}

// chunkBudget is the largest lockstep growth whose chunk demand fits the
// free list, found by an exponential-plus-binary search.
func (d *refDPA) chunkBudget(snap []refGrowSnap) int {
	free := len(d.freeList)
	need := func(n int) int {
		total := 0
		for _, s := range snap {
			total += d.chunksFor(s.live+n) - s.have
		}
		return total
	}
	if need(1) > free {
		return 0
	}
	hi := 1
	for need(hi) <= free && hi < 1<<30 {
		hi <<= 1
	}
	lo := hi >> 1
	if hi >= 1<<30 && need(hi) <= free {
		return hi
	}
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

func (d *refDPA) LiveBytes() int64     { return d.liveTokSum * d.bytesPerToken }
func (d *refDPA) ReservedBytes() int64 { return d.mappedSum * d.chunkBytes }

func (d *refDPA) Chunks(reqID int) []int { return d.va2pa[reqID] }

func (d *refDPA) pop(n int) []int {
	out := make([]int, n)
	copy(out, d.freeList[len(d.freeList)-n:])
	d.freeList = d.freeList[:len(d.freeList)-n]
	return out
}
