package memory

import "fmt"

// refDPA is the eager DPA allocator the lazy one replaced, kept verbatim
// (only renamed) as the differential oracle's reference: NewDPA built
// an O(pool) descending free list, every Admit allocated a fresh VA2PA
// row, and GrowBudget ran an exponential-plus-binary search with no
// caller limit. Its one known bug — Translate truncating a small
// negative vaddr to virtual chunk 0 — is left in place; the oracle
// expects the production allocator to reject those addresses instead.
type refDPA struct {
	capacity      int64
	bytesPerToken int64
	chunkBytes    int64
	nChunks       int
	freeList      []ChunkID
	va2pa         map[int][]ChunkID // request -> virtual chunk order -> physical
	liveTokens    map[int]int
	hostMessages  int // host<->module allocation messages (Sec. VI-C)

	liveTokSum int64 // Σ liveTokens
	mappedSum  int64 // Σ len(va2pa[id])

	growScratch []refGrowSnap
}

type refGrowSnap struct{ live, have int }

func newRefDPA(capacity, bytesPerToken, chunkBytes int64) (*refDPA, error) {
	if capacity <= 0 || bytesPerToken <= 0 || chunkBytes <= 0 {
		return nil, fmt.Errorf("memory: DPA allocator params must be positive")
	}
	n := int(capacity / chunkBytes)
	if n == 0 {
		return nil, fmt.Errorf("memory: capacity %d below one chunk (%d)", capacity, chunkBytes)
	}
	free := make([]ChunkID, n)
	for i := range free {
		free[i] = ChunkID(n - 1 - i) // pop from the end -> ascending IDs
	}
	return &refDPA{
		capacity:      capacity,
		bytesPerToken: bytesPerToken,
		chunkBytes:    chunkBytes,
		nChunks:       n,
		freeList:      free,
		va2pa:         make(map[int][]ChunkID),
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
	need := d.chunksFor(tokens)
	if need > len(d.freeList) {
		return fmt.Errorf("memory: DPA pool has %d free chunks, need %d", len(d.freeList), need)
	}
	d.va2pa[reqID] = d.pop(need)
	d.liveTokens[reqID] = tokens
	d.liveTokSum += int64(tokens)
	d.mappedSum += int64(need)
	d.hostMessages++ // initial VA2PA setup
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
	have := len(d.va2pa[reqID])
	need := d.chunksFor(newTokens)
	if extra := need - have; extra > 0 {
		if extra > len(d.freeList) {
			return fmt.Errorf("memory: DPA pool exhausted growing request %d (need %d chunks, %d free)", reqID, extra, len(d.freeList))
		}
		tail := d.freeList[len(d.freeList)-extra:]
		d.va2pa[reqID] = append(d.va2pa[reqID], tail...)
		d.freeList = d.freeList[:len(d.freeList)-extra]
		d.mappedSum += int64(extra)
		d.hostMessages++ // one host message per chunk-allocation event
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
	d.hostMessages++
	return nil
}

func (d *refDPA) CanAdmit(tokens int) bool { return d.chunksFor(tokens) <= len(d.freeList) }

func (d *refDPA) GrowBudget(reqIDs []int) int {
	if len(reqIDs) == 0 {
		return 0
	}
	snap := d.growScratch[:0]
	for _, id := range reqIDs {
		live, ok := d.liveTokens[id]
		if !ok {
			return 0
		}
		snap = append(snap, refGrowSnap{live: live, have: len(d.va2pa[id])})
	}
	d.growScratch = snap
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
func (d *refDPA) HostMessages() int    { return d.hostMessages }

func (d *refDPA) Translate(reqID int, vaddr int64) (int64, error) {
	chunks, ok := d.va2pa[reqID]
	if !ok {
		return 0, fmt.Errorf("memory: request %d not admitted", reqID)
	}
	vc := int(vaddr / d.chunkBytes)
	if vc < 0 || vc >= len(chunks) {
		return 0, fmt.Errorf("memory: request %d vaddr %d beyond mapped region", reqID, vaddr)
	}
	return int64(chunks[vc])*d.chunkBytes + vaddr%d.chunkBytes, nil
}

func (d *refDPA) Chunks(reqID int) []ChunkID {
	src := d.va2pa[reqID]
	out := make([]ChunkID, len(src))
	copy(out, src)
	return out
}

func (d *refDPA) pop(n int) []ChunkID {
	out := make([]ChunkID, n)
	copy(out, d.freeList[len(d.freeList)-n:])
	d.freeList = d.freeList[:len(d.freeList)-n]
	return out
}
