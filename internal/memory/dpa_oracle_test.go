package memory

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// oracleShapes are the pool geometries the differential oracle drives:
// several tokens per chunk, exactly one, a token straddling chunk
// edges, every token spanning two chunks, and a pool only three chunks
// deep. Every pool carries a third of a chunk the allocators must never
// hand out.
var oracleShapes = []struct {
	bpt, chunk int64
	chunks     int
}{
	{1 << 10, 4 << 10, 16},
	{512, 4 << 10, 40},
	{4 << 10, 4 << 10, 9},
	{3 << 10, 4 << 10, 12},
	{5 << 10, 4 << 10, 24},
	{1 << 10, 16 << 10, 3},
}

const (
	// oracleIDs is how many request IDs the traffic draws from, so
	// duplicate admits and operations on released IDs are common.
	oracleIDs = 9
	// oracleUnknown is a request ID the traffic targets but never admits.
	oracleUnknown = 99
)

// oracleLimits are the GrowBudget limits compared after every operation.
var oracleLimits = []int{0, 1, 2, 3, 5, 8, 64, 1000, 1 << 30, math.MaxInt}

// dpaOracle drives the lazy DPA and the eager reference through one
// operation stream and compares every observable after each operation.
type dpaOracle struct {
	tb    testing.TB
	got   *DPA
	ref   *refDPA
	chunk int64
	tpc   int // tokens per chunk, at least 1: sizes operations near chunk edges
}

func newDPAOracle(tb testing.TB, shape uint8) *dpaOracle {
	tb.Helper()
	s := oracleShapes[int(shape)%len(oracleShapes)]
	capacity := int64(s.chunks)*s.chunk + s.chunk/3
	got, err := NewDPA(capacity, s.bpt, s.chunk)
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := newRefDPA(capacity, s.bpt, s.chunk)
	if err != nil {
		tb.Fatal(err)
	}
	return &dpaOracle{tb: tb, got: got, ref: ref, chunk: s.chunk, tpc: max(1, int(s.chunk/s.bpt))}
}

// run applies ops two bytes at a time: the first picks the operation
// (low three bits) and the request ID (the rest), the second sizes it.
func (o *dpaOracle) run(ops []byte) {
	o.tb.Helper()
	for i := 0; i+1 < len(ops); i += 2 {
		o.apply(i/2, ops[i], ops[i+1])
	}
}

func (o *dpaOracle) apply(step int, op, arg byte) {
	o.tb.Helper()
	id := int(op>>3) % (oracleIDs + 1)
	if id == oracleIDs {
		id = oracleUnknown
	}
	free := len(o.ref.freeList)
	cur := o.ref.liveTokens[id]
	a := int(arg)
	var name string
	var errGot, errRef error
	admit := func(tok int) {
		name = fmt.Sprintf("Admit(%d, %d)", id, tok)
		errGot, errRef = o.got.Admit(id, tok), o.ref.Admit(id, tok)
	}
	grow := func(tok int) {
		name = fmt.Sprintf("Grow(%d, %d)", id, tok)
		errGot, errRef = o.got.Grow(id, tok), o.ref.Grow(id, tok)
	}
	switch op & 7 {
	case 0, 1: // admit anything from nothing to more than the pool
		admit(a * (o.ref.nChunks + 2) * o.tpc / 255)
	case 2, 3: // grow within a few chunks
		grow(cur + a%(3*o.tpc+1))
	case 4: // shrink
		grow(cur - 1 - a%4)
	case 5: // grow past the free chunks
		grow(cur + (free+1+a%3)*o.tpc)
	case 6: // admit past the free chunks
		admit((free + 1 + a%3) * o.tpc)
	default:
		name = fmt.Sprintf("Release(%d)", id)
		errGot, errRef = o.got.Release(id), o.ref.Release(id)
	}
	o.compare(fmt.Sprintf("op %d %s", step, name), errGot, errRef)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// compare checks every observable of the two allocators: the last
// operation's error, the byte and message counters, CanAdmit around the
// free-chunk edge, each request's chunks, Translate at chunk edges and
// at invalid addresses, and GrowBudget over several batches and limits.
func (o *dpaOracle) compare(what string, errGot, errRef error) {
	o.tb.Helper()
	fail := func(format string, args ...any) {
		o.tb.Helper()
		o.tb.Fatalf("%s: %s", what, fmt.Sprintf(format, args...))
	}
	if g, r := errText(errGot), errText(errRef); g != r {
		fail("error %q, reference %q", g, r)
	}
	if g, r := o.got.LiveBytes(), o.ref.LiveBytes(); g != r {
		fail("LiveBytes %d, reference %d", g, r)
	}
	if g, r := o.got.ReservedBytes(), o.ref.ReservedBytes(); g != r {
		fail("ReservedBytes %d, reference %d", g, r)
	}
	if g, r := o.got.HostMessages(), o.ref.HostMessages(); g != r {
		fail("HostMessages %d, reference %d", g, r)
	}
	free := len(o.ref.freeList)
	for _, tok := range []int{0, 1, o.tpc, o.tpc + 1, free * o.tpc, (free + 1) * o.tpc} {
		if g, r := o.got.CanAdmit(tok), o.ref.CanAdmit(tok); g != r {
			fail("CanAdmit(%d) = %v, reference %v", tok, g, r)
		}
	}
	live := make([]int, 0, len(o.ref.liveTokens))
	for id := range o.ref.liveTokens {
		live = append(live, id)
	}
	sort.Ints(live)
	cb := o.chunk
	for _, id := range append(slices.Clone(live), oracleUnknown) {
		chunks := o.ref.Chunks(id)
		if g := o.got.Chunks(id); !slices.Equal(g, chunks) {
			fail("Chunks(%d) = %v, reference %v", id, g, chunks)
		}
		probes := []int64{-3 * cb, -cb - 1, -cb, -cb + 1, -cb / 2, -1}
		for k := int64(0); k <= int64(len(chunks))+1; k++ {
			probes = append(probes, k*cb, k*cb+cb/2, (k+1)*cb-1)
		}
		for _, va := range probes {
			pa, err := o.got.Translate(id, va)
			if -cb < va && va < 0 {
				// The reference truncates these into virtual chunk 0 and
				// resolves them into the physically preceding chunk; the
				// production allocator must refuse them.
				if err == nil {
					fail("Translate(%d, %d) = %d, want an error", id, va, pa)
				}
				continue
			}
			rpa, rerr := o.ref.Translate(id, va)
			if pa != rpa || errText(err) != errText(rerr) {
				fail("Translate(%d, %d) = %d, %q; reference %d, %q", id, va, pa, errText(err), rpa, errText(rerr))
			}
		}
	}
	batches := [][]int{nil, live, append(slices.Clone(live), oracleUnknown)}
	for _, id := range live {
		batches = append(batches, []int{id}, []int{id, id})
	}
	for _, ids := range batches {
		uncapped := o.ref.GrowBudget(ids)
		for _, limit := range oracleLimits {
			if g := o.got.GrowBudget(ids, limit); g != min(uncapped, limit) {
				fail("GrowBudget(%v, %d) = %d, want min(%d, %d)", ids, limit, g, uncapped, limit)
			}
		}
	}
}

// TestDPAMatchesReference is the differential oracle: seeded random
// Admit/Grow/Release traffic on every pool shape — duplicate admits,
// shrinks, unknown IDs and pool exhaustion included — must leave the
// lazy allocator indistinguishable from the eager reference after every
// operation.
func TestDPAMatchesReference(t *testing.T) {
	for shape := range oracleShapes {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 1000)
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			newDPAOracle(t, uint8(shape)).run(ops)
		}
	}
}

// FuzzDPA runs the differential oracle on fuzzer-chosen pool shapes and
// operation streams.
func FuzzDPA(f *testing.F) {
	f.Add(uint8(0), []byte("\x00\x80\x08\x40\x02\x03\x0d\x01\x07\x00\x06\x02"))
	f.Fuzz(func(t *testing.T, shape uint8, ops []byte) {
		newDPAOracle(t, shape).run(ops)
	})
}

// TestDPASteadyStateAllocatesNothing: once one Admit → Grow×64 →
// Release cycle has sized the released stack and a spare VA2PA row,
// every further cycle reuses them.
func TestDPASteadyStateAllocatesNothing(t *testing.T) {
	d, err := NewDPA(64<<30, 128<<10, DefaultChunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	cycle := func() {
		id++
		if err := d.Admit(id, 4096); err != nil {
			t.Fatal(err)
		}
		for tok := 4097; tok <= 4096+64; tok++ {
			if err := d.Grow(id, tok); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Release(id); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("steady-state Admit/Grow/Release cycle: %v allocations, want 0", allocs)
	}
}

// TestNewDPAAllocatesNoPerChunkStorage: a 64 GiB pool is 65,536 chunks,
// and building its allocator must still cost only a few hundred bytes.
func TestNewDPAAllocatesNoPerChunkStorage(t *testing.T) {
	const n = 16
	pools := make([]*DPA, 0, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		d, err := NewDPA(64<<30, 128<<10, DefaultChunkBytes)
		if err != nil {
			t.Fatal(err)
		}
		pools = append(pools, d)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 1<<10 {
		t.Errorf("NewDPA on a 64 GiB pool allocated %d bytes; a per-chunk list would take %d", per, 65536*8)
	}
	runtime.KeepAlive(pools)
}

// TestDPATranslateRejectsNegative is the cross-request regression: a
// vaddr in (-chunkBytes, 0) used to truncate to virtual chunk 0 and
// resolve into the physically preceding chunk — here request 0's — with
// a nil error.
func TestDPATranslateRejectsNegative(t *testing.T) {
	d := newDPAT(t)
	if err := d.Admit(0, 8); err != nil { // chunk 0
		t.Fatal(err)
	}
	if err := d.Admit(7, 8); err != nil { // chunk 1
		t.Fatal(err)
	}
	for _, va := range []int64{-1, -4096, -mib + 1, -mib, -mib - 1} {
		if pa, err := d.Translate(7, va); err == nil {
			t.Errorf("Translate(7, %d) = %d, want an error (request 0 owns chunks %v)", va, pa, d.Chunks(0))
		}
	}
	if pa, err := d.Translate(7, 4096); err != nil || pa != int64(d.Chunks(7)[0])*mib+4096 {
		t.Errorf("Translate(7, 4096) = %d, %v", pa, err)
	}
}

// TestGrowBudgetLimit: Static and Paged answer min(budget, limit), and
// a non-positive limit yields zero. The differential oracle holds the
// DPA to the same rule against the reference's uncapped search.
func TestGrowBudgetLimit(t *testing.T) {
	s, err := NewStatic(1<<30, 1<<10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPaged(100<<10, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []Allocator{s, p} {
		if err := a.Admit(1, 40); err != nil {
			t.Fatal(err)
		}
		if err := a.Admit(2, 30); err != nil {
			t.Fatal(err)
		}
		for _, ids := range [][]int{nil, {1}, {2}, {1, 2}, {1, 99}} {
			uncapped := a.GrowBudget(ids, math.MaxInt)
			for _, limit := range []int{-1, 0, 1, 2, 7, 10, 64, 1 << 20, math.MaxInt} {
				want := min(uncapped, max(limit, 0))
				if got := a.GrowBudget(ids, limit); got != want {
					t.Errorf("%s GrowBudget(%v, %d) = %d, want %d", a.Name(), ids, limit, got, want)
				}
			}
		}
	}
}
