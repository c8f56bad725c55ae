package memory

import "testing"

// BenchmarkDPAChurn measures admit/grow/release cycles on the DPA
// allocator — the per-decode-step hot path of the serving loop.
func BenchmarkDPAChurn(b *testing.B) {
	d, err := NewDPA(64<<30, 128<<10, DefaultChunkBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i
		if err := d.Admit(id, 4096); err != nil {
			b.Fatal(err)
		}
		for t := 4096; t < 4096+64; t++ {
			if err := d.Grow(id, t); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Release(id); err != nil {
			b.Fatal(err)
		}
	}
}
