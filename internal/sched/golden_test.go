package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"pimphony/internal/kernels"
	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// goldenSchedules is the SHA-256 of every controller's Issue, Reasons,
// Total and Breakdown over goldenStacks. A scheduler rewrite that keeps
// the model must reproduce it byte for byte.
const goldenSchedules = "c815a4c03fa2e46dd0c9204a21e43a83d344762bbcb6871b21d04c2084c9f2b2"

// goldenStacks returns the stacks the golden hash covers: kernels-built
// stacks of every builder under both buffer geometries, the hand-built
// calibration stacks, and the random well-formed stacks of the property
// tests.
func goldenStacks(t *testing.T) []*pim.Stack {
	t.Helper()
	d := timing.AiM16()
	var out []*pim.Stack
	for _, buf := range []kernels.Buffers{kernels.BaselineBuffers(d), kernels.OBufBuffers(d)} {
		c := kernels.NewConfig(d, buf)
		for _, build := range []func() (*pim.Stack, error){
			func() (*pim.Stack, error) { return c.GEMV(48, 32) },
			func() (*pim.Stack, error) { return c.GEMV(4096, 512) },
			func() (*pim.Stack, error) { return c.QKT(1000, 100, 3, true) },
			func() (*pim.Stack, error) { return c.QKT(4096, 128, 4, false) },
			func() (*pim.Stack, error) { return c.QKT(2048, 128, 8, true) },
			func() (*pim.Stack, error) { return c.SV(1000, 100, 3, false) },
			func() (*pim.Stack, error) { return c.SV(4096, 128, 1, false) },
			func() (*pim.Stack, error) { return c.SV(2048, 128, 8, true) },
		} {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	out = append(out, fig7Stack(), streamingStack(128, 16), rowStack(4, 8))
	for seed := int64(0); seed < 64; seed++ {
		out = append(out, randomStack(seed, 120))
	}
	return out
}

func hashResult(h hash.Hash, r *Result) {
	fmt.Fprintf(h, "%s %d %+v\n", r.Scheduler, r.Total, r.Breakdown)
	for _, c := range r.Issue {
		_ = binary.Write(h, binary.LittleEndian, int64(c))
	}
	for _, why := range r.Reasons {
		h.Write([]byte{byte(why)})
	}
}

// TestGoldenSchedules pins every controller's schedule of goldenStacks.
func TestGoldenSchedules(t *testing.T) {
	d := timing.AiM16()
	h := sha256.New()
	for i, st := range goldenStacks(t) {
		for _, s := range []Scheduler{&Static{Dev: d}, &PingPong{Dev: d}, &DCS{Dev: d}, &DCS{Dev: d, DisableIsMAC: true}} {
			res, err := s.Schedule(st)
			if err != nil {
				t.Fatalf("stack %d %s: %v", i, s.Name(), err)
			}
			hashResult(h, res)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSchedules {
		t.Errorf("golden schedule hash = %s, want %s", got, goldenSchedules)
	}
}
