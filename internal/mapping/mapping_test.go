package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// totalTokens sums all mapped tokens: partitioning must conserve them.
func totalTokens(a *Assignment) int {
	var t int
	for _, l := range a.TokenLoads() {
		t += l
	}
	return t
}

func TestHFPAssignsWholeHeads(t *testing.T) {
	reqs := []Request{{ID: 0, Tokens: 4096}, {ID: 1, Tokens: 1024}}
	a, err := HFP{}.Assign(reqs, 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 2 requests x 2 heads = 4 tiles over 4 channels: one each.
	for ch, ws := range a.Channels {
		if len(ws) != 1 {
			t.Errorf("channel %d has %d works, want 1", ch, len(ws))
		}
	}
	if totalTokens(a) != 2*(4096+1024) {
		t.Errorf("total tokens = %d", totalTokens(a))
	}
}

func TestHFPImbalanceWithMixedLengths(t *testing.T) {
	reqs := []Request{{ID: 0, Tokens: 32768}, {ID: 1, Tokens: 2048}}
	a, err := HFP{}.Assign(reqs, 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	util := a.Utilization()
	if util > 0.6 {
		t.Errorf("HFP with 16:1 length skew should be imbalanced, util=%.2f", util)
	}
}

func TestTCPBalancesMixedLengths(t *testing.T) {
	reqs := []Request{{ID: 0, Tokens: 32768}, {ID: 1, Tokens: 2048}}
	a, err := TCP{}.Assign(reqs, 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if util := a.Utilization(); util < 0.99 {
		t.Errorf("TCP should balance evenly-divisible loads, util=%.3f", util)
	}
	if a.ActiveChannels() != 4 {
		t.Errorf("TCP should activate all channels, got %d", a.ActiveChannels())
	}
}

func TestTCPActivatesAllChannelsForSingleRequest(t *testing.T) {
	// The long-context regime: one request fills a channel under HFP.
	reqs := []Request{{ID: 0, Tokens: 100000}}
	h, _ := HFP{}.Assign(reqs, 1, 1, 16)
	c, _ := TCP{}.Assign(reqs, 1, 1, 16)
	if h.ActiveChannels() != 1 {
		t.Errorf("HFP single request/head should use 1 channel, got %d", h.ActiveChannels())
	}
	if c.ActiveChannels() != 16 {
		t.Errorf("TCP should use all 16 channels, got %d", c.ActiveChannels())
	}
}

// Property: both strategies conserve total tokens and never produce
// negative work.
func TestTokenConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 1
		reqs := make([]Request, n)
		var want int
		for i := range reqs {
			tk := rng.Intn(50000)
			reqs[i] = Request{ID: i, Tokens: tk}
			want += tk
		}
		kvHeads := rng.Intn(8) + 1
		channels := []int{4, 8, 16, 32}[rng.Intn(4)]
		want *= kvHeads
		for _, s := range []Strategy{HFP{}, TCP{}} {
			a, err := s.Assign(reqs, kvHeads, 1, channels)
			if err != nil {
				return false
			}
			if totalTokens(a) != want {
				return false
			}
			for _, ws := range a.Channels {
				for _, w := range ws {
					if w.Tokens <= 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: TCP utilization is always at least HFP utilization.
func TestTCPUtilizationDominatesHFP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 1
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{ID: i, Tokens: rng.Intn(100000) + 1000}
		}
		kvHeads := rng.Intn(4) + 1
		h, err1 := HFP{}.Assign(reqs, kvHeads, 1, 16)
		c, err2 := TCP{}.Assign(reqs, kvHeads, 1, 16)
		if err1 != nil || err2 != nil {
			return false
		}
		return c.Utilization() >= h.Utilization()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := (HFP{}).Assign(nil, 1, 1, 0); err == nil {
		t.Error("zero channels should fail")
	}
	if _, err := (TCP{}).Assign(nil, 0, 1, 4); err == nil {
		t.Error("zero heads should fail")
	}
	if _, err := (TCP{}).Assign([]Request{{ID: 0, Tokens: -5}}, 1, 1, 4); err == nil {
		t.Error("negative tokens should fail")
	}
	if _, err := (HFP{}).Assign(nil, 1, 0, 4); err == nil {
		t.Error("zero queries should fail")
	}
}

func TestHFPCapacitySplitsOversizedTiles(t *testing.T) {
	// One request whose head tile is 3.5x a channel's capacity must be
	// force-split across 4 channels.
	reqs := []Request{{ID: 0, Tokens: 3500}}
	a, err := HFP{CapacityTokens: 1000}.Assign(reqs, 1, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.ActiveChannels() != 4 {
		t.Fatalf("want 4 channels for a 3.5x-capacity tile, got %d", a.ActiveChannels())
	}
	if totalTokens(a) != 3500 {
		t.Fatalf("split must conserve tokens, got %d", totalTokens(a))
	}
	for _, ws := range a.Channels {
		for _, w := range ws {
			if w.Tokens > 1000 {
				t.Fatalf("split produced oversized tile of %d tokens", w.Tokens)
			}
		}
	}
}

func TestPipelineActivityFig6(t *testing.T) {
	// Two requests, two KV heads, four channels, two pipeline steps.
	// Under PP, HFP activates only the channels of the request in each
	// stage; TCP activates all channels every step.
	reqs := []Request{{ID: 0, Tokens: 8192}, {ID: 1, Tokens: 8192}}
	step := func(s int) []int { return []int{s % 2} }
	h, err := PipelineActivity(HFP{}, reqs, 2, 1, 4, 2, step)
	if err != nil {
		t.Fatal(err)
	}
	c, err := PipelineActivity(TCP{}, reqs, 2, 1, 4, 2, step)
	if err != nil {
		t.Fatal(err)
	}
	if hf, cf := h.ActiveFraction(), c.ActiveFraction(); cf <= hf {
		t.Errorf("TCP active fraction (%.2f) should exceed HFP (%.2f)", cf, hf)
	}
	if c.ActiveFraction() != 1.0 {
		t.Errorf("TCP should fully activate the grid, got %.2f", c.ActiveFraction())
	}
}

func TestStrategyNames(t *testing.T) {
	if (HFP{}).Name() != "hfp" || (TCP{}).Name() != "tcp" {
		t.Fatal("strategy names changed; experiments key on them")
	}
}
