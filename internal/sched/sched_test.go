package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pimphony/internal/pim"
	"pimphony/internal/timing"
)

// devNoRefresh is the AiM device with refresh disabled, used for the exact
// Fig. 7 calibration where the paper counts raw pipeline cycles.
func devNoRefresh() timing.Device {
	d := timing.AiM16()
	d.TRFC = 0
	return d
}

// fig7Stack reproduces the paper's Fig. 7(a) command stack for the
// (1x48)*(48x32) GEMV: three input tiles, two output groups, three
// accumulating MACs per group.
func fig7Stack() *pim.Stack {
	s := pim.NewStack(64, 32)
	s.WrInp(0)
	s.WrInp(1)
	s.WrInp(2)
	s.Mac(0, 0, 0, 0)
	s.Mac(1, 0, 0, 1)
	s.Mac(2, 0, 0, 2)
	s.RdOut(0)
	s.Mac(0, 1, 0, 3)
	s.Mac(1, 1, 0, 4)
	s.Mac(2, 1, 0, 5)
	s.RdOut(1)
	return s
}

// TestFig7Calibration pins the headline numbers of the paper's Fig. 7:
// 34 cycles under the static controller, 22 cycles under DCS.
func TestFig7Calibration(t *testing.T) {
	d := devNoRefresh()
	st, err := (&Static{Dev: d}).Schedule(fig7Stack())
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 34 {
		t.Errorf("static Fig.7 total = %d cycles, want 34 (paper)", st.Total)
	}
	dc, err := (&DCS{Dev: d}).Schedule(fig7Stack())
	if err != nil {
		t.Fatal(err)
	}
	if dc.Total != 22 {
		t.Errorf("DCS Fig.7 total = %d cycles, want 22 (paper)", dc.Total)
	}
}

func TestFig7StaticIssueTimes(t *testing.T) {
	d := devNoRefresh()
	res, err := (&Static{Dev: d}).Schedule(fig7Stack())
	if err != nil {
		t.Fatal(err)
	}
	want := []timing.Cycles{0, 2, 4, 8, 11, 14, 17, 21, 24, 27, 30}
	for i, w := range want {
		if res.Issue[i] != w {
			t.Errorf("static issue[%d] = %d, want %d", i, res.Issue[i], w)
		}
	}
}

func TestBreakdownSumsToTotal(t *testing.T) {
	d := timing.AiM16()
	for _, s := range []Scheduler{&Static{Dev: d}, &PingPong{Dev: d}, &DCS{Dev: d}, &DCS{Dev: d, DisableIsMAC: true}} {
		res, err := s.Schedule(fig7Stack())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got := res.Breakdown.Total(); got != res.Total {
			t.Errorf("%s: breakdown sums to %d, total is %d (%+v)", s.Name(), got, res.Total, res.Breakdown)
		}
	}
}

func TestDCSNeverSlowerThanStatic(t *testing.T) {
	d := timing.AiM16()
	stacks := map[string]*pim.Stack{
		"fig7":      fig7Stack(),
		"streaming": streamingStack(64, 8),
		"rows":      rowStack(4, 8),
	}
	for name, stack := range stacks {
		st, err := (&Static{Dev: d}).Schedule(stack)
		if err != nil {
			t.Fatalf("%s static: %v", name, err)
		}
		dc, err := (&DCS{Dev: d}).Schedule(cloneStack(stack))
		if err != nil {
			t.Fatalf("%s dcs: %v", name, err)
		}
		if dc.Total > st.Total {
			t.Errorf("%s: DCS (%d) slower than static (%d)", name, dc.Total, st.Total)
		}
	}
}

func TestIsMACBypassHelps(t *testing.T) {
	d := timing.AiM16()
	stack := fig7Stack()
	with, err := (&DCS{Dev: d}).Schedule(stack)
	if err != nil {
		t.Fatal(err)
	}
	without, err := (&DCS{Dev: d, DisableIsMAC: true}).Schedule(cloneStack(stack))
	if err != nil {
		t.Fatal(err)
	}
	if with.Total >= without.Total {
		t.Errorf("is-MAC bypass should reduce latency: with=%d without=%d", with.Total, without.Total)
	}
}

// streamingStack models an SV-like streaming kernel: `tiles` input tiles are
// streamed through a GBuf of `gbufEntries` entries, each tile feeding one
// accumulating MAC into output entry 0, drained once at the end.
func streamingStack(tiles, gbufEntries int) *pim.Stack {
	s := pim.NewStack(gbufEntries, 32)
	for i := 0; i < tiles; i++ {
		e := i % gbufEntries
		s.WrInp(e)
		s.Mac(e, 0, 0, i)
	}
	s.RdOut(0)
	return s
}

// rowStack models a kernel spanning several DRAM rows with ACT/PRE pairs.
func rowStack(rows, macsPerRow int) *pim.Stack {
	s := pim.NewStack(64, 32)
	s.WrInp(0)
	for r := 0; r < rows; r++ {
		s.Act(r)
		for m := 0; m < macsPerRow; m++ {
			s.Mac(0, 0, r, m)
		}
		s.Pre(r)
	}
	s.RdOut(0)
	return s
}

func cloneStack(s *pim.Stack) *pim.Stack {
	c := pim.NewStack(s.GBufEntries, s.OutEntries)
	c.Cmds = append(c.Cmds, s.Cmds...)
	return c
}

func TestPingPongBetweenStaticAndDCS(t *testing.T) {
	d := timing.AiM16()
	stack := streamingStack(128, 16)
	st, _ := (&Static{Dev: d}).Schedule(stack)
	pp, err := (&PingPong{Dev: d}).Schedule(cloneStack(stack))
	if err != nil {
		t.Fatal(err)
	}
	dc, _ := (&DCS{Dev: d}).Schedule(cloneStack(stack))
	if !(dc.Total <= pp.Total && pp.Total <= st.Total) {
		t.Errorf("expected dcs <= pingpong <= static, got dcs=%d pp=%d static=%d",
			dc.Total, pp.Total, st.Total)
	}
	if dc.Total == pp.Total {
		t.Logf("note: DCS and ping-pong tied on this stack (dcs=%d)", dc.Total)
	}
}

func TestRowCommandsGateMACs(t *testing.T) {
	d := devNoRefresh()
	stack := rowStack(2, 2)
	res, err := (&DCS{Dev: d}).Schedule(stack)
	if err != nil {
		t.Fatal(err)
	}
	// Find ACT of row 1 and first MAC on row 1: the MAC must issue at
	// least tRCD after the ACT.
	var actIssue, macIssue timing.Cycles = -1, -1
	for i, c := range stack.Cmds {
		if c.Kind == pim.ACT && c.Row == 1 {
			actIssue = res.Issue[i]
		}
		if c.Kind == pim.MAC && c.Row == 1 && macIssue < 0 {
			macIssue = res.Issue[i]
		}
	}
	if actIssue < 0 || macIssue < 0 {
		t.Fatal("did not find row-1 ACT/MAC")
	}
	if macIssue < actIssue+d.TRCD {
		t.Errorf("MAC on row 1 issued %d, want >= ACT(%d)+tRCD(%d)", macIssue, actIssue, d.TRCD)
	}
}

// TestDependencyOrderingInvariant: under every scheduler, a MAC never
// issues before the WR-INP that produced its input tile has completed.
func TestDependencyOrderingInvariant(t *testing.T) {
	d := timing.AiM16()
	schedulers := []Scheduler{&Static{Dev: d}, &PingPong{Dev: d}, &DCS{Dev: d}}
	f := func(seed int64) bool {
		stack := randomStack(seed, 80)
		for _, s := range schedulers {
			res, err := s.Schedule(cloneStack(stack))
			if err != nil {
				return false
			}
			lastW := map[int]int{}
			for i, c := range stack.Cmds {
				switch c.Kind {
				case pim.WRINP:
					lastW[c.GBuf] = i
				case pim.MAC:
					if w, ok := lastW[c.GBuf]; ok {
						if res.Issue[i] < res.Issue[w]+d.TWRINP {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDrainOrderingInvariant: RD-OUT never issues before its producing MAC
// completes and commits.
func TestDrainOrderingInvariant(t *testing.T) {
	d := timing.AiM16()
	schedulers := []Scheduler{&PingPong{Dev: d}, &DCS{Dev: d}}
	f := func(seed int64) bool {
		stack := randomStack(seed, 80)
		for _, s := range schedulers {
			res, err := s.Schedule(cloneStack(stack))
			if err != nil {
				return false
			}
			lastM := map[int]int{}
			for i, c := range stack.Cmds {
				switch c.Kind {
				case pim.MAC:
					lastM[c.Out] = i
				case pim.RDOUT:
					if m, ok := lastM[c.Out]; ok {
						if res.Issue[i] < res.Issue[m]+d.TMAC+d.TOBufCommit {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// randomStack generates a well-formed random command stack. The stack is a
// pure function of seed, so golden hashes can cover it.
func randomStack(seed int64, n int) *pim.Stack {
	rng := rand.New(rand.NewSource(seed))
	s := pim.NewStack(16, 8)
	written := []int{}
	pending := map[int]bool{}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			g := rng.Intn(16)
			s.WrInp(g)
			written = append(written, g)
		case 2:
			if len(written) == 0 {
				continue
			}
			g := written[rng.Intn(len(written))]
			s.Mac(g, rng.Intn(8), 0, i)
			pending[rng.Intn(8)] = true
		case 3:
			for o := 0; o < 8; o++ { // lowest pending entry: no map-order randomness
				if !pending[o] {
					continue
				}
				if hasAccum(s, o) {
					s.RdOut(o)
				}
				delete(pending, o)
				break
			}
		}
	}
	return s
}

// hasAccum reports whether output entry o has a pending accumulation in s.
func hasAccum(s *pim.Stack, o int) bool {
	pending := false
	for _, c := range s.Cmds {
		if c.Kind == pim.MAC && c.Out == o {
			pending = true
		}
		if c.Kind == pim.RDOUT && c.Out == o {
			pending = false
		}
	}
	return pending
}

// TestBreakdownSumsProperty: across random stacks and all schedulers the
// breakdown always sums exactly to the total.
func TestBreakdownSumsProperty(t *testing.T) {
	d := timing.AiM16()
	schedulers := []Scheduler{&Static{Dev: d}, &PingPong{Dev: d}, &DCS{Dev: d}}
	f := func(seed int64) bool {
		stack := randomStack(seed, 60)
		for _, s := range schedulers {
			res, err := s.Schedule(cloneStack(stack))
			if err != nil {
				return false
			}
			if res.Breakdown.Total() != res.Total {
				return false
			}
			if res.MACUtilization() < 0 || res.MACUtilization() > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyIshStacks(t *testing.T) {
	d := timing.AiM16()
	s := pim.NewStack(4, 4)
	s.WrInp(0) // I/O-only stack
	for _, sc := range []Scheduler{&Static{Dev: d}, &PingPong{Dev: d}, &DCS{Dev: d}} {
		res, err := sc.Schedule(cloneStack(s))
		if err != nil {
			t.Fatalf("%s on IO-only stack: %v", sc.Name(), err)
		}
		if res.Total <= 0 {
			t.Errorf("%s: non-positive total %d", sc.Name(), res.Total)
		}
		if res.Breakdown.Total() != res.Total {
			t.Errorf("%s: breakdown mismatch on IO-only stack", sc.Name())
		}
	}
}

func TestInvalidStackRejected(t *testing.T) {
	d := timing.AiM16()
	bad := pim.NewStack(2, 2)
	bad.Mac(0, 0, 0, 0) // read before write
	for _, sc := range []Scheduler{&Static{Dev: d}, &PingPong{Dev: d}, &DCS{Dev: d}} {
		if _, err := sc.Schedule(bad); err == nil {
			t.Errorf("%s accepted an invalid stack", sc.Name())
		}
	}
}

func TestReasonStrings(t *testing.T) {
	for r := ReasonNone; r <= ReasonInOrder; r++ {
		if r.String() == "" {
			t.Errorf("Reason(%d) renders empty", r)
		}
	}
}

func TestSchedulerNames(t *testing.T) {
	d := timing.AiM16()
	if (&Static{Dev: d}).Name() != "static" ||
		(&PingPong{Dev: d}).Name() != "pingpong" ||
		(&DCS{Dev: d}).Name() != "dcs" ||
		(&DCS{Dev: d, DisableIsMAC: true}).Name() != "dcs-no-ismac" {
		t.Fatal("scheduler names changed; experiment tables key on them")
	}
}
