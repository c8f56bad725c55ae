package pim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// rowCmd appends a row command (ACT or PRE) for the given row, as the
// kernel builders emit them.
func rowCmd(s *Stack, k Kind, row int) {
	s.push(Command{Kind: k, GBuf: -1, Out: -1, Row: row, Col: -1})
}

func TestFig7StackShape(t *testing.T) {
	s := Fig7Stack()
	if err := s.Validate(); err != nil {
		t.Fatalf("fig7 stack should validate: %v", err)
	}
	c := s.Counts()
	if c[WRINP] != 3 || c[MAC] != 6 || c[RDOUT] != 2 {
		t.Fatalf("fig7 counts = %v, want 3 WR-INP / 6 MAC / 2 RD-OUT", c)
	}
	if len(s.Cmds) != 11 {
		t.Fatalf("fig7 stack length = %d, want 11", len(s.Cmds))
	}
}

func TestIDsAreDense(t *testing.T) {
	s := Fig7Stack()
	for i, c := range s.Cmds {
		if c.ID != i {
			t.Fatalf("command %d has ID %d", i, c.ID)
		}
	}
}

func TestValidateCatchesMACBeforeWrite(t *testing.T) {
	s := NewStack(4, 4)
	s.Mac(0, 0, 0, 0)
	if err := s.Validate(); err == nil {
		t.Fatal("expected error for MAC before WR-INP")
	}
}

func TestValidateCatchesEmptyDrain(t *testing.T) {
	s := NewStack(4, 4)
	s.WrInp(0)
	s.RdOut(0)
	if err := s.Validate(); err == nil {
		t.Fatal("expected error for RD-OUT with no accumulation")
	}
}

func TestValidateCatchesDoubleDrain(t *testing.T) {
	s := NewStack(4, 4)
	s.WrInp(0)
	s.Mac(0, 0, 0, 0)
	s.RdOut(0)
	s.RdOut(0)
	if err := s.Validate(); err == nil {
		t.Fatal("expected error for double RD-OUT")
	}
}

func TestValidateCatchesOutOfRangeIndices(t *testing.T) {
	s := NewStack(2, 2)
	s.WrInp(5)
	if err := s.Validate(); err == nil {
		t.Fatal("expected error for GBuf index out of range")
	}
	s2 := NewStack(2, 2)
	s2.WrInp(0)
	s2.Mac(0, 9, 0, 0)
	if err := s2.Validate(); err == nil {
		t.Fatal("expected error for Out index out of range")
	}
}

func TestRowProtocol(t *testing.T) {
	s := NewStack(4, 4)
	s.WrInp(0)
	rowCmd(s, ACT, 3)
	s.Mac(0, 0, 3, 0)
	rowCmd(s, PRE, 3)
	rowCmd(s, ACT, 4)
	s.Mac(0, 0, 4, 0)
	rowCmd(s, PRE, 4)
	s.RdOut(0)
	if err := s.Validate(); err != nil {
		t.Fatalf("row protocol stack should validate: %v", err)
	}

	bad := NewStack(4, 4)
	bad.WrInp(0)
	rowCmd(bad, ACT, 3)
	bad.Mac(0, 0, 7, 0) // wrong row
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for MAC on unopened row")
	}

	bad2 := NewStack(4, 4)
	rowCmd(bad2, ACT, 1)
	rowCmd(bad2, ACT, 2) // double open
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected error for nested ACT")
	}

	bad3 := NewStack(4, 4)
	rowCmd(bad3, PRE, 1) // close without open
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected error for PRE without ACT")
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{WRINP: "WR-INP", MAC: "MAC", RDOUT: "RD-OUT", ACT: "ACT", PRE: "PRE"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// Property: any stack generated by the well-formed random generator
// validates, and counts are conserved.
func TestRandomWellFormedStacksValidate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStack(8, 8)
		written := []int{}
		pending := map[int]bool{}
		for i := 0; i < 50; i++ {
			switch rng.Intn(3) {
			case 0:
				g := rng.Intn(8)
				s.WrInp(g)
				written = append(written, g)
			case 1:
				if len(written) == 0 {
					continue
				}
				g := written[rng.Intn(len(written))]
				o := rng.Intn(8)
				s.Mac(g, o, 0, i)
				pending[o] = true
			case 2:
				for o := range pending {
					s.RdOut(o)
					delete(pending, o)
					break
				}
			}
		}
		return s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// invalidStacks holds one stack per Validate rule with the exact error
// Validate returns for it.
var invalidStacks = []struct {
	name  string
	build func(s *Stack)
	want  string
}{
	{"dense IDs", func(s *Stack) {
		s.WrInp(0)
		s.Cmds = append(s.Cmds, Command{ID: 5, Kind: WRINP, GBuf: 1, Out: -1, Row: -1, Col: -1})
	}, "pim: command 1 has ID 5, want dense IDs"},
	{"WR-INP GBuf range", func(s *Stack) { s.WrInp(4) },
		"pim: cmd 0 WR-INP GBuf index 4 out of range [0,4)"},
	{"MAC GBuf range", func(s *Stack) { s.WrInp(0); rowCmd(s, ACT, 0); s.Mac(-1, 0, 0, 0) },
		"pim: cmd 2 MAC GBuf index -1 out of range"},
	{"MAC Out range", func(s *Stack) { s.WrInp(0); rowCmd(s, ACT, 0); s.Mac(0, 2, 0, 0) },
		"pim: cmd 2 MAC Out index 2 out of range [0,2)"},
	{"RD-OUT Out range", func(s *Stack) { s.WrInp(0); s.RdOut(7) },
		"pim: cmd 1 RD-OUT Out index 7 out of range"},
	{"MAC before WR-INP", func(s *Stack) { rowCmd(s, ACT, 0); s.Mac(1, 0, 0, 0) },
		"pim: cmd 1 MAC reads GBuf 1 before any WR-INP"},
	{"drain with nothing accumulated", func(s *Stack) {
		s.WrInp(0)
		rowCmd(s, ACT, 0)
		s.Mac(0, 0, 0, 0)
		s.RdOut(0)
		s.RdOut(0)
	}, "pim: cmd 4 RD-OUT drains Out 0 with no pending accumulation"},
	{"MAC on a closed row", func(s *Stack) { s.WrInp(0); rowCmd(s, ACT, 3); s.Mac(0, 0, 7, 0) },
		"pim: cmd 2 MAC on row 7 but open row is 3"},
	{"MAC before a later PRE", func(s *Stack) { s.WrInp(0); s.Mac(0, 0, 0, 0); rowCmd(s, PRE, 0) },
		"pim: cmd 1 MAC on row 0 but open row is -1"},
	{"nested ACT", func(s *Stack) { rowCmd(s, ACT, 1); rowCmd(s, ACT, 2) },
		"pim: cmd 1 ACT row 2 while row 1 is open"},
	{"PRE without ACT", func(s *Stack) { rowCmd(s, PRE, 1) },
		"pim: cmd 0 PRE row 1 but open row is -1"},
	{"PRE of another row", func(s *Stack) { rowCmd(s, ACT, 1); rowCmd(s, PRE, 2) },
		"pim: cmd 1 PRE row 2 but open row is 1"},
	{"unknown kind", func(s *Stack) {
		s.WrInp(0)
		s.Cmds = append(s.Cmds, Command{ID: 1, Kind: PRE + 1, GBuf: -1, Out: -1, Row: -1, Col: -1})
	}, "pim: cmd 1 has unknown kind 5"},
}

// TestValidateErrorText pins Validate's exact error for each rule.
func TestValidateErrorText(t *testing.T) {
	for _, tc := range invalidStacks {
		s := NewStack(4, 2)
		tc.build(s)
		err := s.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
}
