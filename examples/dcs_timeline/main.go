// Dcs_timeline renders the paper's Fig. 7 worked example as an ASCII
// timing diagram: the (1x48)*(48x32) GEMV command stack under the static
// controller (34 cycles) and under DCS (22 cycles), showing per-command
// issue slots and the overlap DCS unlocks.
package main

import (
	"fmt"
	"log"
	"strings"

	"pimphony/internal/pim"
	"pimphony/internal/sched"
	"pimphony/internal/timing"
)

// label gives each command the paper's W/M/R naming.
func label(c pim.Command) string {
	switch c.Kind {
	case pim.WRINP:
		return fmt.Sprintf("W%d", c.ID)
	case pim.MAC:
		return fmt.Sprintf("M%d", c.ID)
	case pim.RDOUT:
		return fmt.Sprintf("R%d", c.ID)
	default:
		return fmt.Sprintf("?%d", c.ID)
	}
}

func render(name string, stack *pim.Stack, res *sched.Result) {
	fmt.Printf("%s — %d cycles (MAC util %.0f%%)\n", name, res.Total, 100*res.MACUtilization())
	width := int(res.Total) + 4
	lanes := map[string][]pim.Command{"I/O ": nil, "MAC ": nil}
	for _, c := range stack.Cmds {
		if c.Kind == pim.MAC {
			lanes["MAC "] = append(lanes["MAC "], c)
		} else {
			lanes["I/O "] = append(lanes["I/O "], c)
		}
	}
	for _, lane := range []string{"I/O ", "MAC "} {
		row := make([]byte, width)
		for i := range row {
			row[i] = '.'
		}
		for _, c := range lanes[lane] {
			t := int(res.Issue[c.ID])
			l := label(c)
			copy(row[t:], l)
		}
		fmt.Printf("  %s |%s|\n", lane, string(row))
	}
	axis := make([]byte, width)
	for i := range axis {
		if i%5 == 0 {
			axis[i] = '+'
		} else {
			axis[i] = '-'
		}
	}
	fmt.Printf("  cyc  |%s|\n\n", string(axis))
}

func main() {
	dev := timing.AiM16()
	dev.TRFC = 0 // the worked example counts raw pipeline cycles

	fmt.Println("Fig. 7 — (1x48)*(48x32) GEMV: 3 WR-INP, 6 MAC, 2 RD-OUT")
	fmt.Println(strings.Repeat("=", 60))

	st, err := (&sched.Static{Dev: dev}).Schedule(pim.Fig7Stack())
	if err != nil {
		log.Fatal(err)
	}
	render("static controller (paper: 34 cycles)", pim.Fig7Stack(), st)

	dc, err := (&sched.DCS{Dev: dev}).Schedule(pim.Fig7Stack())
	if err != nil {
		log.Fatal(err)
	}
	render("DCS controller (paper: 22 cycles)", pim.Fig7Stack(), dc)

	fmt.Printf("latency saved by DCS: %d cycles (%.0f%%)\n",
		st.Total-dc.Total, 100*float64(st.Total-dc.Total)/float64(st.Total))
	fmt.Println("\nkey moves (Sec. V-C): M3 issues as soon as W0 completes instead of")
	fmt.Println("waiting for W2; M7 issues before R6 because they are independent;")
	fmt.Println("consecutive MACs on one OBuf entry chain at tCCDS via the is-MAC flag.")
}
