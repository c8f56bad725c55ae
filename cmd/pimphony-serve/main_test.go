package main

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run this binary as the command itself: with
// PIMPHONY_SERVE_MAIN=1 in its environment, the process runs main on
// its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("PIMPHONY_SERVE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCLIExitStatus runs pimphony-serve in a child process on inputs
// that used to misbehave, each against a deadline so a regression fails
// instead of hanging the suite. A fleet of decode replicas without
// prefill servers died with a nil-pointer panic; its prompts are now
// prefilled outside the fleet, and the table renders. A NaN MTTR or a
// tiny MMPP dwell hung the run; a NaN rate printed a table of NaNs, a
// NaN link latency negative TTFTs, "-mtbf nan" ran fault-free and a KV
// budget rounding to 0 bytes ran on the whole pool, all with exit
// status 0; kv=inf failed on a "negative" budget. Each is now a
// validation error. Unknown policy, placement, autoscaler and allocator
// names keep their error text.
func TestCLIExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
		want string // a substring of the combined output
	}{
		{[]string{"-fleet", "cent:decode:2", "-rate", "1"}, true, "2dec"},
		{[]string{"-rate", "nan", "-n", "4"}, false, "must be positive and finite"},
		{[]string{"-fleet", "cent:unified:2", "-mtbf", "5", "-mttr", "nan", "-rate", "1", "-n", "4"}, false, "MTTRSeconds must be non-negative and finite"},
		{[]string{"-fleet", "cent:unified:2", "-mtbf", "5", "-fault-mode", "slow", "-rate", "1", "-n", "4", "-slo-ttft", "nan"}, false, "SLO targets must be non-negative"},
		{[]string{"-fleet", "cent:unified:2", "-mtbf", "nan", "-rate", "1", "-n", "4"}, false, "-mtbf must be a non-negative number"},
		{[]string{"-fleet", "neupims:prefill:1,cent:decode:2", "-ic-lat-us", "nan", "-rate", "1", "-n", "4"}, false, "LatencySeconds must be non-negative and finite"},
		{[]string{"-fleet", "neupims:prefill:1,cent:decode:2", "-ic-lat-us", "-5", "-rate", "1", "-n", "4"}, false, "LatencySeconds must be non-negative and finite"},
		{[]string{"-kv-budget", "1e-12", "-rate", "1", "-n", "4"}, false, "at least one byte"},
		{[]string{"-fleet", "cent:unified:2:kv=1e-12", "-rate", "1", "-n", "4"}, false, "at least one byte"},
		{[]string{"-fleet", "cent:unified:2:kv=inf", "-rate", "1", "-n", "4"}, false, "at least one byte"},
		{[]string{"-arrivals", "mmpp:2:1e-300", "-rate", "1", "-n", "4"}, false, "expected state switches per arrival"},
		{[]string{"-policy", "nope", "-n", "4"}, false, `serve: unknown policy "nope"`},
		{[]string{"-fleet", "cent:unified:2", "-placement", "nope", "-n", "4"}, false, `serve: unknown placement "nope"`},
		{[]string{"-fleet", "cent:unified:2", "-autoscale", "nope", "-n", "4"}, false, `serve: unknown autoscaler "nope"`},
		{[]string{"-capacity", "-alloc", "paged", "-n", "4"}, false, `serve: unknown allocator "paged" (static, dpa)`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "PIMPHONY_SERVE_MAIN=1")
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Errorf("pimphony-serve %s: still running after 20 s", strings.Join(c.args, " "))
			continue
		}
		if (err == nil) != c.ok {
			t.Errorf("pimphony-serve %s: exit error %v, want success %v\n%s", strings.Join(c.args, " "), err, c.ok, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("pimphony-serve %s: output lacks %q\n%s", strings.Join(c.args, " "), c.want, out)
		}
	}
}
