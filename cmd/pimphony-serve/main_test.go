package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"pimphony/internal/cluster"
	"pimphony/internal/model"
	"pimphony/internal/serve"
	"pimphony/internal/timing"
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
// NaN link latency negative TTFTs, "-mtbf nan" ran fault-free,
// "-retries -5" ran with an unlimited retry budget and a KV budget
// rounding to 0 bytes ran on the whole pool, all with exit status 0;
// kv=inf failed on a "negative" budget. Each is now a validation error,
// while "-retries -1" still runs with an unlimited budget. A bad
// -ic-gbps or -ic-lat-us fails as that flag, in its unit, rather than
// as the fleet's Interconnect field once the first table row runs; 0
// GiB/s still runs with no fabric. A bad -slo-ttft or -slo-tbt fails as
// that flag, in milliseconds, and -decode 0 or -n 0 as that flag, rather
// than as the library's first request or empty schedule; -n does not
// bind multi-turn sessions. Unknown policy, placement, autoscaler and
// allocator names keep their error text.
func TestCLIExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
		want string // a substring of the combined output
	}{
		{[]string{"-fleet", "cent:decode:2", "-rate", "1"}, true, "2dec"},
		{[]string{"-rate", "nan", "-n", "4"}, false, "must be positive and finite"},
		{[]string{"-fleet", "cent:unified:2", "-mtbf", "5", "-mttr", "nan", "-rate", "1", "-n", "4"}, false, "-mttr must be a non-negative, finite number of seconds, got NaN"},
		{[]string{"-fleet", "cent:unified:2", "-mtbf", "5", "-mttr", "-1", "-rate", "1", "-n", "4"}, false, "-mttr must be a non-negative, finite number of seconds, got -1"},
		{[]string{"-fleet", "cent:unified:2", "-mtbf", "inf", "-rate", "1", "-n", "4"}, false, "-mtbf must be a non-negative number of seconds (0 disables) and finite, got +Inf"},
		{[]string{"-fleet", "cent:unified:2", "-autoscale", "slo", "-warmup", "nan", "-rate", "1", "-n", "4"}, false, "-warmup must be a non-negative, finite number of seconds, got NaN"},
		{[]string{"-fleet", "cent:unified:2", "-mtbf", "5", "-fault-mode", "slow", "-rate", "1", "-n", "4", "-slo-ttft", "nan"}, false, "-slo-ttft must be a non-negative, finite number of milliseconds (0 disables), got NaN"},
		{[]string{"-slo-ttft", "-5", "-rate", "1", "-n", "4"}, false, "-slo-ttft must be a non-negative, finite number of milliseconds (0 disables), got -5"},
		{[]string{"-slo-tbt", "inf", "-rate", "1", "-n", "4"}, false, "-slo-tbt must be a non-negative, finite number of milliseconds (0 disables), got +Inf"},
		{[]string{"-slo-ttft", "0", "-slo-tbt", "0", "-rate", "1", "-n", "4"}, true, "SLO ttft<=0ms tbt<=0ms"},
		{[]string{"-decode", "0", "-rate", "1", "-n", "4"}, false, "-decode must be at least 1 token, got 0"},
		{[]string{"-n", "0", "-rate", "1"}, false, "-n must be at least 1 request, got 0"},
		{[]string{"-n", "0", "-turns", "2", "-sessions", "2", "-rate", "1"}, true, "2 sessions x 2 turns"},
		{[]string{"-fleet", "cent:unified:2", "-mtbf", "nan", "-rate", "1", "-n", "4"}, false, "-mtbf must be a non-negative number"},
		{[]string{"-fleet", "cent:unified:2", "-rate", "4", "-n", "20", "-mtbf", "5", "-decode", "32", "-retries", "-5"}, false, "-retries must be a retry count or -1"},
		{[]string{"-fleet", "cent:unified:2", "-rate", "4", "-n", "20", "-mtbf", "5", "-decode", "32", "-retries", "-1"}, true, "2uni"},
		{[]string{"-fleet", "neupims:prefill:1,cent:decode:2", "-ic-lat-us", "nan", "-rate", "1", "-n", "4"}, false, "-ic-lat-us must be a non-negative, finite latency in µs, got NaN"},
		{[]string{"-fleet", "neupims:prefill:1,cent:decode:2", "-ic-lat-us", "-5", "-rate", "1", "-n", "4"}, false, "-ic-lat-us must be a non-negative, finite latency in µs, got -5"},
		{[]string{"-fleet", "cent:unified:2", "-ic-gbps", "nan", "-n", "4", "-rate", "1"}, false, "-ic-gbps must be a non-negative bandwidth in GiB/s (0 = no fabric), got NaN"},
		{[]string{"-fleet", "cent:unified:2", "-ic-gbps", "-1", "-n", "4", "-rate", "1"}, false, "-ic-gbps must be a non-negative bandwidth in GiB/s (0 = no fabric), got -1"},
		{[]string{"-fleet", "cent:unified:2", "-ic-gbps", "0", "-n", "4", "-rate", "1"}, true, "2uni"},
		{[]string{"-turns", "0", "-n", "4", "-rate", "1"}, false, "-turns must be at least 1"},
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

// FuzzFleetSpecs: a -fleet value either fails to parse or yields specs
// that each have a positive count, a known role and a non-negative KV
// budget, and validating the fleet and building each spec's system then
// return an answer rather than panic; each case runs against a
// deadline. budget is the -kv-budget in GiB, applied as the command
// applies it.
func FuzzFleetSpecs(f *testing.F) {
	for _, spec := range []string{
		"cent:unified:4:kv=24",
		"neupims:prefill:1,cent:decode:3:kv=32",
		"cent:decode:2",
		"cent:unified:2:alloc=static",
		"cent:unified:2:kv=8:alloc=dpa",
		"cent:unified:2:kv=inf",
		"cent:unified:2:kv=1e-12",
		"cent:unified:2:alloc=",
		"cent:unified:2:kv=",
		"cent::2",
		"::",
		",",
		"",
	} {
		f.Add(spec, 0.0)
	}
	f.Add("cent:unified:2", 8.0)
	f.Add("cent:unified:2", 1e-12)
	m := model.LLM7B32K()
	f.Fuzz(func(t *testing.T, spec string, budget float64) {
		def, err := budgetBytes(budget)
		if err != nil {
			def = 0 // the command rejects such a budget before parsing
		}
		done := make(chan []string, 1)
		go func() {
			var bad []string
			defer func() { done <- bad }()
			specs, err := parseFleetSpecs(spec, m, def)
			if err != nil {
				return
			}
			for i, s := range specs {
				if s.Count < 1 {
					bad = append(bad, fmt.Sprintf("spec %d has count %d", i, s.Count))
				}
				if r := s.Role; r != serve.RoleUnified && r != serve.RolePrefill && r != serve.RoleDecode {
					bad = append(bad, fmt.Sprintf("spec %d has unknown role %v", i, r))
				}
				if s.System.KVBudgetBytes < 0 {
					bad = append(bad, fmt.Sprintf("spec %d has KV budget %d bytes", i, s.System.KVBudgetBytes))
				}
				_, _ = cluster.New(s.System)
			}
			cfg := serve.Config{Fleet: specs, Interconnect: timing.DefaultInterconnect()}
			_ = cfg.Validate()
		}()
		select {
		case bad := <-done:
			for _, b := range bad {
				t.Errorf("-fleet %q (kv-budget %g): %s", spec, budget, b)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("-fleet %q (kv-budget %g): still running after 5 s", spec, budget)
		}
	})
}
