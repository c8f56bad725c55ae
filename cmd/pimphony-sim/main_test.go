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
// PIMPHONY_SIM_MAIN=1 in its environment, the process runs main on its
// arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("PIMPHONY_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCLIExitStatus runs pimphony-sim in a child process, each case
// against a deadline so a regression fails instead of hanging the
// suite. A negative -pool panicked; a non-positive -window silently ran
// a 16-step default; and -tp or -pp alone, or negative, silently ran the
// preset's parallelism. Each is now an error naming the flag.
func TestCLIExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
		want string // a substring of the combined output
	}{
		{[]string{"-tp", "1", "-pp", "8"}, true, "TP=1 PP=8 over 8 modules"},
		{[]string{"-pool", "-1"}, false, "-pool must be positive"},
		{[]string{"-window", "0"}, false, "-window must be positive"},
		{[]string{"-window", "-3"}, false, "-window must be positive"},
		{[]string{"-tp", "0", "-pp", "2"}, false, "-tp and -pp override the preset together"},
		{[]string{"-tp", "-1"}, false, "-tp must be non-negative"},
		{[]string{"-pp", "-2"}, false, "-pp must be non-negative"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "PIMPHONY_SIM_MAIN=1")
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Errorf("pimphony-sim %s: still running after 20 s", strings.Join(c.args, " "))
			continue
		}
		if (err == nil) != c.ok {
			t.Errorf("pimphony-sim %s: exit error %v, want success %v\n%s", strings.Join(c.args, " "), err, c.ok, out)
			continue
		}
		if !c.ok && cmd.ProcessState.ExitCode() != 1 {
			t.Errorf("pimphony-sim %s: exit status %d, want 1", strings.Join(c.args, " "), cmd.ProcessState.ExitCode())
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("pimphony-sim %s: output lacks %q\n%s", strings.Join(c.args, " "), c.want, out)
		}
	}
}
