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
// PIMPHONY_COMPILE_MAIN=1 in its environment, the process runs main on
// its arguments instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("PIMPHONY_COMPILE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCLIExitStatus runs pimphony-compile in a child process, each
// against a deadline. A context length below one token printed a table
// of zero MAC commands with exit status 0; it now fails naming the
// flag. Model names resolve as everywhere else (model.ByFlag), so an
// unknown one fails with the list of known names.
func TestCLIExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
		want string // a substring of the combined output
	}{
		{[]string{"-model", "7b-32k", "-tokens", "4096"}, true, "Instruction footprint"},
		{[]string{"-tokens", "0"}, false, "-tokens must be at least 1, got 0"},
		{[]string{"-tokens", "-5"}, false, "-tokens must be at least 1, got -5"},
		{[]string{"-model", "bogus"}, false, `unknown model "bogus" (7b-32k, 7b-128k-gqa, 72b-32k, 72b-128k-gqa)`},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "PIMPHONY_COMPILE_MAIN=1")
		out, err := cmd.CombinedOutput()
		timedOut := ctx.Err() != nil
		cancel()
		if timedOut {
			t.Errorf("pimphony-compile %s: still running after 20 s", strings.Join(c.args, " "))
			continue
		}
		if (err == nil) != c.ok {
			t.Errorf("pimphony-compile %s: exit error %v, want success %v\n%s", strings.Join(c.args, " "), err, c.ok, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("pimphony-compile %s: output lacks %q\n%s", strings.Join(c.args, " "), c.want, out)
		}
	}
}
