package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
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
// that used to misbehave. A fleet of decode replicas without prefill
// servers died with a nil-pointer panic; its prompts are now prefilled
// outside the fleet, and the table renders. A NaN rate used to print a
// table of NaNs and exit 0; it is now an error.
func TestCLIExitStatus(t *testing.T) {
	for _, c := range []struct {
		args []string
		ok   bool
		want string // a substring of the combined output
	}{
		{[]string{"-fleet", "cent:decode:2", "-rate", "1"}, true, "2dec"},
		{[]string{"-rate", "nan", "-n", "4"}, false, "must be positive and finite"},
	} {
		cmd := exec.Command(os.Args[0], c.args...)
		cmd.Env = append(os.Environ(), "PIMPHONY_SERVE_MAIN=1")
		out, err := cmd.CombinedOutput()
		if (err == nil) != c.ok {
			t.Errorf("pimphony-serve %s: exit error %v, want success %v\n%s", strings.Join(c.args, " "), err, c.ok, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("pimphony-serve %s: output lacks %q\n%s", strings.Join(c.args, " "), c.want, out)
		}
	}
}
