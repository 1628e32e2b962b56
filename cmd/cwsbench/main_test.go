package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when CWSBENCH_ARGS is set, so a test can
// drive main in a child process and observe its exit code and output.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CWSBENCH_ARGS"); ok {
		os.Args = append([]string{"cwsbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A count below 1 is a usage error (exit 2) named on stderr, before any
// report line reaches stdout.
func TestRejectsCountsBelowOne(t *testing.T) {
	for _, args := range []string{"-seeds 0", "-seeds -1", "-nodes 0", "-cores 0"} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "CWSBENCH_ARGS="+args)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit status 2", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %d bytes to stdout before failing", args, stdout.Len())
		}
		flag := strings.Fields(args)[0]
		if !strings.Contains(stderr.String(), flag+" must be at least 1") {
			t.Errorf("%s: stderr %q does not name %s", args, stderr.String(), flag)
		}
	}
}
