package bench

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// profileShares attributes a CPU profile to modules, in percent of all
// samples, by reading it through `go tool pprof -traces`.
func profileShares(ctx context.Context, path string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", "-symbolize=none", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: go tool pprof -traces %s: %w", path, err)
	}
	return attribute(out)
}

// attribute parses `pprof -traces` output: traces separated by dashed
// rules, each opening with the sample value and the innermost frame, one
// caller frame per following line. Each sample counts toward the module of
// its innermost hhcw frame, or toward runtime when it has none.
func attribute(traces []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	var total, val float64
	inTrace, found := false, false
	sc := bufio.NewScanner(bytes.NewReader(traces))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	seenRule := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			if inTrace && !found {
				shares["runtime"] += val
			}
			seenRule, inTrace = true, false
			continue
		}
		fields := strings.Fields(line)
		if !seenRule || len(fields) == 0 {
			continue // header, or a blank line
		}
		frame := fields[0]
		if !inTrace {
			if len(fields) < 2 {
				return nil, fmt.Errorf("bench: pprof trace line %q has no frame", line)
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("bench: pprof trace value %q: %w", fields[0], err)
			}
			val, frame = d.Seconds(), fields[1]
			total += val
			inTrace, found = true, false
		}
		if !found {
			if m, ok := moduleOf(frame); ok {
				shares[m] += val
				found = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if inTrace && !found {
		shares["runtime"] += val
	}
	for m := range shares {
		shares[m] *= 100 / total
	}
	return shares, nil
}

// moduleOf maps a function name to the module its samples count toward;
// ok is false for frames outside hhcw.
func moduleOf(fn string) (string, bool) {
	const internal = "hhcw/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		name := fn[len(internal):]
		if i := strings.IndexAny(name, "./"); i >= 0 {
			name = name[:i]
		}
		for _, m := range modules {
			if m == name {
				return m, true
			}
		}
		return "other", true
	case strings.HasPrefix(fn, "hhcw/bench"), strings.HasPrefix(fn, "main."):
		return "bench", true
	}
	return "", false
}
