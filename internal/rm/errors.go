package rm

import (
	"strconv"

	"hhcw/internal/dag"
)

// The failure causes below are small values that render their text when
// read: most failures are only counted, never printed, so the text is not
// built when they happen. Each value copies what it renders and never
// points at a record the runner recycles, so a Result's Err stays valid
// after the attempt is gone. Layer is the prefix of the text: the layer
// that reports the failure ("rm", "pilot", "cwsi").

// NodeFailedError is the cause of an attempt killed by the failure of the
// node it ran on: "<Layer>: node <Node> failed".
type NodeFailedError struct {
	Layer string
	Node  string // the node's name
}

func (e *NodeFailedError) Error() string {
	return e.Layer + ": node " + e.Node + " failed"
}

// TransientError is an injected transient failure of a task's attempt (the
// fault plan's application-level flakiness):
// "<Layer>: injected transient failure of <Task> (attempt <Attempt>)".
type TransientError struct {
	Layer   string
	Task    dag.TaskID
	Attempt int
}

func (e *TransientError) Error() string {
	var b [128]byte
	out := append(b[:0], e.Layer...)
	out = append(out, ": injected transient failure of "...)
	out = append(out, e.Task...)
	out = append(out, " (attempt "...)
	out = strconv.AppendInt(out, int64(e.Attempt), 10)
	out = append(out, ')')
	return string(out)
}
