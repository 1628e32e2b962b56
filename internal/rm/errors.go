package rm

import (
	"strconv"

	"hhcw/internal/dag"
	"hhcw/internal/fault"
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

// TimeoutError is an attempt ended by the recovery policy's virtual-time
// timeout: "rm: <submission ID> attempt <Attempt> exceeded <LimitSec>s: "
// followed by fault.ErrTimeout's text, which Unwrap returns.
type TimeoutError struct {
	WorkflowID string
	Task       dag.TaskID
	Attempt    int
	LimitSec   float64
}

func (e *TimeoutError) Error() string {
	var b [160]byte
	out := append(b[:0], "rm: "...)
	out = appendID(out, e.WorkflowID, e.Task, e.Attempt)
	out = append(out, " attempt "...)
	out = strconv.AppendInt(out, int64(e.Attempt), 10)
	out = append(out, " exceeded "...)
	out = strconv.AppendFloat(out, e.LimitSec, 'f', 0, 64) // %.0f
	out = append(out, "s: "...)
	out = append(out, fault.ErrTimeout.Error()...)
	return string(out)
}

// Unwrap returns fault.ErrTimeout, so errors.Is finds it.
func (e *TimeoutError) Unwrap() error { return fault.ErrTimeout }
