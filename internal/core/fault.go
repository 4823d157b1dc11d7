package core

import (
	"fmt"
	"runtime/debug"

	"repro/internal/rules"
	"repro/internal/smt"
)

// ErrBudget is the solver's budget-exhaustion sentinel re-exported at the
// engine boundary: lane failures caused by a Check that ran out of nodes,
// propagation steps, or wall-clock time unwrap to it (errors.Is), so a
// serving layer can map "the solver gave up" to backpressure (HTTP 503)
// instead of a hard failure.
var ErrBudget = smt.ErrBudget

// PanicError wraps a panic recovered from one record's decode. The decode
// loop and DecodeRequests' override records convert a panic (e.g. an
// invariant breach in sampling or an LM session misuse) into a per-record
// *PanicError instead of crashing the process; a pooled engine clone the
// record ran on is discarded rather than recycled, since its solver stack
// may have been mid-mutation when the panic unwound.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack at recovery, for logs
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("core: decoding lane panicked: %v", p.Value)
}

// FaultSite identifies one guided-decoding step for fault injection: the
// record's known prefix (which is what a test can key on to poison exactly
// one request of a batch) plus the slot position and token count reached.
type FaultSite struct {
	Known  rules.Record // the lane's known prefix, nil for generation
	Field  string       // field of the slot about to emit a token
	Index  int          // element index within the field
	Tokens int          // sampled tokens emitted so far by this lane
}

// guardLane runs f, converting a panic into a *PanicError so one lane's
// crash is a per-lane failure, not a process death. Mirrors how LaneError
// retires a single lane of a lock-step batch.
func guardLane(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return f()
}
