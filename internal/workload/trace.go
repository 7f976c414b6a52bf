package workload

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"ecstore/internal/model"
)

// Trace replays a recorded request log: each request is a fixed list of
// block ids, replayed in order (wrapping at the end). Use it to drive the
// simulator or a real cluster with a captured production workload instead
// of the synthetic generators.
type Trace struct {
	requests [][]model.BlockID
	next     int
}

var _ Workload = (*Trace)(nil)

// ParseTrace reads a trace in the text format
//
//	# comment
//	blockA blockB blockC        <- one request per line, ids whitespace-split
//
// Empty lines and lines starting with '#' are skipped.
func ParseTrace(r io.Reader) (*Trace, error) {
	t := &Trace{}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		req := make([]model.BlockID, 0, len(fields))
		for _, f := range fields {
			req = append(req, model.BlockID(f))
		}
		t.requests = append(t.requests, req)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("read trace line %d: %w", lineNo, err)
	}
	if len(t.requests) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return t, nil
}

// NumRequests returns the trace length.
func (t *Trace) NumRequests() int { return len(t.requests) }

// Blocks returns the distinct block ids referenced by the trace, in first-
// appearance order — the population a cluster must be loaded with before
// replay.
func (t *Trace) Blocks() []model.BlockID {
	seen := make(map[model.BlockID]bool)
	var out []model.BlockID
	for _, req := range t.requests {
		for _, id := range req {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// NextRequest replays the trace in order, wrapping around. The rng is
// unused (replay is deterministic by construction).
func (t *Trace) NextRequest(_ *rand.Rand) []model.BlockID {
	req := t.requests[t.next]
	t.next = (t.next + 1) % len(t.requests)
	out := make([]model.BlockID, len(req))
	copy(out, req)
	return out
}
