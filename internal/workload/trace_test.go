package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ecstore/internal/model"
)

func TestParseTrace(t *testing.T) {
	input := `# a comment
b1 b2 b3

b2 b4
# another comment
b1
`
	tr, err := ParseTrace(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRequests() != 3 {
		t.Fatalf("requests = %d", tr.NumRequests())
	}
	blocks := tr.Blocks()
	want := []model.BlockID{"b1", "b2", "b3", "b4"}
	if len(blocks) != len(want) {
		t.Fatalf("blocks = %v", blocks)
	}
	for i := range want {
		if blocks[i] != want[i] {
			t.Fatalf("blocks = %v, want %v", blocks, want)
		}
	}
}

func TestParseTraceEmpty(t *testing.T) {
	if _, err := ParseTrace(strings.NewReader("# only comments\n\n")); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestTraceReplayWrapsAndCopies(t *testing.T) {
	tr, err := ParseTrace(strings.NewReader("a b\nc\n"))
	if err != nil {
		t.Fatal(err)
	}
	first := tr.NextRequest(nil)
	if len(first) != 2 || first[0] != "a" {
		t.Fatalf("first = %v", first)
	}
	second := tr.NextRequest(nil)
	if len(second) != 1 || second[0] != "c" {
		t.Fatalf("second = %v", second)
	}
	third := tr.NextRequest(nil) // wraps
	if len(third) != 2 || third[1] != "b" {
		t.Fatalf("wrap = %v", third)
	}
	// Mutating the returned slice must not corrupt the trace.
	third[0] = "mutated"
	tr.next = 0
	again := tr.NextRequest(nil)
	if again[0] != "a" {
		t.Fatal("NextRequest aliases internal storage")
	}
}

// writeTrace serializes requests in ParseTrace's format, header comment
// included.
func writeTrace(requests [][]model.BlockID) *bytes.Buffer {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# ecstore trace: %d requests\n", len(requests))
	for _, req := range requests {
		for i, id := range req {
			if i > 0 {
				buf.WriteByte(' ')
			}
			buf.WriteString(string(id))
		}
		buf.WriteByte('\n')
	}
	return &buf
}

func TestWriteTraceRoundTrip(t *testing.T) {
	reqs := [][]model.BlockID{
		{"x", "y"},
		{"z"},
	}
	tr, err := ParseTrace(writeTrace(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRequests() != 2 {
		t.Fatalf("round trip requests = %d", tr.NumRequests())
	}
	got := tr.NextRequest(nil)
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Fatalf("round trip request = %v", got)
	}
}
