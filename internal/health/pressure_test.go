package health

import "testing"

func TestPressureZeroValueAndNil(t *testing.T) {
	var nilP *Pressure
	if nilP.Overloaded() {
		t.Fatal("nil Pressure must never report overload")
	}
	nilP.SetQueueDepth(5) // must not panic
	nilP.ReportAdmitted()
	nilP.ReportShed()
	if nilP.QueueDepth() != 0 || nilP.Admitted() != 0 || nilP.Shed() != 0 {
		t.Fatal("nil Pressure accessors must return zero")
	}

	p := &Pressure{}
	if p.Overloaded() {
		t.Fatal("zero value with empty queue must not be overloaded")
	}
	p.SetQueueDepth(1)
	if !p.Overloaded() {
		t.Fatal("zero-value threshold defaults to 1: depth 1 is overloaded")
	}
}

func TestPressureThreshold(t *testing.T) {
	p := NewPressure(4)
	cases := []struct {
		depth int
		want  bool
	}{{0, false}, {3, false}, {4, true}, {9, true}}
	for _, tc := range cases {
		p.SetQueueDepth(tc.depth)
		if got := p.Overloaded(); got != tc.want {
			t.Errorf("depth %d: Overloaded() = %v, want %v", tc.depth, got, tc.want)
		}
	}
	if got := p.QueueDepth(); got != 9 {
		t.Fatalf("QueueDepth() = %d, want the last published depth 9", got)
	}
}

func TestPressureCounters(t *testing.T) {
	p := NewPressure(1)
	for i := 0; i < 3; i++ {
		p.ReportAdmitted()
	}
	p.ReportShed()
	if p.Admitted() != 3 || p.Shed() != 1 {
		t.Fatalf("counters = (%d, %d), want (3, 1)", p.Admitted(), p.Shed())
	}
}
