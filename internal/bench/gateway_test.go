package bench

import (
	"encoding/json"
	"testing"
)

// tinyGatewayScale sizes the open-loop sweep; -short halves the
// simulated time.
func tinyGatewayScale() Scale {
	if testing.Short() {
		return Scale{Name: "short", Blocks: 1000, Warmup: 0.5, Measure: 1, Seed: 42}
	}
	return Scale{Name: "tiny", Blocks: 1000, Warmup: 1, Measure: 2, Seed: 42}
}

func TestAblationGatewaySweep(t *testing.T) {
	t.Parallel()
	rep, sweep, err := AblationGateway(tinyGatewayScale())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "ab-gateway" || rep.Data == nil {
		t.Fatalf("report = %+v", rep)
	}
	if len(sweep.Points) < 2 {
		t.Fatalf("sweep produced %d points, want an actual ladder", len(sweep.Points))
	}
	if sweep.MaxSustainableRPS <= 0 {
		t.Fatalf("no sustainable rate found: %+v", sweep.Points)
	}
	last := sweep.Points[len(sweep.Points)-1]
	if last.Shed == 0 || last.SLOMet {
		t.Fatalf("final point is not an overload row (shed, SLO missed): %+v", last)
	}
	// The finite queue must bound the overload tail: the sweep stops at
	// 4× the SLO, and even that point's p99 must be finite and recorded.
	if last.P99Millis <= 0 || last.P99Millis > 20*sweep.SLOMillis {
		t.Fatalf("overload p99 %vms not bounded", last.P99Millis)
	}
	for _, pt := range sweep.Points {
		if pt.SLOMet && pt.OfferedRPS > sweep.MaxSustainableRPS {
			t.Fatalf("max sustainable %v below SLO-met point %v", sweep.MaxSustainableRPS, pt.OfferedRPS)
		}
	}
}

func TestAblationGatewayDeterministic(t *testing.T) {
	t.Parallel()
	_, a, err := AblationGateway(tinyGatewayScale())
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := AblationGateway(tinyGatewayScale())
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("sweep not deterministic:\n%s\n%s", aj, bj)
	}
}

func TestReportJSONWithFloatKeyedData(t *testing.T) {
	rep := &Report{ID: "ab-w2", Title: "t", Body: "b",
		Data: floatKeys(map[float64]float64{0.6: 0.012, 2: 0.015})}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("float-keyed sweep must marshal: %v", err)
	}
	var back struct {
		Data map[string]float64 `json:"data"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Data["0.6"] != 0.012 || back.Data["2"] != 0.015 {
		t.Fatalf("round-trip = %+v", back.Data)
	}
}
