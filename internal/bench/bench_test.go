package bench

import (
	"strings"
	"testing"

	"ecstore/internal/model"
	"ecstore/internal/placement"
	"ecstore/internal/sim"
)

// tinyScale keeps unit tests fast: enough traffic for stable means, small
// enough to run in seconds. Under -short it is shortScale.
func tinyScale(seed int64) Scale {
	if testing.Short() {
		return shortScale(seed)
	}
	return Scale{
		Name:      "tiny",
		Blocks:    1000,
		Warmup:    1,
		Adapt:     3,
		Measure:   3,
		WikiPages: 80,
		Seed:      seed,
	}
}

// shortScale simulates 1.25 s against tinyScale's 7 s (a simulator run
// costs wall time in proportion to simulated time, not to blocks). It is
// the scale of every simulator test under -short, and always that of the
// tests that run many configurations: fig4f's 18 runs, tab2's 6 and the
// cache, δ and k sweeps.
func shortScale(seed int64) Scale {
	return Scale{
		Name:      "short",
		Blocks:    1000,
		Warmup:    0.25,
		Adapt:     0.5,
		Measure:   0.5,
		WikiPages: 40,
		Seed:      seed,
	}
}

func TestConfigsCoverPaperMatrix(t *testing.T) {
	cfgs := Configs()
	want := []string{"R", "EC", "EC+LB", "EC+C", "EC+C+M", "EC+C+M+LB"}
	if len(cfgs) != len(want) {
		t.Fatalf("got %d configs", len(cfgs))
	}
	for i, opt := range cfgs {
		if got := opt.Name(); got != want[i] {
			t.Errorf("config %d = %s, want %s", i, got, want[i])
		}
	}
}

func TestFig1RetrievalDominates(t *testing.T) {
	t.Parallel()
	rep, results, err := Fig1(tinyScale(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig1" || rep.Body == "" {
		t.Fatalf("bad report: %+v", rep)
	}
	for _, r := range results {
		bd := r.Mean
		if bd.Retrieve < bd.Metadata || bd.Retrieve < bd.Planning || bd.Retrieve < bd.Decode {
			t.Errorf("%s: retrieval (%.4f) does not dominate breakdown %+v", r.Config, bd.Retrieve, bd)
		}
	}
	// Erasure coding slower than replication under random access, and
	// replication stores 50% more data (the paper's motivating gap).
	r, ec := results[0], results[1]
	if ec.Mean.Total() <= r.Mean.Total() {
		t.Errorf("EC (%.4f) not slower than R (%.4f)", ec.Mean.Total(), r.Mean.Total())
	}
	if r.StorageOverhead != 3.0 || ec.StorageOverhead != 2.0 {
		t.Errorf("overheads = %v, %v", r.StorageOverhead, ec.StorageOverhead)
	}
	// Replication never decodes.
	if r.Mean.Decode != 0 {
		t.Errorf("replication decode = %v", r.Mean.Decode)
	}
	if ec.Mean.Decode <= 0 {
		t.Errorf("erasure decode = %v", ec.Mean.Decode)
	}
}

func TestFig4aTimelineShape(t *testing.T) {
	t.Parallel()
	rep, results, err := Fig4a(tinyScale(2))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Body, "EC+C+M") {
		t.Fatal("report missing EC+C+M column")
	}
	for _, r := range results {
		if len(r.Metrics.Timeline()) == 0 {
			t.Fatalf("%s: empty timeline", r.Config)
		}
	}
}

func TestFig4fFailuresIncreaseLatency(t *testing.T) {
	t.Parallel()
	rep, rows, err := Fig4f(shortScale(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig4f" {
		t.Fatal("bad report id")
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for cfg, row := range rows {
		if len(row) != 3 {
			t.Fatalf("%s: %d columns", cfg, len(row))
		}
		for _, v := range row {
			if v <= 0 {
				t.Fatalf("%s: non-positive latency %v", cfg, v)
			}
		}
		// Two failures should not be cheaper than none (allowing a
		// little simulation noise).
		if row[2] < row[0]*0.9 {
			t.Errorf("%s: 2-failure latency %.4f markedly below 0-failure %.4f", cfg, row[2], row[0])
		}
	}
}

func TestTable2Lambdas(t *testing.T) {
	t.Parallel()
	rep, lambdas, err := Table2(shortScale(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(lambdas) != 6 {
		t.Fatalf("lambdas = %v", lambdas)
	}
	for cfg, l := range lambdas {
		if l < 0 {
			t.Errorf("%s: negative λ %v", cfg, l)
		}
	}
	if !strings.Contains(rep.Body, "EC+C+M") {
		t.Fatal("report missing configs")
	}
}

func TestTable3Rows(t *testing.T) {
	t.Parallel()
	rep, rows, err := Table3(tinyScale(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Service] = true
		if r.MemoryMB < 0 {
			t.Errorf("%s: negative memory", r.Service)
		}
	}
	if !names["Statistics"] || !names["Chunk read optimizer"] || !names["Chunk mover"] {
		t.Fatalf("services = %v", names)
	}
	if rep.Body == "" {
		t.Fatal("empty report")
	}
}

func TestWikipediaRun(t *testing.T) {
	t.Parallel()
	sc := tinyScale(6)
	res, err := RunWikipedia(sim.Options{
		Scheme:   model.SchemeErasure,
		Strategy: placement.StrategyCost,
	}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 {
		t.Fatal("no requests measured")
	}
}

func TestAblationDelta(t *testing.T) {
	t.Parallel()
	_, out, err := AblationDelta(shortScale(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("deltas = %v", out)
	}
}

func TestAblationK(t *testing.T) {
	t.Parallel()
	_, out, err := AblationK(shortScale(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("ks = %v", out)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{ID: "x", Title: "t", Body: "b\n"}
	s := rep.String()
	if !strings.Contains(s, "x") || !strings.Contains(s, "b") {
		t.Fatalf("report rendering: %q", s)
	}
}

func TestAblationCache(t *testing.T) {
	t.Parallel()
	rep, out, err := AblationCache(shortScale(23))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d budgets, want 4", len(out))
	}
	off, ok := out[0]
	if !ok || off.Mean.Total() <= 0 {
		t.Fatalf("missing cache-off baseline: %v", out)
	}
	base := off.Mean.Total()
	// A generous budget on the skewed workload must beat cache-off.
	if cached := out[128<<20].Mean.Total(); cached >= base {
		t.Fatalf("128MB cache mean %.4f >= baseline %.4f", cached, base)
	}
	// A mid-sized budget must actually serve reads.
	if hits := out[32<<20].CacheHits; hits <= 0 {
		t.Fatalf("32MB cache served %d hits", hits)
	}
	if !strings.Contains(rep.Body, "hot-cover") || !strings.Contains(rep.Body, "off") {
		t.Fatalf("report body missing columns:\n%s", rep.Body)
	}
}
