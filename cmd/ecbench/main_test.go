package main

import (
	"sort"
	"testing"
)

func TestRunnersCoverExperimentIndex(t *testing.T) {
	// Exactly the simulator experiments DESIGN.md's index promises: the
	// paper's figures and tables plus the simulator ablations.
	want := []string{
		"ab-cache", "ab-delta", "ab-gateway", "ab-k", "ab-mrate",
		"ab-plan", "ab-scrub", "ab-size", "ab-w2",
		"fig1", "fig4a", "fig4b", "fig4c", "fig4d", "fig4e", "fig4f",
		"fig4g", "fig4h", "tab2", "tab3",
	}
	var have []string
	for id := range runners() {
		have = append(have, id)
	}
	sort.Strings(have)
	if len(have) != len(want) {
		t.Fatalf("runners = %v, want %v", have, want)
	}
	for i := range want {
		if have[i] != want[i] {
			t.Fatalf("runners = %v, want %v", have, want)
		}
	}
}

func TestRunArgumentValidation(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatalf("-list: %v", err)
	}
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bogus flag accepted")
	}
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if err := run([]string{"-scale", "galactic", "-exp", "fig1"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
	// The live gateway sweep and the -exp alias are gone.
	for _, flag := range []string{"-gateway", "-mode"} {
		if err := run([]string{flag, "x", "-list"}); err == nil {
			t.Fatalf("%s accepted", flag)
		}
	}
}
