package main

import (
	"testing"
	"time"
)

func TestParseApp(t *testing.T) {
	for _, name := range []string{"gossip", "ring", "clientserver"} {
		f, err := parseApp(name)
		if err != nil || f == nil {
			t.Errorf("parseApp(%q): %v", name, err)
		}
	}
	if _, err := parseApp("mapreduce"); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestParseCrashes(t *testing.T) {
	plan, err := parseCrashes("10s:3, 14.5s:5", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 || plan[0].Proc != 3 || plan[0].At != 10*time.Second ||
		plan[1].Proc != 5 || plan[1].At != 14500*time.Millisecond {
		t.Fatalf("plan = %+v", plan)
	}
	if p, err := parseCrashes("", 8); err != nil || p != nil {
		t.Fatal("empty schedule must parse to nil")
	}
	for _, bad := range []string{"10s", "xx:1", "10s:9", "10s:-1", "10s:abc"} {
		if _, err := parseCrashes(bad, 8); err == nil {
			t.Errorf("parseCrashes(%q) must error", bad)
		}
	}
}
