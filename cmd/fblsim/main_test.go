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
	for _, bad := range []string{"10s", "xx:1", "10s:9", "10s:-1", "10s:abc", "-1s:1"} {
		if _, err := parseCrashes(bad, 8); err == nil {
			t.Errorf("parseCrashes(%q) must error", bad)
		}
	}
}

// FuzzParseCrashes: whatever the flag says, parsing never panics, and every
// entry it accepts can be run: at or after time zero, on a process of the
// cluster.
func FuzzParseCrashes(f *testing.F) {
	for _, s := range []string{"10s:3, 14.5s:5", "", "-1s:1", "10s:-1", "1h:0,0s:7", "xx:1", ":", ",,"} {
		f.Add(s, 8)
	}
	f.Fuzz(func(t *testing.T, s string, n int) {
		plan, err := parseCrashes(s, n)
		if err != nil {
			return
		}
		for _, cr := range plan {
			if cr.At < 0 || cr.Proc < 0 || int(cr.Proc) >= n {
				t.Fatalf("parseCrashes(%q, %d) accepted %+v", s, n, cr)
			}
		}
	})
}
