package node

import (
	"testing"
	"time"
)

func TestSendCost(t *testing.T) {
	hw := Hardware{CPUMsgCost: time.Millisecond, CPUByteCost: 100 * time.Nanosecond}
	if got := hw.SendCost(1000); got != time.Millisecond+100*time.Microsecond {
		t.Fatalf("SendCost = %v", got)
	}
	if got := (Hardware{}).SendCost(1000); got != 0 {
		t.Fatalf("zero hardware must be free: %v", got)
	}
}

func TestProfilesAreSane(t *testing.T) {
	old, modern := Profile1995(), ProfileModern()
	// The technology trend the paper is about: the modern profile's storage
	// and network are faster, its detection quicker.
	if modern.Disk.Latency >= old.Disk.Latency {
		t.Fatal("modern storage must have lower latency than the 1995 disk")
	}
	if modern.Net.Latency >= old.Net.Latency {
		t.Fatal("modern network must be faster")
	}
	if modern.WatchdogDetect >= old.WatchdogDetect {
		t.Fatal("modern detection must be faster")
	}
	// And the 1995 constants reproduce the paper's headline numbers: a 1 MB
	// process restores in well under the multi-second detection window.
	restore := old.Disk.ReadTime(1 << 20)
	if restore >= old.WatchdogDetect {
		t.Fatalf("restore (%v) must be smaller than detection (%v): the paper's breakdown",
			restore, old.WatchdogDetect)
	}
	if old.HeartbeatEvery >= old.SuspectAfter {
		t.Fatal("heartbeats must be more frequent than the suspicion timeout")
	}
}

func TestProfileByName(t *testing.T) {
	for name, want := range map[string]Hardware{"1995": Profile1995(), "modern": ProfileModern()} {
		if got, err := ProfileByName(name); err != nil || got != want {
			t.Errorf("ProfileByName(%q) = %+v, %v", name, got, err)
		}
	}
	for _, bad := range []string{"", "quantum", "Modern"} {
		if _, err := ProfileByName(bad); err == nil {
			t.Errorf("ProfileByName(%q) must error", bad)
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	want := []string{"live", "blocked", "restoring", "recovering", "replaying", "down"}
	for p := PhaseLive; p <= PhaseDown; p++ {
		if p.String() != want[p] {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), want[p])
		}
	}
}
