package experiments

import (
	"context"
	"time"

	"rollrec/internal/node"
	"rollrec/internal/timeline"
)

// Timeline is one style's sampled crash run of experiment ID (D11 or D12).
type Timeline struct {
	ID     string
	Style  string
	Export *timeline.Export
}

// TimelineCell returns the crash instant and horizon of the sampled D11 and
// D12 cells, zero values selecting the experiments' own (a crash at 10 s, a
// 25 s horizon), and Validate's refusal of the D11 cell they describe: a
// negative value, or a crash after the horizon — never injected, while every
// export would still say crash@.
func TimelineCell(crashAt, horizon time.Duration) (time.Duration, time.Duration, error) {
	if crashAt == 0 {
		crashAt = 10 * time.Second
	}
	if horizon == 0 {
		horizon = 25 * time.Second
	}
	return crashAt, horizon, d11Spec(1, node.Profile1995(), styleRows(false)[0], crashAt, horizon).Validate()
}

// D11Timelines reruns the D11 failure variant (server crash at crashAt on
// era hardware, run to horizon; see TimelineCell) under each style with a
// timeline collector attached, and returns the per-style exports — the runs
// behind the "recovery timeline explorer" walkthrough. Sampling is
// observation-only, so each run's event sequence is identical to its
// unsampled D11 counterpart. A cancelled ctx returns the prefix sampled so
// far.
func D11Timelines(ctx context.Context, seed int64, interval, crashAt, horizon time.Duration) []Timeline {
	var out []Timeline
	for _, row := range styleRows(false) {
		style := string(row.family)
		out = append(out, Timeline{ID: "D11", Style: style, Export: sampled(ctx,
			d11Spec(seed, node.Profile1995(), row, crashAt, horizon),
			timeline.Config{Interval: interval, N: 8, Label: "D11/" + style + " crash@" + crashAt.String()})})
	}
	return out
}
