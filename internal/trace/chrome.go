package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"rollrec/internal/wire"
)

// storageTID is the track id used for negative process ids (the
// stable-storage pseudo-process); chrome://tracing dislikes negative tids.
const storageTID = 999

func chromeTID(proc int32) int32 {
	if proc < 0 {
		return storageTID
	}
	return proc
}

// procLabel names a process track: "p<id>", or "p[stable]" for the
// stable-storage pseudo-process.
func procLabel(proc int32) string {
	if proc < 0 {
		return "p[stable]"
	}
	return "p" + strconv.Itoa(int(proc))
}

// WriteChromeFile writes events to path with WriteChrome.
func WriteChromeFile(path string, events []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteChrome(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteChrome renders events in the Chrome trace-event JSON format
// understood by Perfetto (ui.perfetto.dev) and chrome://tracing: one
// "thread" track per process, complete ("X") events for spans, instant
// ("i") events for point events, and thread_name metadata naming the
// tracks. Timestamps are microseconds of virtual time. Spans still open at
// export time are clamped to the latest timestamp seen and tagged with
// "open":1. A tag's kind is named as a wire.Kind.
func WriteChrome(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}

	var horizon int64
	seen := map[int32]bool{}
	var procs []int32
	for _, e := range events {
		if !seen[e.Proc] {
			seen[e.Proc] = true
			procs = append(procs, e.Proc)
		}
		end := e.TS + e.Dur
		if end > horizon {
			horizon = end
		}
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })

	first := true
	emit := func(s string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(s)
	}

	for _, p := range procs {
		emit(fmt.Sprintf(`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
			chromeTID(p), procLabel(p)))
	}
	for _, e := range events {
		args := fmtArgs(e)
		ts := float64(e.TS) / 1e3 // ns → µs
		if e.Span {
			dur := float64(e.Dur) / 1e3
			if e.Open {
				dur = float64(horizon-e.TS) / 1e3
			}
			emit(fmt.Sprintf(`{"ph":"X","pid":0,"tid":%d,"ts":%.3f,"dur":%.3f,"name":%q%s}`,
				chromeTID(e.Proc), ts, dur, e.Name, args))
			continue
		}
		emit(fmt.Sprintf(`{"ph":"i","s":"t","pid":0,"tid":%d,"ts":%.3f,"name":%q%s}`,
			chromeTID(e.Proc), ts, e.Name, args))
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// fmtArgs renders the non-zero tag fields as a trace-event args object.
func fmtArgs(e Event) string {
	t := e.Tag
	if t == (Tag{}) && !e.Open {
		return ""
	}
	s := `,"args":{`
	sep := ""
	if t.Kind != 0 {
		s += fmt.Sprintf(`%s"kind":%q`, sep, wire.Kind(t.Kind))
		sep = ","
	}
	if t.Inc != 0 {
		s += fmt.Sprintf(`%s"inc":%d`, sep, t.Inc)
		sep = ","
	}
	if t.Arg != 0 {
		s += fmt.Sprintf(`%s"arg":%d`, sep, t.Arg)
		sep = ","
	}
	if e.Open {
		s += sep + `"open":1`
	}
	return s + "}"
}
