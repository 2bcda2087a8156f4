package main

import (
	"flag"
	"math"
	"runtime"
	"testing"
	"time"

	"rollrec/internal/bitset"
	"rollrec/internal/det"
	"rollrec/internal/ids"
	"rollrec/internal/metrics"
	"rollrec/internal/node"
	"rollrec/internal/output"
	"rollrec/internal/sim"
	"rollrec/internal/timeline"
	"rollrec/internal/traffic"
	"rollrec/internal/wire"
	"rollrec/internal/workload"
)

// Layer drivers: one Go benchmark per layer operation, each through the
// layer's exported functions only. Sizes are not invented: every driver takes
// them from the counts the workload itself produced in this run (driverSizes),
// so a driver always measures its layer at the size the workload drives it at.

// driverSizes are the workload counts the drivers are sized from.
type driverSizes struct {
	n         int // cluster size: width of a holder set
	f         int
	piggyback int // determinants carried per application message, rounded up
	liveDets  int // largest determinant log at the horizon
}

// driverPayload is the application payload of a driver's frame: the pad both
// the gossip and the traffic workloads use.
const driverPayload = 256

type driver struct {
	name string // metric stem: <layer>.<op>, reported as <stem>_ns and <stem>_allocs
	fn   func(b *testing.B)
}

const driverBatch = 256

// A driver that times only a region of each iteration reports that region
// under these units, and runDrivers prefers them to the benchmark's own clock.
const (
	regionNs     = "region-ns/op"
	regionAllocs = "region-allocs/op"
)

var driverSink int

// runDrivers runs every driver for about benchtime each and returns the
// <stem>_ns and <stem>_allocs metrics.
func runDrivers(sizes driverSizes, benchtime time.Duration) map[string]float64 {
	testing.Init()
	// testing.Benchmark reads its duration from the test.benchtime flag.
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		panic(err)
	}
	out := map[string]float64{}
	for _, d := range drivers(sizes) {
		r := testing.Benchmark(d.fn)
		out[d.name+"_ns"] = float64(r.T.Nanoseconds()) / float64(r.N)
		out[d.name+"_allocs"] = float64(r.MemAllocs) / float64(r.N)
		if ns, ok := r.Extra[regionNs]; ok {
			out[d.name+"_ns"], out[d.name+"_allocs"] = ns, r.Extra[regionAllocs]
		}
	}
	return out
}

// driverStems lists the drivers' metric stems; they do not depend on sizes.
func driverStems() []string {
	var out []string
	for _, d := range drivers(driverSizes{}) {
		out = append(out, d.name)
	}
	return out
}

func drivers(s driverSizes) []driver {
	ds := []driver{
		{"sim.schedule_dispatch", simScheduleDispatch},
		{"sim.send_recv", func(b *testing.B) { simSendRecv(b, false) }},
		{"sim.sharded_send_recv", func(b *testing.B) { simSendRecv(b, true) }},
		{"wire.encode_app.0", func(b *testing.B) { wireEncode(b, appFrame(s, 0)) }},
		{"wire.encode_app.pb", func(b *testing.B) { wireEncode(b, appFrame(s, s.piggyback)) }},
		{"wire.decode_app.0", func(b *testing.B) { wireDecode(b, appFrame(s, 0)) }},
		{"wire.decode_app.pb", func(b *testing.B) { wireDecode(b, appFrame(s, s.piggyback)) }},
		{"wire.encode_depreply", func(b *testing.B) { wireEncode(b, depReply(s)) }},
		{"wire.decode_depreply", func(b *testing.B) { wireDecode(b, depReply(s)) }},
	}
	// Every det driver runs at two log sizes.
	for _, sz := range []struct {
		tag string
		n   int
	}{{"1k", 1000}, {"live", s.liveDets}} {
		n := sz.n
		ds = append(ds,
			driver{"det.record." + sz.tag, func(b *testing.B) { detRecord(b, s, n) }},
			driver{"det.scan_pending_modified." + sz.tag, func(b *testing.B) { detScanPendingModified(b, s, n) }},
			driver{"det.pending_ids." + sz.tag, func(b *testing.B) { detPendingIDs(b, s, n) }},
			driver{"det.merge_entries." + sz.tag, func(b *testing.B) { detMergeEntries(b, s, n) }},
			driver{"det.gc_receiver." + sz.tag, func(b *testing.B) { detGCReceiver(b, s, n) }},
		)
	}
	return append(ds,
		driver{"bitset.count", func(b *testing.B) { bitsetCount(b, s) }},
		driver{"output.request_release", outputRequestRelease},
		driver{"traffic.arrival_sample", trafficArrivalSample},
		driver{"timeline.tick", func(b *testing.B) { timelineTick(b, s) }},
	)
}

// ── sim ────────────────────────────────────────────────────────────────

// driverHW is the 1995 profile with the per-message CPU charge and link
// bandwidth removed, so a driver measures the scheduler's own cost and not
// the busy-deferral the cost model adds on top.
func driverHW() node.Hardware {
	hw := node.Profile1995()
	hw.Net.Latency = time.Millisecond
	hw.Net.Bandwidth = 0
	hw.CPUMsgCost = 0
	hw.CPUByteCost = 0
	return hw
}

// sinkProc is a process that keeps its Env and discards deliveries.
type sinkProc struct{ env *node.Env }

func (p sinkProc) Boot(env node.Env, _ bool) { *p.env = env }
func (sinkProc) Deliver(*wire.Envelope)      {}

// simRuntime is what the sim drivers need of either scheduler.
type simRuntime interface {
	AddNode(id ids.ProcID, factory node.Factory)
	Boot()
	Now() int64
	Run(until time.Duration) int64
}

// bootSim adds nodes 0..n-1 and returns node 0's Env.
func bootSim(r simRuntime, n int) node.Env {
	envs := make([]node.Env, n)
	for i := range envs {
		env := &envs[i]
		r.AddNode(ids.ProcID(i), func() node.Process { return sinkProc{env} })
	}
	r.Boot()
	return envs[0]
}

// simScheduleDispatch is the scheduler's schedule→pop→dispatch path: a timer
// armed and fired per op.
func simScheduleDispatch(b *testing.B) {
	k := sim.New(sim.Config{Seed: 1, HW: driverHW()})
	env := bootSim(k, 1)
	fn := func() { driverSink++ }
	drain := func() { k.Run(time.Duration(k.Now()) + time.Millisecond) }
	for i := 0; i < driverBatch; i++ { // warm the event arena
		env.After(time.Microsecond, fn)
	}
	drain()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.After(time.Microsecond, fn)
		if (i+1)%driverBatch == 0 {
			drain()
		}
	}
	drain()
}

// simSendRecv is the end-to-end message path — encode, network model,
// arrival, decode, deliver — on the classic kernel, or across the two-shard
// coordinator's boundary exchange.
func simSendRecv(b *testing.B, sharded bool) {
	var r simRuntime
	if sharded {
		// The cluster harness always pairs sharding with FIFODefer.
		r = sim.NewSharded(sim.Config{Seed: 1, HW: driverHW(), FIFODefer: true}, 2)
	} else {
		r = sim.New(sim.Config{Seed: 1, HW: driverHW()})
	}
	env := bootSim(r, 2)
	e := &wire.Envelope{Kind: wire.KindApp, FromInc: 1, Payload: make([]byte, 64)}
	drain := func() { r.Run(time.Duration(r.Now()) + time.Second) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.SSN = ids.SSN(i)
		env.Send(1, e)
		if (i+1)%driverBatch == 0 {
			drain()
		}
	}
	drain()
}

// ── wire ───────────────────────────────────────────────────────────────

// detEntry is determinant i of a synthetic log: messages spread over the
// cluster's senders and receivers, each held by its receiver only (so it is
// pending for any f >= 1).
func detEntry(s driverSizes, i int) det.Entry {
	recv := ids.ProcID(i % s.n)
	holders := bitset.New(s.n + 1)
	holders.Add(int(recv))
	return det.Entry{
		Det: det.Determinant{
			Msg:      ids.MsgID{Sender: ids.ProcID((i + 1) % s.n), SSN: ids.SSN(i/s.n + 1)},
			Receiver: recv,
			RSN:      ids.RSN(i/s.n + 1),
		},
		Holders: holders,
	}
}

func detEntries(s driverSizes, n int) []det.Entry {
	out := make([]det.Entry, n)
	for i := range out {
		out[i] = detEntry(s, i)
	}
	return out
}

func appFrame(s driverSizes, dets int) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindApp, From: 0, To: 1, FromInc: 1, SSN: 7, Dseq: 7,
		Payload: make([]byte, driverPayload),
		Dets:    detEntries(s, dets),
	}
}

// depReply is a live process's answer to the recovery leader: its whole
// determinant log.
func depReply(s driverSizes) *wire.Envelope {
	return &wire.Envelope{
		Kind: wire.KindDepReply, From: 0, To: 1, FromInc: 1,
		Ord:  ids.Ordinal{Clock: 1, Proc: 1},
		Dets: detEntries(s, s.liveDets),
	}
}

func wireEncode(b *testing.B, e *wire.Envelope) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driverSink += len(wire.Encode(e))
	}
}

func wireDecode(b *testing.B, e *wire.Envelope) {
	frame := wire.Encode(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := wire.Decode(frame)
		if err != nil {
			b.Fatal(err)
		}
		driverSink += len(d.Dets)
	}
}

// ── det ────────────────────────────────────────────────────────────────

func filledLog(b *testing.B, s driverSizes, n int) *det.Log {
	l := det.NewLog(det.Config{N: s.n, F: s.f})
	if err := l.MergeEntries(detEntries(s, n)); err != nil {
		b.Fatal(err)
	}
	return l
}

// detRecord inserts one new determinant per op into a log of n.
func detRecord(b *testing.B, s driverSizes, n int) {
	l := filledLog(b, s, n)
	e := detEntry(s, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Det.Msg.SSN = ids.SSN(n + i + 1)
		e.Det.RSN = ids.RSN(n + i + 1)
		if err := l.Record(e); err != nil {
			b.Fatal(err)
		}
	}
}

// detScanPendingModified is broadcast mode's piggyback selection: one op
// scans a journal of n modifications from a cursor at its start, which is
// what a send to a peer not contacted since pays.
func detScanPendingModified(b *testing.B, s driverSizes, n int) {
	l := filledLog(b, s, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ScanPendingModified(0, func(det.Entry) { driverSink++ })
	}
}

// detPendingIDs is the output-commit rule's walk over a log of n.
func detPendingIDs(b *testing.B, s driverSizes, n int) {
	l := filledLog(b, s, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PendingIDs(func(ids.MsgID) { driverSink++ })
	}
}

// detMergeEntries absorbs one received piggyback (the workload's own size)
// of new determinants per op into a log of n.
func detMergeEntries(b *testing.B, s driverSizes, n int) {
	l := filledLog(b, s, n)
	batch := detEntries(s, s.piggyback)
	next := n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			next++
			batch[j].Det.Msg = ids.MsgID{Sender: ids.ProcID(s.n - 1), SSN: ids.SSN(next)}
			batch[j].Det.RSN = ids.RSN(next)
		}
		if err := l.MergeEntries(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// detGCReceiver drops every receiver's share of a log of n, one GCReceiver
// call each, as checkpoint notices do; the log is refilled off the clock. The
// region is timed by hand because the calls are far shorter than what
// b.StopTimer costs: the reported numbers are per GCReceiver call.
func detGCReceiver(b *testing.B, s driverSizes, n int) {
	l := filledLog(b, s, n)
	all := detEntries(s, n)
	var (
		spent   time.Duration
		mallocs uint64
		m0, m1  runtime.MemStats
	)
	for i := 0; i < b.N; i++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for p := 0; p < s.n; p++ {
			driverSink += l.GCReceiver(ids.ProcID(p), math.MaxUint64)
		}
		spent += time.Since(t0)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		if err := l.MergeEntries(all); err != nil {
			b.Fatal(err)
		}
	}
	calls := float64(b.N) * float64(s.n)
	b.ReportMetric(float64(spent.Nanoseconds())/calls, regionNs)
	b.ReportMetric(float64(mallocs)/calls, regionAllocs)
}

// ── bitset, output, traffic, timeline ──────────────────────────────────

// bitsetCount is the stability test's population count on a holder set of
// the cluster's width.
func bitsetCount(b *testing.B, s driverSizes) {
	set := bitset.New(s.n + 1)
	for i := 0; i <= s.f; i++ {
		set.Add(i * s.n / (s.f + 1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		driverSink += set.Count()
	}
}

// outputRequestRelease is one output through the ledger: requested, then
// committed.
func outputRequestRelease(b *testing.B) {
	led := output.NewLedger(8)
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := uint64(i + 1)
		led.Requested(0, seq, int64(i), payload)
		led.Committed(0, seq, int64(i)+1000)
	}
}

// trafficArrivalSample is one open-loop arrival: sample the next gap, build
// the request frame, offer it. The host runs each scheduled arrival at once.
func trafficArrivalSample(b *testing.B) {
	spec := workload.Traffic{Clients: 1, Frontends: 1, Backends: 2, FanOut: 2, Load: 250}
	eng := traffic.NewEngine(spec, 1)
	var next func()
	eng.Attach(traffic.Host{
		At:     func(_ time.Duration, fn func()) { next = fn },
		Inject: func(ids.ProcID, []byte) bool { return true },
	}, math.MaxInt64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next()
	}
}

// timelineTick is one sampler tick over a cluster of the workload's size.
func timelineTick(b *testing.B, s driverSizes) {
	col := timeline.New(timeline.Config{Interval: 100 * time.Millisecond, N: s.n})
	procs := make([]*metrics.Proc, s.n)
	for i := range procs {
		procs[i] = metrics.NewProc()
	}
	col.Bind(timeline.Probes{
		Queue:   func() (int, int) { return 100, 10 },
		Proc:    func(int) timeline.ProcGauges { return timeline.ProcGauges{Journal: s.liveDets} },
		Metrics: func(i int) *metrics.Proc { return procs[i] },
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Tick(int64(i+1) * int64(100*time.Millisecond))
	}
}
